// Fixture for `lint_determinism.py --self-test`: each line marked
// `lint-expect` must be reported, and no other line.
#include "widget.h"

double Owner::visit() {
  double sum = 0.0;
  for (const auto& [id, w] : widgets_) sum += id;  // lint-expect: unordered-iter
  for (const auto& [id, w] : this->widgets_) sum += id;  // lint-expect: unordered-iter
  Widget st;
  Widget* p = &st;
  for (const auto& [k, v] : st.weights) sum += v;  // lint-expect: unordered-iter
  for (int m : p->members) sum += m;  // lint-expect: unordered-iter
  for (int m : p->members) sum += m;  // det-ok: a sum of ints has no order
  for (const auto& [k, v] : st.ordered) sum += v;
  for (int x : st.list) sum += x;
  std::unordered_set<int> local;
  for (int x : local) sum += x;  // lint-expect: unordered-iter
  return sum;
}

double Owner::visit_nested() {
  double sum = 0.0;
  if (const auto it = groups_.find(1); it != groups_.end()) {
    for (int m : it->second) sum += m;  // lint-expect: unordered-iter
  }
  for (const auto& [k, v] : rows_[0]) sum += v;  // lint-expect: unordered-iter
  for (const auto& [k, v] : rows_.at(1)) sum += v;  // lint-expect: unordered-iter
  for (const auto& [k, v] : rows_[2]) sum += v;  // det-ok: a count has no order
  for (const auto& row : rows_) sum += row.size();
  // `it` is rebound into an ordered container: its elements are vectors.
  if (const auto it = lists_.find(1); it != lists_.end()) {
    for (int x : it->second) sum += x;
  }
  return sum;
}
