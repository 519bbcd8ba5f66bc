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
