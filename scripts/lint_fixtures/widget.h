// Fixture for `lint_determinism.py --self-test`: containers declared here
// are iterated in widget.cpp, the paired source file.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct Widget {
  std::unordered_map<int, double> weights;
  std::unordered_set<int> members;
  std::map<int, double> ordered;
  std::vector<int> list;
};

class Owner {
 public:
  double visit();
  double visit_nested();

 private:
  std::unordered_map<int, Widget> widgets_;
  // Containers of unordered containers: a loop over one element is a loop
  // over an unordered container.
  std::unordered_map<int, std::unordered_set<int>> groups_;
  std::vector<std::unordered_map<int, double>> rows_;
  std::map<int, std::vector<int>> lists_;
};

inline int count_members(const Widget& w) {
  int n = 0;
  for (int m : w.members) n += m > 0;  // lint-expect: unordered-iter
  return n;
}
