#include "common/interval.h"

#include <set>

namespace tgraph {

std::string Interval::ToString() const {
  // append(), not "[" + std::string&& (GCC 12 -Wrestrict false positive).
  return std::string("[")
      .append(std::to_string(start))
      .append(", ")
      .append(std::to_string(end))
      .append(")");
}

std::ostream& operator<<(std::ostream& os, const Interval& i) {
  return os << i.ToString();
}

void IntervalDifference(const Interval& a, const Interval& b,
                        std::vector<Interval>* out) {
  if (a.empty()) return;
  Interval overlap = a.Intersect(b);
  if (overlap.empty()) {
    out->push_back(a);
    return;
  }
  if (a.start < overlap.start) out->push_back(Interval(a.start, overlap.start));
  if (overlap.end < a.end) out->push_back(Interval(overlap.end, a.end));
}

std::vector<Interval> SplitIntervals(std::vector<Interval> intervals) {
  std::set<TimePoint> points;
  for (const Interval& i : intervals) {
    if (i.empty()) continue;
    points.insert(i.start);
    points.insert(i.end);
  }
  std::vector<Interval> result;
  if (points.size() < 2) return result;
  auto it = points.begin();
  TimePoint prev = *it;
  for (++it; it != points.end(); ++it) {
    result.push_back(Interval(prev, *it));
    prev = *it;
  }
  return result;
}

std::vector<Interval> CoalesceIntervals(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& i) { return i.empty(); });
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> result;
  for (const Interval& i : intervals) {
    if (!result.empty() && result.back().Mergeable(i)) {
      result.back() = result.back().Merge(i);
    } else {
      result.push_back(i);
    }
  }
  return result;
}

int64_t CoveredDuration(const std::vector<Interval>& intervals) {
  int64_t total = 0;
  for (const Interval& i : CoalesceIntervals(intervals)) {
    total += i.duration();
  }
  return total;
}

}  // namespace tgraph
