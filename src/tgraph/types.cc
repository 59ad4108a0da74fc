#include "tgraph/types.h"

namespace tgraph {

uint64_t HashHistory(const History& history) {
  uint64_t h = Mix64(history.size());
  for (const HistoryItem& item : history) {
    h = HashCombine(h, item.Hash());
  }
  return h;
}

// The ToString functions start from std::string("v").append(...) rather
// than "v" + std::string&&, which trips a GCC 12 -Wrestrict false positive
// when inlined.

std::string VeVertex::ToString() const {
  return std::string("v").append(std::to_string(vid)) + " " +
         interval.ToString() + " " + properties.ToString();
}

std::string VeEdge::ToString() const {
  return std::string("e").append(std::to_string(eid)) + " (" +
         std::to_string(src) + "->" + std::to_string(dst) + ") " +
         interval.ToString() + " " + properties.ToString();
}

namespace {

std::string HistoryToString(const History& history) {
  std::string out = "{";
  bool first = true;
  for (const HistoryItem& item : history) {
    if (!first) out += ", ";
    first = false;
    out += item.interval.ToString() + ": " + item.properties.ToString();
  }
  return out + "}";
}

}  // namespace

std::string OgVertex::ToString() const {
  return std::string("v").append(std::to_string(vid)) + " " +
         HistoryToString(history);
}

std::string OgEdge::ToString() const {
  return std::string("e").append(std::to_string(eid)) + " (" +
         std::to_string(v1.vid) + "->" + std::to_string(v2.vid) + ") " +
         HistoryToString(history);
}

}  // namespace tgraph
