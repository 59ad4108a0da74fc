#include "obs/stage.h"

namespace tgraph::obs {

namespace {

/// Calls `emit(key, value, quoted)` for each field a stage prints, in
/// order: the wall time, rows when applicable, then each counter group
/// the stage moved. `quoted` marks a string value in JSON.
template <typename Emit>
void ForEachField(const StageStats& s, const Emit& emit) {
  auto number = [&emit](const char* key, int64_t value) {
    emit(key, std::to_string(value), false);
  };
  number("wall_us", s.wall_us);
  if (s.rows_in >= 0) number("rows_in", s.rows_in);
  if (s.rows_out >= 0) number("rows_out", s.rows_out);
  if (s.shuffles != 0) {
    number("shuffles", s.shuffles);
    number("shuffle_records", s.shuffle_records);
    number("shuffle_bytes", s.shuffle_bytes);
  }
  if (s.shuffles_rebalanced != 0) {
    number("rebalanced", s.shuffles_rebalanced);
    number("hot_keys", s.shuffle_hot_keys);
  }
  if (s.store_partitions_pruned != 0 || s.store_partitions_decoded != 0) {
    number("partitions_pruned", s.store_partitions_pruned);
    number("partitions_decoded", s.store_partitions_decoded);
  }
  if (s.store_segment_verifies != 0) {
    number("segment_verifies", s.store_segment_verifies);
    number("verified_bytes", s.store_verified_bytes);
  }
  if (s.catalog_hits != 0 || s.catalog_loads != 0) {
    emit("catalog", s.catalog_loads != 0 ? "load" : "hit", true);
  }
}

}  // namespace

std::string StageStats::ToString() const {
  std::string out = label;
  if (!detail.empty()) out += " " + detail;
  out += ":";
  ForEachField(*this, [&out](const char* key, const std::string& value,
                             bool /*quoted*/) {
    out += std::string(" ") + key + "=" + value;
  });
  return out;
}

std::string StageStats::ToJson() const {
  // label/detail are operator names and graph identifiers (lexer-safe
  // charsets), so plain quoting suffices.
  std::string out =
      "{\"label\":\"" + label + "\",\"detail\":\"" + detail + "\"";
  ForEachField(*this, [&out](const char* key, const std::string& value,
                             bool quoted) {
    out += std::string(",\"") + key + "\":" +
           (quoted ? "\"" + value + "\"" : value);
  });
  return out + "}";
}

ExplainCollector::Scope::Scope(ExplainCollector* collector, std::string label,
                               std::string detail)
    : collector_(collector) {
  if (collector_ == nullptr) return;
  stage_.label = std::move(label);
  stage_.detail = std::move(detail);
  counters_.emplace();
  start_us_ = Tracer::NowMicros();
}

ExplainCollector::Scope::~Scope() {
  if (collector_ == nullptr) return;
  stage_.wall_us = Tracer::NowMicros() - start_us_;
  const QueryCounterValues work = counters_->Delta();
  stage_.shuffles = work[QueryCounter::kShuffles];
  stage_.shuffle_records = work[QueryCounter::kShuffleRecords];
  stage_.shuffle_bytes = work[QueryCounter::kShuffleBytes];
  stage_.shuffles_rebalanced = work[QueryCounter::kShufflesRebalanced];
  stage_.shuffle_hot_keys = work[QueryCounter::kShuffleHotKeys];
  stage_.store_partitions_pruned = work[QueryCounter::kStorePartitionsPruned];
  stage_.store_partitions_decoded =
      work[QueryCounter::kStorePartitionsDecoded];
  stage_.store_segment_verifies = work[QueryCounter::kStoreSegmentVerifies];
  stage_.store_verified_bytes = work[QueryCounter::kStoreVerifiedBytes];
  stage_.catalog_hits = work[QueryCounter::kCatalogHits];
  stage_.catalog_loads = work[QueryCounter::kCatalogLoads];
  collector_->Add(std::move(stage_));
}

void ExplainCollector::Scope::set_rows(int64_t rows_in, int64_t rows_out) {
  stage_.rows_in = rows_in;
  stage_.rows_out = rows_out;
}

std::string ExplainCollector::Render(const std::string& canonical,
                                     int64_t total_us) const {
  std::string out = "EXPLAIN ANALYZE " + canonical + "\n";
  for (const StageStats& stage : stages_) {
    out += "  " + stage.ToString() + "\n";
  }
  out += "result-cache: bypass (EXPLAIN ANALYZE always re-executes)\n";
  out += "total: wall_us=" + std::to_string(total_us) + "\n";
  return out;
}

std::string ExplainCollector::StagesJson() const {
  std::string out = "[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += ",";
    out += stages_[i].ToJson();
  }
  out += "]";
  return out;
}

}  // namespace tgraph::obs
