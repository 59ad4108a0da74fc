#include "tgraph/stats.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/file_io.h"
#include "obs/metrics.h"

namespace tgraph::opt {

namespace {

constexpr char kProfileHeader[] = "tgraph-stats v1";

const Representation kAllRepresentations[] = {
    Representation::kRg, Representation::kVe, Representation::kOg,
    Representation::kOgc};

obs::Counter* ObservationCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kOptimizerObservations);
  return counter;
}

}  // namespace

const char* OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kAZoom:
      return "azoom";
    case OpKind::kWZoom:
      return "wzoom";
    case OpKind::kSlice:
      return "slice";
    case OpKind::kCoalesce:
      return "coalesce";
    case OpKind::kConvert:
      return "convert";
  }
  return "?";
}

std::optional<OpKind> ParseOpKind(const std::string& token) {
  for (OpKind op : {OpKind::kAZoom, OpKind::kWZoom, OpKind::kSlice,
                    OpKind::kCoalesce, OpKind::kConvert}) {
    if (token == OpKindName(op)) return op;
  }
  return std::nullopt;
}

std::optional<Representation> ParseRepresentation(const std::string& token) {
  for (Representation rep : kAllRepresentations) {
    if (token == RepresentationName(rep)) return rep;
  }
  return std::nullopt;
}

double OpStats::MeanWallUsPerRow() const {
  if (rows_in > 0) return static_cast<double>(wall_us) / rows_in;
  if (observations > 0) return static_cast<double>(wall_us) / observations;
  return 0.0;
}

double OpStats::MeanShuffleBytesPerRow() const {
  if (rows_in <= 0) return 0.0;
  return static_cast<double>(shuffle_bytes) / rows_in;
}

double OpStats::Selectivity() const {
  if (rows_in <= 0) return 1.0;
  return static_cast<double>(rows_out) / rows_in;
}

Stats& Stats::operator=(const Stats& other) {
  if (this == &other) return *this;
  auto cells = other.Cells();
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
  for (auto& [key, cell] : cells) cells_[key] = cell;
  return *this;
}

void Stats::Observe(OpKind op, Representation rep,
                    const Observation& observation) {
  ObservationCounter()->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& cell = cells_[{op, rep}];
  cell.observations += 1;
  cell.wall_us += observation.wall_us;
  cell.shuffle_bytes += observation.shuffle_bytes;
  cell.rows_in += observation.rows_in;
  cell.rows_out += observation.rows_out;
}

std::optional<OpStats> Stats::Get(OpKind op, Representation rep) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find({op, rep});
  if (it == cells_.end()) return std::nullopt;
  return it->second;
}

int64_t Stats::TotalObservations() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [key, cell] : cells_) total += cell.observations;
  return total;
}

void Stats::MergeFrom(const Stats& other) {
  auto cells = other.Cells();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, cell] : cells) cells_[key].Merge(cell);
}

void Stats::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
}

std::vector<std::pair<std::pair<OpKind, Representation>, OpStats>>
Stats::Cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {cells_.begin(), cells_.end()};
}

std::string Stats::Serialize() const {
  std::string out = kProfileHeader;
  out += "\n";
  for (const auto& [key, cell] : Cells()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "op=%s rep=%s n=%" PRId64 " wall_us=%" PRId64
                  " shuffle_bytes=%" PRId64 " rows_in=%" PRId64
                  " rows_out=%" PRId64 "\n",
                  OpKindName(key.first), RepresentationName(key.second),
                  cell.observations, cell.wall_us, cell.shuffle_bytes,
                  cell.rows_in, cell.rows_out);
    out += line;
  }
  return out;
}

Result<Stats> Stats::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kProfileHeader) {
    return Status::InvalidArgument(
        "stats profile missing '" + std::string(kProfileHeader) + "' header");
  }
  Stats stats;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string field;
    std::optional<OpKind> op;
    std::optional<Representation> rep;
    OpStats cell;
    bool saw_count = false;
    while (fields >> field) {
      size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("stats profile line " +
                                       std::to_string(line_number) +
                                       ": bad field '" + field + "'");
      }
      std::string key = field.substr(0, eq);
      std::string value = field.substr(eq + 1);
      if (key == "op") {
        op = ParseOpKind(value);
        if (!op.has_value()) {
          return Status::InvalidArgument("stats profile line " +
                                         std::to_string(line_number) +
                                         ": unknown operator '" + value + "'");
        }
        continue;
      }
      if (key == "rep") {
        rep = ParseRepresentation(value);
        if (!rep.has_value()) {
          return Status::InvalidArgument(
              "stats profile line " + std::to_string(line_number) +
              ": unknown representation '" + value + "'");
        }
        continue;
      }
      errno = 0;
      char* end = nullptr;
      int64_t number = std::strtoll(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0' || number < 0) {
        return Status::InvalidArgument("stats profile line " +
                                       std::to_string(line_number) +
                                       ": bad number in '" + field + "'");
      }
      if (key == "n") {
        cell.observations = number;
        saw_count = true;
      } else if (key == "wall_us") {
        cell.wall_us = number;
      } else if (key == "shuffle_bytes") {
        cell.shuffle_bytes = number;
      } else if (key == "rows_in") {
        cell.rows_in = number;
      } else if (key == "rows_out") {
        cell.rows_out = number;
      } else {
        return Status::InvalidArgument("stats profile line " +
                                       std::to_string(line_number) +
                                       ": unknown field '" + key + "'");
      }
    }
    if (!op.has_value() || !rep.has_value() || !saw_count) {
      return Status::InvalidArgument("stats profile line " +
                                     std::to_string(line_number) +
                                     ": missing op/rep/n");
    }
    std::lock_guard<std::mutex> lock(stats.mu_);
    stats.cells_[{*op, *rep}].Merge(cell);
  }
  return stats;
}

Status Stats::SaveToFile(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

Result<Stats> Stats::LoadFromFile(const std::string& path) {
  TG_ASSIGN_OR_RETURN(std::string content, ReadFile(path));
  return Parse(content);
}

std::string Stats::ToString() const {
  std::string out;
  for (const auto& [key, cell] : Cells()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "opt.stats %s/%s n=%" PRId64
                  " mean_us_per_row=%.3f sel=%.3f shuffle_b_per_row=%.2f\n",
                  OpKindName(key.first), RepresentationName(key.second),
                  cell.observations, cell.MeanWallUsPerRow(),
                  cell.Selectivity(), cell.MeanShuffleBytesPerRow());
    out += line;
  }
  return out;
}

PlanContext PlanContext::FromGraph(const TGraph& graph) {
  PlanContext context;
  context.representation = graph.representation();
  context.rows = static_cast<double>(graph.NumVertexRecords() +
                                     graph.NumEdgeRecords());
  Interval lifetime = graph.lifetime();
  context.snapshots =
      std::max<double>(1.0, static_cast<double>(lifetime.duration()));
  return context;
}

}  // namespace tgraph::opt
