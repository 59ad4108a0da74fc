#ifndef TGRAPH_TGRAPH_STATS_H_
#define TGRAPH_TGRAPH_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tgraph/tgraph.h"

namespace tgraph::opt {

/// The operator vocabulary the statistics store and the cost-based planner
/// agree on — one entry per Pipeline step kind.
enum class OpKind { kAZoom, kWZoom, kSlice, kCoalesce, kConvert };

/// Stable lower-case token used in profiles and reports ("azoom", ...).
const char* OpKindName(OpKind op);

/// Inverse of OpKindName; nullopt for unknown tokens.
std::optional<OpKind> ParseOpKind(const std::string& token);

/// Inverse of RepresentationName; nullopt for unknown tokens.
std::optional<Representation> ParseRepresentation(const std::string& token);

/// \brief One measured execution of an operator on a representation: the
/// raw material of the cost model. Pipeline::Run derives one from each
/// step's obs::StageStats when given a store (tgraphd passes its own for
/// every TQL zoom, slice, coalesce and convert step).
struct Observation {
  int64_t wall_us = 0;
  int64_t shuffle_bytes = 0;
  /// Input/output sizes in representation records (vertex + edge records).
  int64_t rows_in = 0;
  int64_t rows_out = 0;
};

/// \brief Aggregated observations for one (operator, representation) cell.
struct OpStats {
  int64_t observations = 0;
  int64_t wall_us = 0;
  int64_t shuffle_bytes = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;

  void Merge(const OpStats& other) {
    observations += other.observations;
    wall_us += other.wall_us;
    shuffle_bytes += other.shuffle_bytes;
    rows_in += other.rows_in;
    rows_out += other.rows_out;
  }

  /// Mean microseconds per input row; rows-free observations (empty
  /// inputs) fall back to the mean wall time per observation.
  double MeanWallUsPerRow() const;

  /// Mean shuffled bytes per input row.
  double MeanShuffleBytesPerRow() const;

  /// rows_out / rows_in in [0, inf); 1.0 when nothing was measured.
  double Selectivity() const;
};

/// \brief Thread-safe store of per-(operator, representation) execution
/// statistics, persistable to a small text profile so `tgz` and `tgraphd`
/// warm-start their cost models across processes.
///
/// The store is an aggregate, not a log: each cell keeps running sums, so
/// memory is bounded by the (operator × representation) grid regardless of
/// how many queries feed it.
class Stats {
 public:
  Stats() = default;
  Stats(const Stats& other) { *this = other; }
  Stats& operator=(const Stats& other);

  void Observe(OpKind op, Representation rep, const Observation& observation);

  /// The aggregated cell, or nullopt if the pair was never observed.
  std::optional<OpStats> Get(OpKind op, Representation rep) const;

  /// Total observations across all cells; 0 means "no history" and makes
  /// the planner fall back to the rule rewrites.
  int64_t TotalObservations() const;
  bool empty() const { return TotalObservations() == 0; }

  void MergeFrom(const Stats& other);
  void Clear();

  /// Point-in-time copy of every cell, ordered by (operator, rep).
  std::vector<std::pair<std::pair<OpKind, Representation>, OpStats>> Cells()
      const;

  /// Profile text: a version header plus one line per cell. Stable field
  /// order, so serialized profiles diff cleanly.
  std::string Serialize() const;
  static Result<Stats> Parse(const std::string& text);

  /// Writes the profile through WriteFileAtomic: a crash mid-save leaves
  /// the previous profile (or none), never a truncated one.
  Status SaveToFile(const std::string& path) const;
  /// NotFound when the file does not exist (callers treat that as a cold
  /// start); InvalidArgument on malformed content.
  static Result<Stats> LoadFromFile(const std::string& path);

  /// Human summary for stats reports: one line per cell with means.
  std::string ToString() const;

 private:
  using Key = std::pair<OpKind, Representation>;

  mutable std::mutex mu_;
  std::map<Key, OpStats> cells_;
};

/// \brief Facts about a pipeline's input graph that the planner prices
/// candidates against. Deliberately cheap to derive: record counts and the
/// lifetime span, not a full change-point scan.
struct PlanContext {
  Representation representation = Representation::kVe;
  /// Vertex + edge records of the input.
  double rows = 0;
  /// Snapshot-count approximation (lifetime duration in time points) —
  /// the fan-out factor of the RG representation.
  double snapshots = 1;

  static PlanContext FromGraph(const TGraph& graph);
};

}  // namespace tgraph::opt

#endif  // TGRAPH_TGRAPH_STATS_H_
