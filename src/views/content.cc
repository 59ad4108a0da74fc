#include "views/content.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "obs/trace.h"
#include "tgraph/coalesce.h"

namespace tgraph::views {

namespace {

VertexId IdOf(const VeVertex& row) { return row.vid; }
EdgeId IdOf(const VeEdge& row) { return row.eid; }
std::string Line(const VeVertex& row) { return "V " + row.ToString(); }
std::string Line(const VeEdge& row) { return "E " + row.ToString(); }

/// Coalesces the rows of one entity (edges: one pair of endpoints).
template <typename Row>
std::vector<Row> CoalesceRows(std::vector<Row> rows) {
  if (rows.empty()) return rows;
  const Row proto = rows.front();
  History history;
  history.reserve(rows.size());
  for (Row& row : rows) {
    history.push_back(HistoryItem{row.interval, std::move(row.properties)});
  }
  std::vector<Row> out;
  for (HistoryItem& item : CoalesceHistory(std::move(history))) {
    Row row = proto;
    row.interval = item.interval;
    row.properties = std::move(item.properties);
    out.push_back(std::move(row));
  }
  return out;
}

/// The lines of rows [first, rows.end()), in byte order.
template <typename Row>
std::vector<std::string> RenderFrom(const std::vector<Row>& rows,
                                    size_t first) {
  std::vector<std::string> lines;
  lines.reserve(rows.size() - first);
  for (size_t i = first; i < rows.size(); ++i) {
    lines.push_back(Line(rows[i]));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// `text` (sorted '\n'-terminated lines) without the lines in `removed`
/// and with those in `added`, still sorted. Both lists are sorted, and
/// `removed` is a subset of `text`'s lines.
std::string ReplaceLines(std::string_view text,
                         const std::vector<std::string>& removed,
                         const std::vector<std::string>& added) {
  std::string out;
  out.reserve(text.size());
  auto remove = removed.begin();
  auto add = added.begin();
  auto emit = [&out](std::string_view line) {
    out.append(line);
    out += '\n';
  };
  while (!text.empty()) {
    const size_t newline = text.find('\n');
    const std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline + 1);
    if (remove != removed.end() && *remove == line) {
      ++remove;
      continue;
    }
    for (; add != added.end() && *add < line; ++add) emit(*add);
    emit(line);
  }
  for (; add != added.end(); ++add) emit(*add);
  return out;
}

/// Rebuilds one entity as Coalesce(prev|(-inf, cut) UNION suffix), or
/// returns null when nothing of it remains, or `prev` itself when nothing
/// changed. Rows up to the first one that changed keep their rendered
/// lines; only the rest are rendered again.
template <typename Row>
std::shared_ptr<const EntityContent<Row>> SpliceEntity(
    const std::shared_ptr<const EntityContent<Row>>& prev,
    std::vector<Row> suffix, TimePoint cut) {
  // prev's rows are coalesced and ordered by start, so the ones ending at
  // or before the cut form a prefix. All of them but the last stay as
  // they are: only that last one can meet a row that starts at the cut.
  size_t keep = 0;
  std::vector<Row> tail;
  if (prev != nullptr) {
    while (keep < prev->rows.size() && prev->rows[keep].interval.end <= cut) {
      ++keep;
    }
    if (keep > 0) --keep;
    const Interval before(std::numeric_limits<TimePoint>::min(), cut);
    for (size_t i = keep; i < prev->rows.size(); ++i) {
      const Interval clipped = prev->rows[i].interval.Intersect(before);
      if (clipped.empty()) continue;
      tail.push_back(prev->rows[i]);
      tail.back().interval = clipped;
    }
  }
  tail.insert(tail.end(), std::make_move_iterator(suffix.begin()),
              std::make_move_iterator(suffix.end()));
  tail = CoalesceRows(std::move(tail));
  std::vector<Row> rows;
  if (keep > 0) {
    rows.reserve(keep + tail.size());
    rows.assign(prev->rows.begin(), prev->rows.begin() + keep);
  }
  rows.insert(rows.end(), std::make_move_iterator(tail.begin()),
              std::make_move_iterator(tail.end()));
  if (rows.empty()) return nullptr;

  size_t same = keep;
  if (prev != nullptr) {
    while (same < rows.size() && same < prev->rows.size() &&
           rows[same] == prev->rows[same]) {
      ++same;
    }
    if (same == rows.size() && same == prev->rows.size()) return prev;
  }
  auto entity = std::make_shared<EntityContent<Row>>();
  if (prev != nullptr) {
    entity->lines = ReplaceLines(prev->lines, RenderFrom(prev->rows, same),
                                 RenderFrom(rows, same));
  } else {
    entity->lines = ReplaceLines({}, {}, RenderFrom(rows, 0));
  }
  entity->rows = std::move(rows);
  return entity;
}

/// Rebuilds the entities of `map` that `suffix_rows` or the cut can
/// change (see ViewContent::Splice) and adjusts `*records` by the change
/// in their row counts. With a `scope`, only the entities it names and
/// those with suffix rows are rebuilt.
template <typename Map, typename Row>
Map SpliceEntities(const Map& map, std::vector<Row> suffix_rows,
                   TimePoint cut, size_t* records,
                   const std::vector<int64_t>* scope = nullptr) {
  std::map<int64_t, std::vector<Row>> suffix;
  for (Row& row : suffix_rows) suffix[IdOf(row)].push_back(std::move(row));
  // Entities alive past the cut lose their rows after it; the suffix
  // brings back whatever still holds there.
  std::vector<int64_t> affected;
  if (scope != nullptr) {
    affected = *scope;
  } else {
    map.ForEach([&](int64_t id, const auto& entity) {
      if (entity->rows.back().interval.end > cut) affected.push_back(id);
    });
  }
  for (const auto& [id, rows] : suffix) affected.push_back(id);
  std::sort(affected.begin(), affected.end(), DecimalOrder());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  std::vector<typename Map::Update> updates;
  updates.reserve(affected.size());
  for (int64_t id : affected) {
    const auto* found = map.Find(id);
    const auto prev = found != nullptr ? *found : nullptr;
    std::vector<Row> rows;
    if (auto it = suffix.find(id); it != suffix.end()) {
      rows = std::move(it->second);
    }
    auto next = SpliceEntity(prev, std::move(rows), cut);
    if (next == prev) continue;
    if (prev != nullptr) *records -= prev->rows.size();
    if (next == nullptr) {
      updates.emplace_back(id, std::nullopt);
    } else {
      *records += next->rows.size();
      updates.emplace_back(id, std::move(next));
    }
  }
  return map.With(std::move(updates));
}

}  // namespace

bool DecimalOrder::operator()(int64_t a, int64_t b) const {
  char a_digits[20];
  char b_digits[20];
  const char* a_end = std::to_chars(a_digits, a_digits + 20, a).ptr;
  const char* b_end = std::to_chars(b_digits, b_digits + 20, b).ptr;
  return std::string_view(a_digits, a_end - a_digits) <
         std::string_view(b_digits, b_end - b_digits);
}

ViewContent ViewContent::Build(const VeGraph& graph) {
  // Splicing into empty content at the end of time coalesces and renders
  // every entity from scratch.
  constexpr TimePoint kNoCut = std::numeric_limits<TimePoint>::max();
  ViewContent content;
  content.vertices_ = SpliceEntities(content.vertices_,
                                     graph.vertices().Collect(), kNoCut,
                                     &content.vertex_records_);
  content.edges_ = SpliceEntities(content.edges_, graph.edges().Collect(),
                                  kNoCut, &content.edge_records_);
  content.lifetime_ = graph.lifetime();
  return content;
}

ViewContent ViewContent::Splice(const VeGraph& suffix, TimePoint cut) const {
  ViewContent next = *this;
  next.vertices_ = SpliceEntities(vertices_, suffix.vertices().Collect(), cut,
                                  &next.vertex_records_);
  next.edges_ = SpliceEntities(edges_, suffix.edges().Collect(), cut,
                               &next.edge_records_);
  next.lifetime_ =
      lifetime_.Intersect(Interval(std::numeric_limits<TimePoint>::min(), cut))
          .Merge(suffix.lifetime());
  return next;
}

ViewContent ViewContent::Splice(std::vector<VeVertex> vertices,
                                const std::vector<VertexId>& vertex_scope,
                                std::vector<VeEdge> edges,
                                const std::vector<EdgeId>& edge_scope,
                                TimePoint cut, Interval lifetime) const {
  obs::Span span("views.splice", "views");
  ViewContent next = *this;
  next.vertices_ = SpliceEntities(vertices_, std::move(vertices), cut,
                                  &next.vertex_records_, &vertex_scope);
  next.edges_ = SpliceEntities(edges_, std::move(edges), cut,
                               &next.edge_records_, &edge_scope);
  next.lifetime_ = lifetime;
  return next;
}

VeGraph ViewContent::ToVe(dataflow::ExecutionContext* ctx) const {
  std::vector<VeVertex> vertices;
  vertices.reserve(vertex_records_);
  vertices_.ForEach([&](VertexId, const auto& entity) {
    vertices.insert(vertices.end(), entity->rows.begin(), entity->rows.end());
  });
  std::vector<VeEdge> edges;
  edges.reserve(edge_records_);
  edges_.ForEach([&](EdgeId, const auto& entity) {
    edges.insert(edges.end(), entity->rows.begin(), entity->rows.end());
  });
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         lifetime_);
}

uint64_t ViewContent::Hash() const {
  uint64_t hash = HashBytes({});
  edges_.ForEach([&](EdgeId, const auto& entity) {
    hash = HashBytes(entity->lines, hash);
  });
  vertices_.ForEach([&](VertexId, const auto& entity) {
    hash = HashBytes(entity->lines, hash);
  });
  return hash;
}

}  // namespace tgraph::views
