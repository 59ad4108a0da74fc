// End-to-end tests for the streaming ingest subsystem (src/ingest):
// differential equivalence against offline builds, snapshot isolation,
// LSM compaction, and crash recovery through the WAL.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "ingest/wal.h"
#include "obs/trace.h"
#include "server/catalog.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"
#include "tgraph/builder.h"
#include "tgraph/slice.h"
#include "test_util.h"
#include "views/view.h"

namespace tgraph::ingest {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() /
                     ("tg_ingest_test_" + name + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

Event AddVertex(int64_t vid, TimePoint at, Properties props) {
  Event e;
  e.kind = EventKind::kAddVertex;
  e.id = vid;
  e.at = at;
  props.Set("type", "node");
  e.props = std::move(props);
  return e;
}

Event SetVertex(int64_t vid, TimePoint at, const std::string& key,
                PropertyValue value) {
  Event e;
  e.kind = EventKind::kSetVertexProperty;
  e.id = vid;
  e.at = at;
  e.props = Properties{{key, std::move(value)}};
  return e;
}

Event RemoveVertex(int64_t vid, TimePoint at) {
  Event e;
  e.kind = EventKind::kRemoveVertex;
  e.id = vid;
  e.at = at;
  return e;
}

Event AddEdge(int64_t eid, VertexId src, VertexId dst, TimePoint at,
              Properties props) {
  Event e;
  e.kind = EventKind::kAddEdge;
  e.id = eid;
  e.src = src;
  e.dst = dst;
  e.at = at;
  props.Set("type", "link");
  e.props = std::move(props);
  return e;
}

Event RemoveEdge(int64_t eid, TimePoint at) {
  Event e;
  e.kind = EventKind::kRemoveEdge;
  e.id = eid;
  e.at = at;
  return e;
}

/// The scripted workload every differential test ingests: adds, property
/// churn, removals, and a re-add — split into batches at arbitrary points.
std::vector<std::vector<Event>> Workload() {
  return {
      {AddVertex(1, 10, {{"name", "ann"}}), AddVertex(2, 11, {{"name", "bob"}}),
       AddEdge(100, 1, 2, 12, {{"w", 1}})},
      {SetVertex(1, 20, "name", "ann2"), AddVertex(3, 21, {{"name", "cat"}}),
       AddEdge(101, 2, 3, 22, {{"w", 2}})},
      {RemoveEdge(100, 30), RemoveVertex(2, 31)},
      {AddVertex(2, 40, {{"name", "bob2"}}), AddEdge(102, 1, 2, 41, {{"w", 3}}),
       SetVertex(3, 42, "name", "cat2")},
  };
}

/// Offline reference: one builder over the flattened event stream of the
/// first `prefix` batches (all of them by default).
VeGraph OfflineBuild(const std::vector<std::vector<Event>>& batches,
                     TimePoint horizon, size_t prefix = SIZE_MAX) {
  TGraphBuilder builder(testing::Ctx());
  for (size_t i = 0; i < std::min(prefix, batches.size()); ++i) {
    for (const Event& event : batches[i]) {
      ApplyEventToBuilder(event, &builder);
    }
  }
  Result<VeGraph> graph = builder.Finish(horizon);
  TG_CHECK(graph.ok()) << graph.status();
  return *graph;
}

Event SetEdge(int64_t eid, TimePoint at, const std::string& key,
              PropertyValue value) {
  Event e;
  e.kind = EventKind::kSetEdgeProperty;
  e.id = eid;
  e.at = at;
  e.props = Properties{{key, std::move(value)}};
  return e;
}

/// A random valid log of `num_batches` batches of 1-6 events at strictly
/// increasing times: vertex adds, re-adds and removals, edge adds, re-adds
/// and removals, and property churn on both. Unlike Workload(), a vertex
/// removal here leaves its alive edges for the builder to end implicitly,
/// so later batches never mention those edges again unless re-adding one.
std::vector<std::vector<Event>> RandomLog(uint64_t seed, int num_batches) {
  Rng rng(seed);
  TimePoint t = 10;
  std::map<int64_t, bool> vertices;  // vid -> alive
  std::map<int64_t, std::pair<VertexId, VertexId>> edge_ends;
  std::set<int64_t> alive_edges;
  int64_t next_vid = 1;
  int64_t next_eid = 1000;
  auto pick = [&rng](const auto& ids) {
    auto it = ids.begin();
    std::advance(it, rng.NextBounded(ids.size()));
    return *it;
  };
  auto alive_vertices = [&vertices] {
    std::vector<int64_t> out;
    for (const auto& [vid, alive] : vertices) {
      if (alive) out.push_back(vid);
    }
    return out;
  };
  std::vector<std::vector<Event>> batches;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<Event> batch;
    const uint64_t size = 1 + rng.NextBounded(6);
    while (batch.size() < size) {
      const std::vector<int64_t> alive = alive_vertices();
      const uint64_t op = rng.NextBounded(9);
      if (op == 0 || alive.size() < 2) {
        batch.push_back(AddVertex(next_vid, t++, {{"g", "a"}}));
        vertices[next_vid++] = true;
      } else if (op == 1 && alive.size() < vertices.size()) {
        std::vector<int64_t> dead;
        for (const auto& [vid, is_alive] : vertices) {
          if (!is_alive) dead.push_back(vid);
        }
        const int64_t vid = pick(dead);
        batch.push_back(AddVertex(vid, t++, {{"g", "b"}}));
        vertices[vid] = true;
      } else if (op == 2) {
        const int64_t vid = pick(alive);
        batch.push_back(RemoveVertex(vid, t++));
        vertices[vid] = false;
        std::erase_if(alive_edges, [&](int64_t eid) {
          return edge_ends[eid].first == vid || edge_ends[eid].second == vid;
        });
      } else if (op == 3) {
        batch.push_back(SetVertex(pick(alive), t++, "g",
                                  "g" + std::to_string(rng.NextBounded(3))));
      } else if (op == 4) {
        const int64_t eid = next_eid++;
        edge_ends[eid] = {pick(alive), pick(alive)};
        batch.push_back(AddEdge(eid, edge_ends[eid].first,
                                edge_ends[eid].second, t++, {{"w", 0}}));
        alive_edges.insert(eid);
      } else if (op == 5) {
        // Re-add a dead edge whose endpoints are both alive again.
        std::vector<int64_t> candidates;
        for (const auto& [eid, ends] : edge_ends) {
          if (!alive_edges.count(eid) && vertices[ends.first] &&
              vertices[ends.second]) {
            candidates.push_back(eid);
          }
        }
        if (candidates.empty()) continue;
        const int64_t eid = pick(candidates);
        batch.push_back(AddEdge(eid, edge_ends[eid].first,
                                edge_ends[eid].second, t++, {{"w", 1}}));
        alive_edges.insert(eid);
      } else if (op == 6 && !alive_edges.empty()) {
        const int64_t eid = pick(alive_edges);
        batch.push_back(RemoveEdge(eid, t++));
        alive_edges.erase(eid);
      } else if (!alive_edges.empty()) {
        batch.push_back(
            SetEdge(pick(alive_edges), t++, "w",
                    static_cast<int64_t>(rng.NextBounded(4))));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Row-for-row identity, order included: the fold materializes exactly
/// the rows an offline build returns.
void ExpectSameRows(const VeGraph& live, const VeGraph& offline,
                    const std::string& where) {
  EXPECT_EQ(live.vertices().Collect(), offline.vertices().Collect())
      << where;
  EXPECT_EQ(live.edges().Collect(), offline.edges().Collect()) << where;
  EXPECT_EQ(live.lifetime(), offline.lifetime()) << where;
}

class LiveGraphTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  std::string Dir(const std::string& name) {
    dirs_.push_back(FreshDir(name));
    return dirs_.back();
  }

  LiveGraph::Options NoCompactor() {
    LiveGraph::Options options;
    options.delta_events_threshold = 0;
    options.sync = false;  // tests don't crash the machine, just the process
    return options;
  }

  std::vector<std::string> dirs_;
};

TEST_F(LiveGraphTest, LiveEqualsOfflinePreCompaction) {
  std::string dir = Dir("pre_compaction");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  for (const std::vector<Event>& batch : Workload()) {
    Result<uint64_t> seq = (*live)->Append(batch);
    ASSERT_TRUE(seq.ok()) << seq.status();
  }
  std::shared_ptr<const LiveSnapshot> snap = (*live)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(testing::Canonical(**merged),
            testing::Canonical(OfflineBuild(Workload(), (*live)->horizon())));
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, LiveEqualsOfflineAcrossEveryCompactionPoint) {
  // Compact after batch k, for every k: the base+delta merge must be
  // invisible — identical canonical VE (and thus identical RG/VE/OG/OGC
  // conversions, which are pure functions of it) at every split.
  const std::vector<std::vector<Event>> batches = Workload();
  for (size_t compact_after = 0; compact_after <= batches.size();
       ++compact_after) {
    std::string dir = Dir("split_" + std::to_string(compact_after));
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    for (size_t i = 0; i < batches.size(); ++i) {
      Result<uint64_t> seq = (*live)->Append(batches[i]);
      ASSERT_TRUE(seq.ok()) << "batch " << i << ": " << seq.status();
      if (i + 1 == compact_after) {
        ASSERT_TRUE((*live)->Compact().ok());
      }
    }
    std::shared_ptr<const LiveSnapshot> snap = (*live)->snapshot();
    Result<const VeGraph*> merged = snap->Graph();
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(testing::Canonical(**merged),
              testing::Canonical(OfflineBuild(batches, (*live)->horizon())))
        << "compacted after batch " << compact_after;
    ASSERT_TRUE((*live)->Close().ok());
  }
}

TEST_F(LiveGraphTest, FoldEqualsOfflineAfterEveryBatch) {
  // Every ack folds its batch into the per-entity state; after every batch
  // the materialized state must be the offline build of the log so far,
  // row for row — across compactions and a close/reopen (WAL replay).
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::vector<Event>> batches = RandomLog(seed, 40);
    std::string dir = Dir("fold_" + std::to_string(seed));
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::string where =
          "seed " + std::to_string(seed) + " batch " + std::to_string(i);
      Result<uint64_t> seq = (*live)->Append(batches[i]);
      ASSERT_TRUE(seq.ok()) << where << ": " << seq.status();
      if (i % 7 == 6) ASSERT_TRUE((*live)->Compact().ok()) << where;
      if (i == 17 || i == 30) {
        ASSERT_TRUE((*live)->Close().ok());
        live = LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
        ASSERT_TRUE(live.ok()) << where << ": " << live.status();
      }
      Result<const VeGraph*> graph = (*live)->snapshot()->Graph();
      ASSERT_TRUE(graph.ok()) << where << ": " << graph.status();
      ExpectSameRows(**graph,
                     OfflineBuild(batches, (*live)->horizon(), i + 1), where);
    }
    ASSERT_TRUE((*live)->Close().ok());
  }
}

TEST_F(LiveGraphTest, RangedSliceEqualsSliceOfMergedGraph) {
  // A ranged live read clips the folded state chunk by chunk; it must
  // return SliceVe(*Graph()) row for row, order and lifetime included,
  // over random ranges — before and after compactions and a reopen.
  for (uint64_t seed : {5u, 6u}) {
    const std::vector<std::vector<Event>> batches = RandomLog(seed, 60);
    std::string dir = Dir("slice_" + std::to_string(seed));
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    Rng rng(seed);
    for (size_t i = 0; i < batches.size(); ++i) {
      Result<uint64_t> seq = (*live)->Append(batches[i]);
      ASSERT_TRUE(seq.ok()) << seq.status();
      if (i % 11 == 10) ASSERT_TRUE((*live)->Compact().ok());
      if (i == 40) {
        ASSERT_TRUE((*live)->Close().ok());
        live = LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
        ASSERT_TRUE(live.ok()) << live.status();
      }
      std::shared_ptr<const LiveSnapshot> snap = (*live)->snapshot();
      const TimePoint last = snap->watermark();
      for (int r = 0; r < 4; ++r) {
        const TimePoint start = last - static_cast<TimePoint>(
                                           rng.NextBounded(40)) + 5;
        const TimePoint end =
            r == 3 ? (*live)->horizon() + 7
                   : start + static_cast<TimePoint>(rng.NextBounded(15));
        const Interval range(start, end);
        Result<const VeGraph*> merged = snap->Graph();
        ASSERT_TRUE(merged.ok()) << merged.status();
        ExpectSameRows(snap->Slice(range), SliceVe(**merged, range),
                       "seed " + std::to_string(seed) + " batch " +
                           std::to_string(i) + " range " + range.ToString());
      }
    }
    ASSERT_TRUE((*live)->Close().ok());
  }
}

TEST_F(LiveGraphTest, AppendRefreshAndRangedReadsNeverMergeTheSnapshot) {
  // The write path (append + counted view refresh) and ranged catalog
  // reads all work off the folded state: after a view's first build, no
  // `ingest.merge` span (LiveSnapshot::Graph) may appear.
  const std::string dir = Dir("no_merge");
  LiveGraphRegistry registry(testing::Ctx());
  registry.set_options(NoCompactor());
  Result<LiveGraph*> live = registry.GetOrOpen(dir);
  ASSERT_TRUE(live.ok()) << live.status();
  server::GraphCatalog catalog(testing::Ctx());
  catalog.set_live_graphs(&registry);

  const std::vector<std::vector<Event>> batches = RandomLog(8, 40);
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE((*live)->Append(batches[i]).ok());
  Pipeline pipeline;
  AZoomSpec spec;
  spec.group_of = GroupByProperty("g");
  spec.aggregator = MakeAggregator("grp", "g", {{"n", AggKind::kCount, ""}});
  pipeline.AZoom(spec);
  views::ViewDefinition def;
  def.name = "v";
  def.source = dir;
  views::MaterializedView view(testing::Ctx(), def, pipeline, {});
  ASSERT_TRUE(view.Refresh(*live, 0).ok());  // the first build merges

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  for (size_t i = 5; i < batches.size(); ++i) {
    ASSERT_TRUE((*live)->Append(batches[i]).ok());
    ASSERT_TRUE(view.Refresh(*live, 0).ok());
    const TimePoint last = (*live)->snapshot()->watermark();
    ASSERT_TRUE(catalog.GetOrLoad(dir, Interval(last - 6, last + 1)).ok());
  }
  tracer.Disable();
  size_t merges = 0;
  size_t slices = 0;
  for (const obs::SpanEvent& event : tracer.Events()) {
    merges += event.name == "ingest.merge";
    slices += event.name == "ingest.slice";
  }
  tracer.Clear();
  EXPECT_EQ(merges, 0u);
  EXPECT_EQ(slices, batches.size() - 5);
  EXPECT_EQ(view.Current()->counted_deltas, batches.size() - 5);
}

TEST_F(LiveGraphTest, RemovalEndsAliveEdgeTheBatchNeverMentions) {
  std::vector<std::vector<Event>> batches = {
      {AddVertex(1, 10, {}), AddVertex(2, 11, {}), AddVertex(3, 12, {}),
       AddEdge(100, 1, 2, 13, {}), AddEdge(101, 2, 3, 14, {})},
      {RemoveVertex(2, 20)},  // ends edges 100 and 101 implicitly
  };
  std::string dir = Dir("implicit_end");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  for (const std::vector<Event>& batch : batches) {
    ASSERT_TRUE((*live)->Append(batch).ok());
  }
  Result<const VeGraph*> graph = (*live)->snapshot()->Graph();
  ASSERT_TRUE(graph.ok());
  ExpectSameRows(**graph, OfflineBuild(batches, (*live)->horizon()),
                 "after the removal");
  for (const VeEdge& edge : (*graph)->edges().Collect()) {
    EXPECT_EQ(edge.interval.end, 20) << "edge " << edge.eid;
  }

  // The ended edge is dead for good: a property change is rejected even
  // after its endpoint is re-added, and only a fresh add revives it.
  ASSERT_TRUE((*live)->Append({AddVertex(2, 30, {})}).ok());
  Result<uint64_t> dead_set = (*live)->Append({SetEdge(100, 31, "w", 1)});
  ASSERT_FALSE(dead_set.ok());
  EXPECT_TRUE(dead_set.status().IsInvalidArgument()) << dead_set.status();
  ASSERT_TRUE((*live)->Append({AddEdge(100, 1, 2, 32, {})}).ok());
  batches.push_back({AddVertex(2, 30, {})});
  batches.push_back({AddEdge(100, 1, 2, 32, {})});
  graph = (*live)->snapshot()->Graph();
  ASSERT_TRUE(graph.ok());
  ExpectSameRows(**graph, OfflineBuild(batches, (*live)->horizon()),
                 "after the re-add");
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, GenerationFromFoldIsByteIdenticalToFullRebuild) {
  // A generation is the folded state written out. It must be the very
  // file a full offline rebuild of the same log writes with the same
  // metadata — with and without an earlier generation underneath.
  const std::vector<std::vector<Event>> batches = RandomLog(9, 30);
  for (bool compact_midway : {false, true}) {
    std::string dir =
        Dir(std::string("gen_bytes_") + (compact_midway ? "mid" : "once"));
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE((*live)->Append(batches[i]).ok()) << "batch " << i;
      if (compact_midway && i == batches.size() / 2) {
        ASSERT_TRUE((*live)->Compact().ok());
      }
    }
    ASSERT_TRUE((*live)->Compact().ok());
    const uint64_t generation = (*live)->snapshot()->generation();
    char name[32];
    std::snprintf(name, sizeof(name), "/gen-%06llu.tgs",
                  static_cast<unsigned long long>(generation));
    const std::string gen_path = dir + name;

    Result<std::unique_ptr<storage::StoreReader>> reader =
        storage::StoreReader::Open(gen_path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    std::vector<std::pair<std::string, std::string>> meta;
    for (const char* key : {kMetaIngestLastSeq, kMetaIngestWatermark,
                            kMetaIngestHorizon, kMetaIngestGeneration}) {
      const std::string* value = (*reader)->FindMetadata(key);
      ASSERT_NE(value, nullptr) << key;
      meta.emplace_back(key, *value);
    }
    const std::string rebuilt_path = dir + "/rebuilt.tgs";
    ASSERT_TRUE(storage::WriteVeStoreFile(
                    OfflineBuild(batches, (*live)->horizon()), rebuilt_path,
                    {}, meta)
                    .ok());
    EXPECT_EQ(ReadFile(gen_path), ReadFile(rebuilt_path))
        << "compact_midway " << compact_midway;
    ASSERT_TRUE((*live)->Close().ok());
  }
}

TEST_F(LiveGraphTest, DifferentialAcrossRepresentations) {
  // The live graph's merged VE, pushed through each representation and
  // back, matches the offline build pushed through the same conversions.
  std::string dir = Dir("reps");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  for (const std::vector<Event>& batch : Workload()) {
    ASSERT_TRUE((*live)->Append(batch).ok());
  }
  ASSERT_TRUE((*live)->Compact().ok());
  std::shared_ptr<const LiveSnapshot> snap = (*live)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  VeGraph offline = OfflineBuild(Workload(), (*live)->horizon());
  for (Representation rep : {Representation::kRg, Representation::kVe,
                             Representation::kOg, Representation::kOgc}) {
    Result<TGraph> live_rep = TGraph::FromVe(**merged, true).As(rep);
    Result<TGraph> offline_rep = TGraph::FromVe(offline, true).As(rep);
    ASSERT_TRUE(live_rep.ok()) << live_rep.status();
    ASSERT_TRUE(offline_rep.ok()) << offline_rep.status();
    if (rep == Representation::kOgc) {
      // OGC is topology-only; compare what it preserves.
      Result<TGraph> live_ve = live_rep->As(Representation::kVe);
      Result<TGraph> offline_ve = offline_rep->As(Representation::kVe);
      ASSERT_TRUE(live_ve.ok() && offline_ve.ok());
      EXPECT_EQ(testing::CanonicalTopology(live_ve->ve()),
                testing::CanonicalTopology(offline_ve->ve()));
    } else {
      EXPECT_EQ(testing::Canonical(*live_rep), testing::Canonical(*offline_rep))
          << "rep " << static_cast<int>(rep);
    }
  }
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, ReopenAfterCloseReplaysWal) {
  std::string dir = Dir("reopen");
  {
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    for (const std::vector<Event>& batch : Workload()) {
      ASSERT_TRUE((*live)->Append(batch).ok());
    }
    ASSERT_TRUE((*live)->Close().ok());
  }
  Result<std::unique_ptr<LiveGraph>> reopened =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::shared_ptr<const LiveSnapshot> snap = (*reopened)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(
      testing::Canonical(**merged),
      testing::Canonical(OfflineBuild(Workload(), (*reopened)->horizon())));
  // The next sequence number continues past the replayed ones: appending
  // after recovery must not collide.
  Result<uint64_t> seq = (*reopened)->Append({AddVertex(9, 100, {})});
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_EQ(*seq, Workload().size() + 1);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(LiveGraphTest, TornWalTailLosesOnlyUnackedBatch) {
  std::string dir = Dir("torn");
  {
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    for (const std::vector<Event>& batch : Workload()) {
      ASSERT_TRUE((*live)->Append(batch).ok());
    }
    ASSERT_TRUE((*live)->Close().ok());
  }
  // Simulate a crash mid-append: tear bytes off the final record.
  std::string wal_path = WalPathFor(dir, "");
  {
    std::error_code ec;
    uintmax_t size = fs::file_size(wal_path, ec);
    ASSERT_FALSE(ec);
    fs::resize_file(wal_path, size - 3, ec);
    ASSERT_FALSE(ec);
  }
  Result<std::unique_ptr<LiveGraph>> reopened =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::vector<std::vector<Event>> all_but_last = Workload();
  all_but_last.pop_back();
  std::shared_ptr<const LiveSnapshot> snap = (*reopened)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(
      testing::Canonical(**merged),
      testing::Canonical(OfflineBuild(all_but_last, (*reopened)->horizon())));
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(LiveGraphTest, ReopenAfterCompactionSkipsDuplicateReplay) {
  std::string dir = Dir("dedup");
  const std::vector<std::vector<Event>> batches = Workload();
  {
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->Append(batches[0]).ok());
    ASSERT_TRUE((*live)->Append(batches[1]).ok());
    ASSERT_TRUE((*live)->Compact().ok());
    ASSERT_TRUE((*live)->Append(batches[2]).ok());
    ASSERT_TRUE((*live)->Append(batches[3]).ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  // Reopen: base holds seq<=2, rotated WAL holds 3..4. Replay must fold
  // exactly once.
  Result<std::unique_ptr<LiveGraph>> reopened =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->snapshot()->delta_events(),
            batches[2].size() + batches[3].size());
  std::shared_ptr<const LiveSnapshot> snap = (*reopened)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(testing::Canonical(**merged),
            testing::Canonical(OfflineBuild(batches, (*reopened)->horizon())));
  ASSERT_TRUE((*reopened)->Close().ok());
}

/// A crash inside WriteFileAtomic leaves a `*.tmp` beside the file it was
/// replacing (a generation, CURRENT or the WAL). Nothing names it, so
/// reopening removes it and keeps everything else.
TEST_F(LiveGraphTest, ReopenRemovesLeftoverTempFiles) {
  std::string dir = Dir("tmp_gc");
  const std::vector<std::vector<Event>> batches = Workload();
  {
    Result<std::unique_ptr<LiveGraph>> live =
        LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->Append(batches[0]).ok());
    ASSERT_TRUE((*live)->Compact().ok());
    ASSERT_TRUE((*live)->Append(batches[1]).ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  std::set<std::string> kept;
  for (const auto& entry : fs::directory_iterator(dir)) {
    kept.insert(entry.path().filename().string());
  }
  for (const char* leftover :
       {"gen-000002.tgs.4242.0.tmp", "CURRENT.4242.1.tmp", "wal.4242.2.tmp"}) {
    std::ofstream(dir + "/" + leftover) << "torn";
  }
  Result<std::unique_ptr<LiveGraph>> reopened =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::set<std::string> after;
  for (const auto& entry : fs::directory_iterator(dir)) {
    after.insert(entry.path().filename().string());
  }
  EXPECT_EQ(after, kept);
  Result<const VeGraph*> merged = (*reopened)->snapshot()->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(testing::Canonical(**merged),
            testing::Canonical(
                OfflineBuild(batches, (*reopened)->horizon(), 2)));
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(LiveGraphTest, SnapshotIsolationAcrossAppendAndCompaction) {
  std::string dir = Dir("isolation");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  const std::vector<std::vector<Event>> batches = Workload();
  ASSERT_TRUE((*live)->Append(batches[0]).ok());

  std::shared_ptr<const LiveSnapshot> old_snap = (*live)->snapshot();
  Result<const VeGraph*> old_graph = old_snap->Graph();
  ASSERT_TRUE(old_graph.ok());
  std::vector<std::string> before = testing::Canonical(**old_graph);
  uint64_t old_epoch = old_snap->epoch();

  // Appends and a compaction publish new epochs...
  for (size_t i = 1; i < batches.size(); ++i) {
    ASSERT_TRUE((*live)->Append(batches[i]).ok());
  }
  ASSERT_TRUE((*live)->Compact().ok());
  EXPECT_GT((*live)->snapshot()->epoch(), old_epoch);

  // ...while the old snapshot still answers exactly as before.
  Result<const VeGraph*> again = old_snap->Graph();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(testing::Canonical(**again), before);
  EXPECT_EQ(old_snap->epoch(), old_epoch);
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, ConcurrentReadersNeverSeePartialBatches) {
  std::string dir = Dir("concurrent");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  LiveGraph* graph = live->get();

  // Each batch adds a vertex pair atomically; readers count vertices and
  // assert the count is always even (no half-applied batch) and
  // monotonic per-reader within one snapshot.
  constexpr int kBatches = 50;
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const LiveSnapshot> snap = graph->snapshot();
      Result<const VeGraph*> merged = snap->Graph();
      if (!merged.ok()) {
        failed.store(true);
        return;
      }
      size_t n = (*merged)->vertices().Collect().size();
      if (n % 2 != 0) {
        failed.store(true);
        return;
      }
    }
  });
  for (int i = 0; i < kBatches; ++i) {
    TimePoint at = 10 + i;
    Result<uint64_t> seq = graph->Append(
        {AddVertex(2 * i + 1, at, {}), AddVertex(2 * i + 2, at, {})});
    ASSERT_TRUE(seq.ok()) << seq.status();
    if (i == kBatches / 2) ASSERT_TRUE(graph->Compact().ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, RejectedBatchIsAtomicAndInvisible) {
  std::string dir = Dir("reject");
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->Append({AddVertex(1, 10, {})}).ok());
  uint64_t epoch = (*live)->epoch();

  // A batch whose second event is invalid (edge endpoint never existed)
  // must reject wholesale: no epoch bump, no WAL growth, no delta change.
  Result<uint64_t> bad = (*live)->Append(
      {AddVertex(2, 20, {}), AddEdge(100, 2, 999, 21, {})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ((*live)->epoch(), epoch);
  EXPECT_EQ((*live)->snapshot()->delta_events(), 1u);

  // Timestamps at or before the watermark reject too (strict cross-batch
  // monotonicity keeps live replay order identical to offline order).
  Result<uint64_t> stale = (*live)->Append({AddVertex(3, 10, {})});
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInvalidArgument()) << stale.status();

  // At-or-past-horizon events reject.
  Result<uint64_t> late =
      (*live)->Append({AddVertex(4, (*live)->horizon(), {})});
  ASSERT_FALSE(late.ok());

  // The graph still works after rejections.
  ASSERT_TRUE((*live)->Append({AddVertex(5, 30, {})}).ok());
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, ThresholdTriggersBackgroundCompaction) {
  std::string dir = Dir("threshold");
  LiveGraph::Options options = NoCompactor();
  options.delta_events_threshold = 4;
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, options);
  ASSERT_TRUE(live.ok()) << live.status();
  for (const std::vector<Event>& batch : Workload()) {
    ASSERT_TRUE((*live)->Append(batch).ok());
  }
  // The compactor runs asynchronously; wait for a generation to land.
  // Check for ANY gen-*.tgs, not gen-000001.tgs specifically: the
  // workload can trip the threshold more than once, and each compaction
  // unlinks the generations it supersedes — polling for a fixed name
  // races that cleanup (observed deterministically under TSan, where
  // both compactions finish inside the first poll interval).
  bool compacted = false;
  for (int i = 0; i < 200 && !compacted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("gen-", 0) == 0 && name.ends_with(".tgs")) {
        compacted = true;
      }
    }
  }
  EXPECT_TRUE(compacted) << "no generation appeared within 2s";
  std::shared_ptr<const LiveSnapshot> snap = (*live)->snapshot();
  Result<const VeGraph*> merged = snap->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(testing::Canonical(**merged),
            testing::Canonical(OfflineBuild(Workload(), (*live)->horizon())));
  ASSERT_TRUE((*live)->Close().ok());
}

TEST_F(LiveGraphTest, RegistrySharesOneGraphPerDir) {
  std::string dir = Dir("registry");
  LiveGraphRegistry registry(testing::Ctx());
  LiveGraph::Options options;
  options.sync = false;
  options.delta_events_threshold = 0;
  registry.set_options(options);
  Result<LiveGraph*> a = registry.GetOrOpen(dir);
  ASSERT_TRUE(a.ok()) << a.status();
  Result<LiveGraph*> b = registry.GetOrOpen(dir);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(registry.Find(dir), *a);
  EXPECT_EQ(registry.Find(dir + "_other"), nullptr);
  ASSERT_TRUE((*a)->Append({AddVertex(1, 10, {})}).ok());
  registry.CloseAll();
  EXPECT_EQ(registry.Find(dir), nullptr);
}

// "d", "d/" and "./d" name one directory, so they reach one LiveGraph and
// one WAL: with all three open before any append, each append still gets
// its own sequence number and every acknowledged batch survives a
// reopen. (A relative spelling, since only relative paths can start with
// "./".)
TEST_F(LiveGraphTest, RegistryKeysEverySpellingOfADirOnce) {
  const std::string dir = fs::relative(Dir("spellings")).string();
  const std::vector<std::string> spellings = {dir, dir + "/", "./" + dir};
  {
    LiveGraphRegistry registry(testing::Ctx());
    registry.set_options(NoCompactor());
    std::vector<LiveGraph*> graphs;
    for (const std::string& spelling : spellings) {
      Result<LiveGraph*> live = registry.GetOrOpen(spelling);
      ASSERT_TRUE(live.ok()) << live.status();
      graphs.push_back(*live);
    }
    for (size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(graphs[i], graphs[0]) << spellings[i];
      Result<uint64_t> seq = graphs[i]->Append(
          {AddVertex(static_cast<int64_t>(i) + 1,
                     static_cast<TimePoint>(i) + 1, {})});
      ASSERT_TRUE(seq.ok()) << seq.status();
      EXPECT_EQ(*seq, i + 1) << spellings[i];
    }
    registry.CloseAll();
  }
  Result<std::unique_ptr<LiveGraph>> reopened =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Result<const VeGraph*> merged = (*reopened)->snapshot()->Graph();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ((*merged)->vertices().Count(),
            static_cast<int64_t>(spellings.size()));
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(LiveGraphTest, WalPathForSeparatesWalDevice) {
  EXPECT_EQ(WalPathFor("/data/g", ""), "/data/g/wal");
  std::string a = WalPathFor("/data/g", "/wals");
  std::string b = WalPathFor("/data/other", "/wals");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("/wals/", 0), 0u) << a;
  EXPECT_NE(a.find("g-"), std::string::npos) << a;
  EXPECT_EQ(WalPathFor("/data/g/", "/wals"), a);
  EXPECT_EQ(WalPathFor("/data/./g", "/wals"), a);
}

TEST_F(LiveGraphTest, IsLiveDirDetection) {
  std::string dir = Dir("detect");
  EXPECT_FALSE(IsLiveDir(dir));
  Result<std::unique_ptr<LiveGraph>> live =
      LiveGraph::Open(testing::Ctx(), dir, NoCompactor());
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->Close().ok());
  EXPECT_TRUE(IsLiveDir(dir));
}

}  // namespace
}  // namespace tgraph::ingest
