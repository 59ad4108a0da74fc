// Concurrency test for view maintenance, written to run under TSan (the
// CI sanitizer matrix includes it): reader threads consume snapshots while
// ingest epochs publish, query-triggered refreshes race the epoch
// listener, and the LSM compactor swaps the base partition underneath.
// Asserted invariants:
//  - versions observed by any single reader are monotonically
//    non-decreasing (and watermarks move with them),
//  - every observed snapshot is internally consistent — its rendered
//    header matches its graph's record counts (no torn publish),
//  - concurrent QueryView calls through the registry never go backwards.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "test_util.h"
#include "tql/parser.h"
#include "view_test_util.h"
#include "views/registry.h"
#include "views/view.h"

namespace tgraph::views {
namespace {

using testing::Ctx;
using testing::FreshDir;
using testing::FuzzStream;
using testing::GroupZoom;
using testing::UnixNowUs;

std::vector<ingest::Event> FlattenedEvents(uint64_t seed, int num_events) {
  std::vector<ingest::Event> events;
  for (const auto& batch : FuzzStream(seed, num_events)) {
    events.insert(events.end(), batch.begin(), batch.end());
  }
  return events;
}

/// The rendered header embeds the vertex/edge record counts of the
/// snapshot's content; a snapshot whose header disagrees with its own
/// graph would mean a torn publish.
void ExpectInternallyConsistent(const ViewSnapshot& snapshot) {
  Result<TGraph> published = snapshot.Graph();
  ASSERT_TRUE(published.ok()) << published.status();
  Result<TGraph> ve = published->As(Representation::kVe);
  ASSERT_TRUE(ve.ok()) << ve.status();
  const std::string expected =
      std::to_string(ve->ve().NumVertexRecords()) + " vertex records, " +
      std::to_string(ve->ve().NumEdgeRecords()) + " edge records";
  EXPECT_NE(snapshot.rendered.find(expected), std::string::npos)
      << "rendered header does not match content: " << snapshot.rendered;
  EXPECT_EQ(snapshot.rendered.rfind("view v [", 0), 0u);
}

TEST(ViewConcurrency, ReadersDuringEpochPublishesAndCompactorSwaps) {
  std::string dir = FreshDir("conc_direct");
  ViewDefinition def;
  def.name = "v";
  def.source = dir;
  Pipeline pipeline;
  pipeline.AZoom(GroupZoom());
  MaterializedView view(Ctx(), def, pipeline, {});

  ingest::LiveGraph::Options options;
  options.delta_events_threshold = 0;  // no background compactor; we
                                       // compact explicitly mid-stream
  options.sync = false;
  options.horizon = 500;
  ingest::LiveGraph* live_ptr = nullptr;
  options.epoch_listener = [&view, &live_ptr](const std::string&,
                                              uint64_t) {
    EXPECT_TRUE(view.Refresh(live_ptr, UnixNowUs()).ok());
  };
  Result<std::unique_ptr<ingest::LiveGraph>> live =
      ingest::LiveGraph::Open(Ctx(), dir, options);
  ASSERT_TRUE(live.ok()) << live.status();
  live_ptr = live->get();

  const std::vector<ingest::Event> events = FlattenedEvents(11, 120);
  std::atomic<bool> done{false};

  // Readers: monotone versions and watermarks, no torn snapshots.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&view, &done] {
      uint64_t last_version = 0;
      TimePoint last_watermark = std::numeric_limits<TimePoint>::min();
      int consistency_checks = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ViewSnapshot> cur = view.Current();
        if (cur == nullptr) continue;
        EXPECT_GE(cur->version, last_version);
        EXPECT_GE(cur->watermark, last_watermark);
        last_version = cur->version;
        last_watermark = cur->watermark;
        if (++consistency_checks % 8 == 0) {
          ExpectInternallyConsistent(*cur);
        }
      }
      EXPECT_GT(last_version, 0u);
    });
  }

  // A second refresher racing the epoch listener, as query-triggered
  // refreshes do in the server.
  std::thread querier([&view, &live_ptr, &done] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(view.Refresh(live_ptr, UnixNowUs()).ok());
      std::this_thread::yield();
    }
  });

  for (size_t i = 0; i < events.size(); ++i) {
    Result<uint64_t> seq = live_ptr->Append({events[i]});
    ASSERT_TRUE(seq.ok()) << "event " << i << ": " << seq.status();
    if ((i + 1) % 30 == 0) {
      ASSERT_TRUE(live_ptr->Compact().ok()) << "event " << i;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  querier.join();

  std::shared_ptr<const ViewSnapshot> last = view.Current();
  ASSERT_NE(last, nullptr);
  ExpectInternallyConsistent(*last);
  EXPECT_EQ(last->source_epoch, live_ptr->epoch());
  ASSERT_TRUE((*live)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(ViewConcurrency, RegistryQueriesNeverGoBackwards) {
  std::string dir = FreshDir("conc_registry");
  ingest::LiveGraphRegistry live(Ctx());
  ViewRegistry registry(Ctx(), &live, {});
  ingest::LiveGraph::Options options;
  options.delta_events_threshold = 0;
  options.sync = false;
  options.epoch_listener = [&registry](const std::string& d, uint64_t e) {
    registry.OnEpoch(d, e);
  };
  live.set_options(options);
  Result<ingest::LiveGraph*> graph = live.GetOrOpen(dir, 500);
  ASSERT_TRUE(graph.ok()) << graph.status();

  Result<std::vector<tql::Statement>> create = tql::Parse(
      "create view v on '" + dir +
      "' as azoom by group aggregate count() as n;");
  ASSERT_TRUE(create.ok()) << create.status();
  ASSERT_TRUE(
      registry.CreateView(std::get<tql::CreateViewStatement>((*create)[0]))
          .ok());

  const std::vector<ingest::Event> events = FlattenedEvents(12, 100);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&registry, &done] {
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        uint64_t version = 0;
        Result<std::string> result = registry.QueryView("v", &version);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_FALSE(result->empty());
        EXPECT_GE(version, last_version);
        last_version = version;
      }
      EXPECT_GT(last_version, 0u);
    });
  }

  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE((*graph)->Append({events[i]}).ok()) << "event " << i;
    if ((i + 1) % 40 == 0) {
      ASSERT_TRUE((*graph)->Compact().ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // The listener kept the view at the source's epoch the whole time.
  EXPECT_EQ(registry.CurrentVersion("v"),
            registry.Find("v")->Current()->version);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tgraph::views
