#include <arpa/inet.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/graph_io.h"
#include "test_util.h"
#include "tql/interpreter.h"

namespace tgraph::server {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Minimal HTTP/1.0 GET against the metrics listener: sends the request,
/// returns the whole response (headers + body) or "" on any failure.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string ReadFileOrEmpty(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), f)) > 0) content.append(buffer, n);
  fclose(f);
  return content;
}

/// `script`'s output from a fresh interpreter reading from disk.
std::string FreshOutput(const std::string& script) {
  tql::Interpreter interpreter(testing::Ctx());
  Result<std::string> output = interpreter.ExecuteScript(script);
  EXPECT_TRUE(output.ok()) << output.status();
  return output.ok() ? *output : std::string();
}

/// Starts one tgraphd in-process on an ephemeral loopback port, backed by
/// the paper's Figure 1 graph written to a temp directory.
class ServerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/tgraphd_e2e_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    graph_dir_ = dir_ + "/fig1";
    ASSERT_TRUE(storage::WriteVeStore(testing::Figure1(), graph_dir_,
                                      storage::GraphWriteOptions())
                    .ok());
  }

  void TearDown() override {
    std::string cleanup = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
  }

  std::unique_ptr<Server> StartServer(ServerOptions options) {
    options.port = 0;  // ephemeral
    auto server = std::make_unique<Server>(testing::Ctx(), options);
    Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status;
    return server;
  }

  Client Connect(const Server& server) {
    Client client;
    Status status = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(status.ok()) << status;
    return client;
  }

  /// The same dataset through both zoom operators — the repeated-query
  /// workload the result cache exists for.
  std::string ZoomScript() const {
    return "LOAD '" + graph_dir_ +
           "' AS g;\n"
           "SET a = AZOOM g BY school AGGREGATE COUNT() AS students;\n"
           "SET w = WZOOM g WINDOW 2 NODES EXISTS EDGES EXISTS;\n"
           "INFO a;\n"
           "INFO w;";
  }

  std::string dir_;
  std::string graph_dir_;
};

TEST_F(ServerE2eTest, PingAndStatsRoundTrip) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);

  Result<Response> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->body, "pong");

  Result<Response> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->body.find("tgraphd port="), std::string::npos);
  EXPECT_NE(stats->body.find("server.requests"), std::string::npos);
}

TEST_F(ServerE2eTest, SecondIdenticalZoomQueryIsServedFromCache) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);

  int64_t hits_before = CounterValue(obs::metric_names::kCacheHits);

  Result<Response> first = client.Query(ZoomScript());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit());

  Result<Response> second = client.Query(ZoomScript());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit());
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(CounterValue(obs::metric_names::kCacheHits), hits_before + 1);
  EXPECT_GT(second->request_id, first->request_id);

  // Surface variation must not defeat the canonicalized-plan key.
  Result<Response> third = client.Query("  " + ZoomScript() + "\n");
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->cache_hit());
}

TEST_F(ServerE2eTest, NoCacheFlagBypassesTheCache) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  Result<Response> first = client.Query(ZoomScript(), /*no_cache=*/true);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<Response> second = client.Query(ZoomScript(), /*no_cache=*/true);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->cache_hit());
  EXPECT_EQ(server->cache().entries(), 0u);
  EXPECT_EQ(second->body, first->body);
}

TEST_F(ServerE2eTest, StoreScriptsAreNeverCached) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string script = "LOAD '" + graph_dir_ + "' AS g;\nSTORE g TO '" + dir_ +
                       "/out';";
  Result<Response> first = client.Query(script);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<Response> second = client.Query(script);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->cache_hit());
  EXPECT_EQ(server->cache().entries(), 0u);
}

// A STORE run by this server replaces the directory's graph for later
// LOADs: the catalog drops its reader and graphs for the directory and
// the result cache drops the results that LOADed it.
TEST_F(ServerE2eTest, LoadAfterStoreIntoTheSameDirectoryServesTheNewGraph) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  const std::string read = "LOAD '" + graph_dir_ + "' AS g;\nINFO g;";
  Result<Response> before = client.Query(read);
  ASSERT_TRUE(before.ok()) << before.status();
  Result<Response> cached = client.Query(read);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cached->cache_hit());

  Result<Response> store =
      client.Query("GENERATE snb(scale=0.02, seed=5) AS s;\nSTORE s TO '" +
                   graph_dir_ + "';");
  ASSERT_TRUE(store.ok()) << store.status();

  Result<Response> after = client.Query(read);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit());
  EXPECT_NE(after->body, before->body);
  // The same script in a fresh interpreter reads the new file from disk.
  tql::Interpreter fresh(testing::Ctx());
  Result<std::string> expected = fresh.ExecuteScript(read);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(after->body, *expected);
}

// A rewrite of a served directory by another process (`tgz save-store`
// writes through WriteVeStore) is seen by the next query: a cached script,
// the same script uncached and a range never loaded before all serve the
// new graph, and the result cached before the rewrite is never served.
TEST_F(ServerE2eTest, RewriteFromOutsideTheServerIsServedByTheNextQuery) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  const std::string read = "LOAD '" + graph_dir_ + "' AS g;\nINFO g;";
  const std::string ranged =
      "LOAD '" + graph_dir_ + "' FROM 2 TO 9 AS g;\nINFO g;";
  Result<Response> before = client.Query(read);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(client.Query(read)->cache_hit());

  ASSERT_TRUE(storage::WriteVeStore(testing::RandomTGraph(/*seed=*/3,
                                                          /*num_vertices=*/7),
                                    graph_dir_, storage::GraphWriteOptions())
                  .ok());
  const std::string expected = FreshOutput(read);
  ASSERT_NE(expected, before->body);

  Result<Response> after = client.Query(read);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit());
  EXPECT_EQ(after->body, expected);
  Result<Response> uncached = client.Query(read, /*no_cache=*/true);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  EXPECT_EQ(uncached->body, expected);
  Result<Response> never_loaded = client.Query(ranged);
  ASSERT_TRUE(never_loaded.ok()) << never_loaded.status();
  EXPECT_EQ(never_loaded->body, FreshOutput(ranged));
  Result<Response> again = client.Query(read);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->cache_hit());
  EXPECT_EQ(again->body, expected);
}

TEST_F(ServerE2eTest, MalformedQueryAnswersAnErrorNotACrash) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  Result<Response> bad = client.Query("SET = nonsense (((");
  EXPECT_FALSE(bad.ok());
  // The connection survives a bad script; the next request still works.
  Result<Response> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
}

TEST_F(ServerE2eTest, SaturatedQueueRejectsInsteadOfHanging) {
  ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  auto server = StartServer(options);

  // Occupy the only worker: a connection that sends nothing parks it in
  // ReadFrame. Poll until the worker owns it, so the setup is race-free.
  Client occupier = Connect(*server);
  while (server->active_count() < 1) std::this_thread::yield();

  // Fill the only queue slot the same way.
  Client queued = Connect(*server);
  while (server->pending_count() < 1) std::this_thread::yield();

  // The next connection must be refused with ResourceExhausted — a bounded
  // wait, not an unbounded hang.
  int64_t rejected_before = CounterValue(obs::metric_names::kServerRejected);
  Client overflow = Connect(*server);
  Result<Response> refused = overflow.Ping();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status();
  EXPECT_GE(CounterValue(obs::metric_names::kServerRejected),
            rejected_before + 1);
}

TEST_F(ServerE2eTest, DeadlineExceededAnswersCancelled) {
  ServerOptions options;
  options.deadline_ms = 1;
  auto server = StartServer(options);
  Client client = Connect(*server);

  int64_t exceeded_before =
      CounterValue(obs::metric_names::kServerDeadlineExceeded);
  // The first statement outlasts the 1 ms deadline; the cooperative check
  // before the second statement converts it to Cancelled.
  Result<Response> result =
      client.Query("GENERATE snb(scale = 0.5, seed = 3) AS g;\nINFO g;");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_EQ(CounterValue(obs::metric_names::kServerDeadlineExceeded),
            exceeded_before + 1);
}

TEST_F(ServerE2eTest, DrainStopsAcceptingAndFinishesCleanly) {
  auto server = StartServer(ServerOptions{});
  int port = server->port();

  Client busy = Connect(*server);
  Result<Response> result = busy.Query(ZoomScript());
  ASSERT_TRUE(result.ok()) << result.status();

  Client idle = Connect(*server);  // parked in a worker, mid-read
  while (server->active_count() < 2) std::this_thread::yield();

  server->Drain();
  EXPECT_FALSE(server->running());
  EXPECT_EQ(server->active_count(), 0);
  EXPECT_EQ(server->pending_count(), 0);

  // Nothing listens any more.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", port).ok());

  server->Drain();  // idempotent
}

TEST_F(ServerE2eTest, OperatorStatsPersistAcrossRestarts) {
  ServerOptions options;
  options.stats_path = dir_ + "/profile.stats";

  // First lifetime: queries populate the in-memory profile, Drain saves it.
  {
    auto server = StartServer(options);
    Client client = Connect(*server);
    Result<Response> result = client.Query(ZoomScript());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(server->stats().TotalObservations(), 0);

    Result<Response> stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_NE(stats->body.find("opt.stats observations="), std::string::npos);

    server->Drain();
  }

  // Second lifetime: Start warm-loads the saved profile before any query.
  {
    auto server = StartServer(options);
    EXPECT_GT(server->stats().TotalObservations(), 0);
    auto azoom =
        server->stats().Get(opt::OpKind::kAZoom, Representation::kVe);
    ASSERT_TRUE(azoom.has_value());
    EXPECT_GT(azoom->rows_in, 0);
    server->Drain();
  }

  // A corrupt profile degrades to a cold start, not a failed boot.
  {
    FILE* f = fopen(options.stats_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("not a stats profile\n", f);
    fclose(f);
    auto server = StartServer(options);
    EXPECT_EQ(server->stats().TotalObservations(), 0);
    server->Drain();
  }
}

TEST_F(ServerE2eTest, ConcurrentClientsShareCatalogAndCacheSafely) {
  ServerOptions options;
  options.workers = 4;
  options.queue_depth = 16;
  auto server = StartServer(options);

  const int kThreads = 4;
  const int kQueriesPerThread = 6;
  std::vector<std::string> first_bodies(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures[t] = kQueriesPerThread;
        return;
      }
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Odd requests bypass the cache so both the execute path and the
        // cache path run concurrently against the shared catalog.
        Result<Response> response =
            client.Query(ZoomScript(), /*no_cache=*/(i % 2) == 1);
        if (!response.ok()) {
          ++failures[t];
          continue;
        }
        if (first_bodies[t].empty()) {
          first_bodies[t] = response->body;
        } else if (response->body != first_bodies[t]) {
          ++failures[t];  // every repetition must agree
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(first_bodies[t], first_bodies[0]) << "thread " << t;
  }
  // One dataset, many sessions: the catalog held exactly one load.
  EXPECT_EQ(server->catalog().size(), 1u);
}

// Rewrites race concurrent cached and uncached reads of the directory:
// every response is the whole answer of one version of the store, and
// once the rewrites stop, every read serves the last one.
TEST_F(ServerE2eTest, ReadsRacingRewritesServeOneWholeVersionEach) {
  ServerOptions options;
  options.workers = 4;
  auto server = StartServer(options);
  const std::string read = "LOAD '" + graph_dir_ + "' AS g;\nINFO g;";
  const std::vector<VeGraph> versions = {
      testing::Figure1(), testing::RandomTGraph(/*seed=*/3,
                                                /*num_vertices=*/7)};
  std::vector<std::string> expected;
  for (const VeGraph& version : versions) {
    ASSERT_TRUE(storage::WriteVeStore(version, graph_dir_,
                                      storage::GraphWriteOptions())
                    .ok());
    expected.push_back(FreshOutput(read));
  }

  const int kThreads = 4;
  std::atomic<bool> done{false};
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures[t] = 1;
        return;
      }
      for (int i = 0; !done.load(); ++i) {
        Result<Response> response =
            client.Query(read, /*no_cache=*/(i % 2) == 1);
        if (!response.ok() ||
            std::find(expected.begin(), expected.end(), response->body) ==
                expected.end()) {
          ++failures[t];
        }
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(storage::WriteVeStore(versions[i % 2], graph_dir_,
                                      storage::GraphWriteOptions())
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  Client client = Connect(*server);
  EXPECT_EQ(client.Query(read)->body, expected[1]);
  EXPECT_EQ(client.Query(read, /*no_cache=*/true)->body, expected[1]);
}

TEST_F(ServerE2eTest, MetricsVerbServesPrometheusText) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  ASSERT_TRUE(client.Query(ZoomScript()).ok());

  Result<Response> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->body.find("# TYPE tgraph_server_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tgraph_server_query_count"),
            std::string::npos);
  // Histograms expose cumulative buckets plus sum and count.
  EXPECT_NE(metrics->body.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(metrics->body.find("_count"), std::string::npos);
  // No raw dotted metric names may leak into the exposition.
  EXPECT_EQ(metrics->body.find("server.requests"), std::string::npos);
}

TEST_F(ServerE2eTest, StatsJsonFlagReturnsParseableJson) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  ASSERT_TRUE(client.Query(ZoomScript()).ok());

  Result<Response> stats = client.Stats(/*json=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->body.front(), '{');
  EXPECT_EQ(stats->body.back(), '}');
  EXPECT_NE(stats->body.find("\"server\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"cache\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"opt_stats\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"metrics\":"), std::string::npos);

  // The plain-text report is still the default.
  Result<Response> text = client.Stats();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->body.find("tgraphd port="), std::string::npos);
}

TEST_F(ServerE2eTest, TraceFlagReturnsTheQuerysNestedSpans) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);

  Result<Response> traced =
      client.Query(ZoomScript(), /*no_cache=*/false, /*want_trace=*/true);
  ASSERT_TRUE(traced.ok()) << traced.status();
  ASSERT_TRUE(traced->has_trace());
  // Chrome trace JSON with the root query span and the per-query id on
  // every event (qid args are emitted by QueryTrace::ToChromeTraceJson).
  EXPECT_NE(traced->trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(traced->trace.find("\"tgraphd.query\""), std::string::npos);
  EXPECT_NE(traced->trace.find("\"qid\""), std::string::npos);
  // Operator spans nested under the query made it into the export.
  EXPECT_NE(traced->trace.find("tgraph.azoom"), std::string::npos);

  // Without the flag, no trace rides along.
  Result<Response> plain = client.Query(ZoomScript(), /*no_cache=*/true);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(plain->has_trace());
}

TEST_F(ServerE2eTest, SlowQueryLogRecordsStructuredEntries) {
  ServerOptions options;
  options.slow_query_log = dir_ + "/slow.jsonl";
  options.slow_query_ms = 0;  // everything is slow
  auto server = StartServer(options);
  Client client = Connect(*server);
  ASSERT_TRUE(client.Query(ZoomScript()).ok());
  ASSERT_TRUE(client.Query(ZoomScript()).ok());  // cache hit
  server->Drain();

  std::string log = ReadFileOrEmpty(options.slow_query_log);
  ASSERT_FALSE(log.empty());
  // One JSON object per line, carrying the query id, per-stage breakdown,
  // and cache disposition.
  EXPECT_NE(log.find("\"query_id\":\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"wall_us\":"), std::string::npos);
  EXPECT_NE(log.find("\"canonical\":\""), std::string::npos);
  EXPECT_NE(log.find("AZOOM g BY school"), std::string::npos);
  EXPECT_NE(log.find("\"cache\":\"miss\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"cache\":\"hit\""), std::string::npos) << log;
  // The miss entry carries executed stages; AZOOM ran.
  EXPECT_NE(log.find("\"label\":\"AZOOM\""), std::string::npos) << log;
}

/// "key=value" pairs of an EXPLAIN ANALYZE stage line ("  WZOOM g [VE]:
/// wall_us=12 rows_in=6 ...") or of the slow log's JSON for that stage
/// ({"label":"WZOOM",...,"wall_us":12,"rows_in":6,...}), without the wall
/// time, label and detail.
std::map<std::string, std::string> StageCounters(const std::string& text,
                                                 bool json) {
  std::map<std::string, std::string> fields;
  std::string body = text.substr(text.find(json ? "\"wall_us\"" : "wall_us"));
  for (char& c : body) {
    if (c == ',' || c == '}') c = ' ';
    if (json && c == ':') c = '=';
  }
  std::istringstream in(body);
  std::string token;
  while (in >> token) {
    token.erase(std::remove(token.begin(), token.end(), '"'), token.end());
    const size_t eq = token.find('=');
    if (eq == std::string::npos || token.compare(0, eq, "wall_us") == 0) {
      continue;
    }
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

// While another query runs, a slow-logged EXPLAIN ANALYZE's stage in the
// log carries exactly the counters its own report printed, and both equal
// a solo run: each reads the query's own counter block.
TEST_F(ServerE2eTest, SlowLogStagesMatchExplainAnalyzeUnderConcurrentLoad) {
  ServerOptions options;
  options.workers = 2;
  options.slow_query_log = dir_ + "/slow.jsonl";
  options.slow_query_ms = 0;  // everything is slow
  auto server = StartServer(options);
  Client client = Connect(*server);
  const std::string explain =
      "LOAD '" + graph_dir_ +
      "' AS g;\nEXPLAIN ANALYZE SET w = WZOOM g WINDOW 2 NODES EXISTS "
      "EDGES EXISTS;";
  std::vector<std::string> reports;
  Result<Response> solo = client.Query(explain);
  ASSERT_TRUE(solo.ok()) << solo.status();
  reports.push_back(solo->body);

  std::atomic<bool> stop{false};
  std::atomic<int> other_queries{0};
  std::thread other([&] {
    Client busy;
    if (!busy.Connect("127.0.0.1", server->port()).ok()) return;
    while (!stop.load()) {
      if (busy.Query("GENERATE snb(scale=0.05, seed=9) AS s;\n"
                     "SET a = AZOOM s BY firstName AGGREGATE COUNT() AS n;",
                     /*no_cache=*/true)
              .ok()) {
        ++other_queries;
      }
    }
  });
  while (other_queries.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    Result<Response> response = client.Query(explain);
    ASSERT_TRUE(response.ok()) << response.status();
    reports.push_back(response->body);
  }
  stop = true;
  other.join();
  server->Drain();

  std::vector<std::string> logged;  // WZOOM stage JSON, in query order
  std::istringstream log(ReadFileOrEmpty(options.slow_query_log));
  for (std::string line; std::getline(log, line);) {
    if (line.find("EXPLAIN ANALYZE") == std::string::npos) continue;
    const size_t stage = line.find("{\"label\":\"WZOOM\"");
    ASSERT_NE(stage, std::string::npos) << line;
    logged.push_back(line.substr(stage, line.find('}', stage) - stage + 1));
  }
  ASSERT_EQ(logged.size(), reports.size());
  std::map<std::string, std::string> solo_fields;
  for (size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const size_t stage = reports[i].find("  WZOOM g [VE]:");
    ASSERT_NE(stage, std::string::npos) << reports[i];
    const auto reported = StageCounters(
        reports[i].substr(stage, reports[i].find('\n', stage) - stage),
        /*json=*/false);
    EXPECT_EQ(StageCounters(logged[i], /*json=*/true), reported);
    EXPECT_TRUE(reported.count("shuffles") == 1) << reports[i];
    if (i == 0) solo_fields = reported;
    EXPECT_EQ(reported, solo_fields);
  }
}

ingest::Event AddVertexEvent(int64_t vid, TimePoint at) {
  ingest::Event event;
  event.kind = ingest::EventKind::kAddVertex;
  event.id = vid;
  event.at = at;
  event.props = Properties{{"type", "person"}};
  return event;
}

ingest::Event AddEdgeEvent(int64_t eid, VertexId src, VertexId dst,
                           TimePoint at) {
  ingest::Event event;
  event.kind = ingest::EventKind::kAddEdge;
  event.id = eid;
  event.src = src;
  event.dst = dst;
  event.at = at;
  event.props = Properties{{"type", "knows"}};
  return event;
}

TEST_F(ServerE2eTest, IngestVerbMakesEventsDurableAndQueryable) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";
  std::string script = "LOAD '" + live_dir + "' AS g;\nINFO g;";

  Result<Response> ack = client.Ingest(
      live_dir, {AddVertexEvent(1, 1), AddVertexEvent(2, 2),
                 AddEdgeEvent(9, 1, 2, 3)},
      /*horizon=*/100);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_NE(ack->body.find("ingested 3 events"), std::string::npos)
      << ack->body;
  EXPECT_NE(ack->body.find("seq=1"), std::string::npos) << ack->body;

  Result<Response> first = client.Query(script);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_NE(first->body.find("vertices=2 edges=1"), std::string::npos)
      << first->body;

  // A second batch advances the graph; the same script must answer with
  // the new state, not a stale cached result (the key carries the epoch).
  Result<Response> ack2 =
      client.Ingest(live_dir, {AddVertexEvent(3, 10)});
  ASSERT_TRUE(ack2.ok()) << ack2.status();
  EXPECT_NE(ack2->body.find("seq=2"), std::string::npos) << ack2->body;
  Result<Response> second = client.Query(script);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->cache_hit());
  EXPECT_NE(second->body.find("vertices=3 edges=1"), std::string::npos)
      << second->body;

  // The acked batches survive a server restart: the WAL replays on open.
  server->Drain();
  auto reborn = StartServer(ServerOptions{});
  Client again = Connect(*reborn);
  Result<Response> replayed = again.Query(script);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_NE(replayed->body.find("vertices=3 edges=1"), std::string::npos)
      << replayed->body;
}

TEST_F(ServerE2eTest, RejectedIngestBatchAnswersAnErrorAndChangesNothing) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";

  ASSERT_TRUE(
      client.Ingest(live_dir, {AddVertexEvent(1, 5)}, /*horizon=*/100).ok());

  // Timestamps must advance across batches: an event at the watermark is
  // rejected wholesale, along with everything riding in the same batch.
  Result<Response> stale = client.Ingest(
      live_dir, {AddVertexEvent(2, 5), AddVertexEvent(3, 6)});
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInvalidArgument()) << stale.status();

  Result<Response> info =
      client.Query("LOAD '" + live_dir + "' AS g;\nINFO g;");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_NE(info->body.find("vertices=1"), std::string::npos) << info->body;
  // The connection survives; the next well-formed batch is accepted.
  ASSERT_TRUE(client.Ingest(live_dir, {AddVertexEvent(2, 6)}).ok());
}

TEST_F(ServerE2eTest, IngestInvalidatesOnlyTheChangedGraphsCachedResults) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";
  std::string live_script = "LOAD '" + live_dir + "' AS g;\nINFO g;";

  ASSERT_TRUE(
      client.Ingest(live_dir, {AddVertexEvent(1, 1)}, /*horizon=*/100).ok());

  // Warm the cache with one result per graph.
  ASSERT_TRUE(client.Query(ZoomScript()).ok());
  ASSERT_TRUE(client.Query(live_script).ok());
  ASSERT_TRUE(client.Query(live_script)->cache_hit());
  size_t entries_before = server->cache().entries();
  ASSERT_GE(entries_before, 2u);

  // Ingesting into the live graph evicts its tagged entries — and only
  // its — so the static graph's result is still served from cache.
  ASSERT_TRUE(client.Ingest(live_dir, {AddVertexEvent(2, 2)}).ok());
  EXPECT_LT(server->cache().entries(), entries_before);
  Result<Response> fig1 = client.Query(ZoomScript());
  ASSERT_TRUE(fig1.ok()) << fig1.status();
  EXPECT_TRUE(fig1->cache_hit());
  Result<Response> live = client.Query(live_script);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_FALSE(live->cache_hit());
  EXPECT_NE(live->body.find("vertices=2"), std::string::npos) << live->body;
}

TEST_F(ServerE2eTest, ViewVerbLifecycleOverTheWire) {
  ServerOptions options;
  options.views_path = dir_ + "/views.tql";
  auto server = StartServer(options);
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";
  ASSERT_TRUE(client.Ingest(live_dir,
                            {AddVertexEvent(1, 1), AddVertexEvent(2, 2),
                             AddEdgeEvent(9, 1, 2, 3)},
                            /*horizon=*/100)
                  .ok());

  // Registration travels through the regular query verb (TQL DDL).
  Result<Response> created = client.Query(
      "CREATE VIEW people ON '" + live_dir +
      "' AS AZOOM BY type AGGREGATE COUNT() AS n;");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_NE(created->body.find("created view people"), std::string::npos)
      << created->body;

  // The dedicated view verb: empty name lists, a name serves.
  Result<Response> listed = client.View("");
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_NE(listed->body.find("people ON '" + live_dir + "'"),
            std::string::npos)
      << listed->body;
  Result<Response> first = client.View("people");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->body.rfind("view people [", 0), 0u) << first->body;
  EXPECT_NE(first->body.find("content "), std::string::npos);

  // New source epoch => refreshed content on the next read.
  ASSERT_TRUE(client.Ingest(live_dir, {AddVertexEvent(3, 10)}).ok());
  Result<Response> second = client.View("people");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(second->body, first->body);

  Result<Response> dropped = client.Query("DROP VIEW people;");
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  Result<Response> missing = client.View("people");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
  EXPECT_NE(client.View("")->body.find("no views"), std::string::npos);
}

TEST_F(ServerE2eTest, ViewQueriesCacheByVersionAndInvalidateOnDrop) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";
  ASSERT_TRUE(
      client.Ingest(live_dir, {AddVertexEvent(1, 1), AddVertexEvent(2, 2)},
                    /*horizon=*/100)
          .ok());
  ASSERT_TRUE(client
                  .Query("CREATE VIEW people ON '" + live_dir +
                         "' AS AZOOM BY type AGGREGATE COUNT() AS n;")
                  .ok());

  // Identical VIEW statements hit the cache; the key carries the served
  // view version.
  Result<Response> first = client.Query("VIEW people;");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit());
  Result<Response> again = client.Query("VIEW people;");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->cache_hit());
  EXPECT_EQ(again->body, first->body);

  // A new epoch bumps the view version: same script, fresh execution.
  ASSERT_TRUE(client.Ingest(live_dir, {AddVertexEvent(3, 10)}).ok());
  Result<Response> after = client.Query("VIEW people;");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit());
  EXPECT_NE(after->body, first->body);

  // DROP VIEW evicts the view's tagged entries.
  ASSERT_TRUE(client.Query("VIEW people;")->cache_hit());
  ASSERT_TRUE(client.Query("DROP VIEW people;").ok());
  Result<Response> gone = client.Query("VIEW people;");
  ASSERT_FALSE(gone.ok());
  EXPECT_TRUE(gone.status().IsNotFound()) << gone.status();
}

// A view registered on "d/" refreshes on the epoch an ingest through "d"
// publishes: both spellings name one live graph.
TEST_F(ServerE2eTest, ViewOnAnySpellingRefreshesOnTheSourcesEpoch) {
  auto server = StartServer(ServerOptions{});
  Client client = Connect(*server);
  std::string live_dir = dir_ + "/live";
  ASSERT_TRUE(
      client.Ingest(live_dir, {AddVertexEvent(1, 1), AddVertexEvent(2, 2)},
                    /*horizon=*/100)
          .ok());
  ASSERT_TRUE(client
                  .Query("CREATE VIEW people ON '" + live_dir +
                         "/' AS AZOOM BY type AGGREGATE COUNT() AS n;")
                  .ok());
  Result<Response> first = client.View("people");
  ASSERT_TRUE(first.ok()) << first.status();

  Result<Response> ack = client.Ingest(live_dir, {AddVertexEvent(3, 10)});
  ASSERT_TRUE(ack.ok()) << ack.status();
  const size_t at = ack->body.find(" epoch=");
  ASSERT_NE(at, std::string::npos) << ack->body;
  const std::string epoch =
      ack->body.substr(at, ack->body.find(' ', at + 1) - at);
  // The epoch's publication refreshed the view before anyone read it.
  Result<Response> listed = client.View("");
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_NE(listed->body.find(epoch + " "), std::string::npos)
      << listed->body << " lacks" << epoch;
  Result<Response> second = client.View("people");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(second->body, first->body);
}

TEST_F(ServerE2eTest, ViewsSurviveRestartAndConvergeByteIdentically) {
  ServerOptions options;
  options.views_path = dir_ + "/views.tql";
  std::string live_dir = dir_ + "/live";
  std::string body_before;

  {
    auto server = StartServer(options);
    Client client = Connect(*server);
    ASSERT_TRUE(client.Ingest(live_dir,
                              {AddVertexEvent(1, 1), AddVertexEvent(2, 2),
                               AddEdgeEvent(9, 1, 2, 3),
                               AddVertexEvent(3, 4)},
                              /*horizon=*/100)
                    .ok());
    ASSERT_TRUE(client
                    .Query("CREATE VIEW people ON '" + live_dir +
                           "' AS AZOOM BY type AGGREGATE COUNT() AS n;")
                    .ok());
    Result<Response> served = client.View("people");
    ASSERT_TRUE(served.ok()) << served.status();
    body_before = served->body;
    server->Drain();
  }

  // A reborn server re-registers the persisted definition and rebuilds
  // the view's state from the compacted store + WAL tail; the rendering
  // is version-free, so the result is byte-identical.
  {
    auto server = StartServer(options);
    Client client = Connect(*server);
    Result<Response> listed = client.View("");
    ASSERT_TRUE(listed.ok()) << listed.status();
    EXPECT_NE(listed->body.find("people ON"), std::string::npos)
        << listed->body;
    Result<Response> served = client.View("people");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->body, body_before);
    server->Drain();
  }
}

TEST_F(ServerE2eTest, MetricsPortServesPrometheusOverHttp) {
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  auto server = StartServer(options);
  ASSERT_GT(server->metrics_port(), 0);
  Client client = Connect(*server);
  ASSERT_TRUE(client.Query(ZoomScript()).ok());

  std::string response = HttpGet(server->metrics_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("tgraph_server_requests"), std::string::npos);

  std::string missing = HttpGet(server->metrics_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server->Drain();
  // The listener dies with the server.
  EXPECT_EQ(HttpGet(server->metrics_port(), "/metrics"), "");
}

}  // namespace
}  // namespace tgraph::server
