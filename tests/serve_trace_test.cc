// End-to-end flight-recorder coverage over real sockets: a WAL-backed
// daemon with a TraceCollector attached must produce, for every wire
// request, a span tree covering serve dispatch → engine stages → the
// WAL commit wave (and replica apply, for a follower pair) — plus the
// `trace` / `slow` / `conns` operational verbs that expose it.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "feed/workload.h"
#include "obs/trace.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

using std::chrono::steady_clock;

/// Finds the first trace whose captured request line starts with
/// `prefix`; nullptr when none does.
const obs::TraceRecord* FindTrace(const std::vector<obs::TraceRecord>& traces,
                                  std::string_view prefix) {
  for (const obs::TraceRecord& rec : traces) {
    if (StartsWith(rec.detail, prefix)) return &rec;
  }
  return nullptr;
}

/// Index (1-based span token) of the first span named `name`; 0 if none.
uint32_t SpanIndex(const obs::TraceRecord& rec, std::string_view name) {
  for (uint32_t i = 0; i < rec.num_spans; ++i) {
    if (rec.spans[i].name != nullptr && name == rec.spans[i].name) {
      return i + 1;
    }
  }
  return 0;
}

/// The structural invariants every exported trace must satisfy: spans
/// fit inside the root duration, children fit inside their parents, and
/// the children of any one parent sum to no more than that parent.
void CheckSpanTreeInvariants(const obs::TraceRecord& rec) {
  for (uint32_t i = 0; i < rec.num_spans; ++i) {
    const obs::SpanRecord& span = rec.spans[i];
    ASSERT_NE(span.name, nullptr);
    EXPECT_LE(span.start_ns + span.dur_ns, rec.dur_ns)
        << span.name << " escapes the root";
    ASSERT_LE(span.parent, rec.num_spans);
    ASSERT_NE(span.parent, i + 1) << span.name << " is its own parent";
    if (span.parent != 0) {
      const obs::SpanRecord& parent = rec.spans[span.parent - 1];
      EXPECT_GE(span.start_ns, parent.start_ns)
          << span.name << " starts before " << parent.name;
      EXPECT_LE(span.start_ns + span.dur_ns, parent.start_ns + parent.dur_ns)
          << span.name << " escapes " << parent.name;
    }
  }
  for (uint32_t parent = 0; parent <= rec.num_spans; ++parent) {
    uint64_t child_sum = 0;
    for (uint32_t i = 0; i < rec.num_spans; ++i) {
      if (rec.spans[i].parent == parent) child_sum += rec.spans[i].dur_ns;
    }
    const uint64_t budget =
        parent == 0 ? rec.dur_ns : rec.spans[parent - 1].dur_ns;
    EXPECT_LE(child_sum, budget) << "children of "
                                 << (parent == 0 ? "<root>"
                                                 : rec.spans[parent - 1].name)
                                 << " oversubscribe it";
  }
}

class ServeTraceTest : public ::testing::Test {
 protected:
  ServeTraceTest() {
    base_dir_ =
        (std::filesystem::temp_directory_path() /
         ("adrec_servetrace_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(base_dir_);
    std::filesystem::create_directories(base_dir_);

    opts_.seed = 717;
    opts_.num_users = 12;
    opts_.num_places = 8;
    opts_.num_ads = 3;
    opts_.days = 2;
    workload_ = feed::GenerateWorkload(opts_);
  }
  ~ServeTraceTest() override {
    StopServer();
    std::filesystem::remove_all(base_dir_);
  }

  /// Starts a WAL-backed daemon with the given collector (nullptr runs
  /// without tracing, for the disabled-verb test).
  void StartServer(obs::TraceCollector* tracer,
                   ServerOptions options = ServerOptions()) {
    engine_ = std::make_unique<core::ShardedEngine>(workload_.kb,
                                                    workload_.slots, 1);
    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    auto opened = wal::ShardedWal::Open(base_dir_ + "/wal", wal_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    wal_ = std::move(opened).value();

    options.wal = wal_.get();
    options.tracer = tracer;
    server_ = std::make_unique<Server>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { server_->Run(); });
  }

  void StopServer() {
    if (!server_) return;
    server_->RequestDrain();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    wal_.reset();
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  int RawConnect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  /// Keep-everything collector options: no sampling, nothing "slow".
  static obs::TraceCollectorOptions KeepAll() {
    obs::TraceCollectorOptions topts;
    topts.sample_every = 1;
    topts.slow_us = 1e12;
    return topts;
  }

  /// Collectors live in the fixture, not the test body: the fixture
  /// destructor joins the server thread (StopServer) before members are
  /// destroyed, whereas a TestBody local dies first and races with
  /// in-flight TraceCollector::Finish calls on the server thread.
  obs::TraceCollector& NewCollector(
      obs::TraceCollectorOptions topts = KeepAll()) {
    collectors_.push_back(std::make_unique<obs::TraceCollector>(topts));
    return *collectors_.back();
  }

  /// Drives one of each request shape through a connected client.
  void IngestAndQuery(Client* client) {
    ASSERT_TRUE(client->PutAd(workload_.ads[0]).ok());
    ASSERT_TRUE(client->SendTweet(workload_.tweets[0]).ok());
    ASSERT_TRUE(client->SendCheckIn(workload_.check_ins[0]).ok());
    auto topk = client->TopK(workload_.tweets[0].user, 3);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  }

  std::string base_dir_;
  feed::WorkloadOptions opts_;
  feed::Workload workload_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::unique_ptr<wal::ShardedWal> wal_;
  std::vector<std::unique_ptr<obs::TraceCollector>> collectors_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// The tentpole proof: a wire `tweet` yields a trace whose span tree
// covers serve (parse + dispatch) → engine (annotate, profile update)
// → WAL (append + the group-commit wave), with the engine stages nested
// under the dispatch span and everything inside the root duration.
TEST_F(ServeTraceTest, IngestTraceCoversServeEngineAndWal) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);

  const auto traces = collector.Recent();
  const obs::TraceRecord* tweet = FindTrace(traces, "tweet\t");
  ASSERT_NE(tweet, nullptr) << "no tweet trace in "
                            << obs::ExportTracesTsv(traces);
  CheckSpanTreeInvariants(*tweet);
  EXPECT_EQ(tweet->outcome, obs::TraceOutcome::kOk);

  const uint32_t parse = SpanIndex(*tweet, "serve.parse");
  const uint32_t append = SpanIndex(*tweet, "wal.append");
  const uint32_t dispatch = SpanIndex(*tweet, "serve.dispatch");
  const uint32_t annotate = SpanIndex(*tweet, "engine.annotate");
  const uint32_t profile = SpanIndex(*tweet, "engine.profile_update");
  const uint32_t wave = SpanIndex(*tweet, "wal.commit_wave");
  ASSERT_NE(parse, 0u);
  ASSERT_NE(append, 0u);
  ASSERT_NE(dispatch, 0u);
  ASSERT_NE(annotate, 0u);
  ASSERT_NE(profile, 0u);
  ASSERT_NE(wave, 0u);

  // Engine stages nest under the dispatch span; the serve-level spans
  // are children of the root.
  EXPECT_EQ(tweet->spans[annotate - 1].parent, dispatch);
  EXPECT_EQ(tweet->spans[profile - 1].parent, dispatch);
  EXPECT_EQ(tweet->spans[parse - 1].parent, 0u);
  EXPECT_EQ(tweet->spans[append - 1].parent, 0u);
  EXPECT_EQ(tweet->spans[wave - 1].parent, 0u);

  // The wave resolves after execution: the root duration extends to the
  // commit barrier, past the end of the dispatch span.
  const obs::SpanRecord& d = tweet->spans[dispatch - 1];
  EXPECT_GE(tweet->dur_ns, d.start_ns + d.dur_ns);
}

TEST_F(ServeTraceTest, QueryTraceNestsEngineTopkWithoutWalSpans) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);

  const auto traces = collector.Recent();
  const obs::TraceRecord* topk = FindTrace(traces, "topk\t");
  ASSERT_NE(topk, nullptr);
  CheckSpanTreeInvariants(*topk);

  const uint32_t dispatch = SpanIndex(*topk, "serve.dispatch");
  const uint32_t engine_topk = SpanIndex(*topk, "engine.topk");
  ASSERT_NE(dispatch, 0u);
  ASSERT_NE(engine_topk, 0u);
  EXPECT_EQ(topk->spans[engine_topk - 1].parent, dispatch);
  // Reads don't touch the log.
  EXPECT_EQ(SpanIndex(*topk, "wal.append"), 0u);
  EXPECT_EQ(SpanIndex(*topk, "wal.commit_wave"), 0u);
}

// `analyze` stops every lane; its body may run on another lane's
// thread, and its engine spans must still land in the request's trace,
// under the request's dispatch span.
TEST_F(ServeTraceTest, AnalyzeTraceCarriesSubPhaseSpans) {
  for (const size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto& collector = NewCollector();
    ServerOptions options;
    options.workers = workers;
    StartServer(&collector, options);
    Client client = Connected();
    IngestAndQuery(&client);
    ASSERT_TRUE(client.Analyze(0.45).ok());

    const auto traces = collector.Recent();
    const obs::TraceRecord* analyze = FindTrace(traces, "analyze");
    ASSERT_NE(analyze, nullptr);
    CheckSpanTreeInvariants(*analyze);
    const uint32_t analysis = SpanIndex(*analyze, "engine.analysis");
    ASSERT_NE(analysis, 0u);
    const uint32_t dispatch = SpanIndex(*analyze, "serve.dispatch");
    ASSERT_NE(dispatch, 0u);
    EXPECT_EQ(analyze->spans[analysis - 1].parent, dispatch);
    for (const char* phase :
         {"engine.analysis.build", "engine.analysis.trias_location",
          "engine.analysis.trias_topic", "engine.analysis.decode"}) {
      const uint32_t idx = SpanIndex(*analyze, phase);
      ASSERT_NE(idx, 0u) << phase;
      EXPECT_EQ(analyze->spans[idx - 1].parent, analysis) << phase;
    }
    client.Quit();
    StopServer();
    std::filesystem::remove_all(base_dir_ + "/wal");
  }
}

TEST_F(ServeTraceTest, TraceVerbReturnsTsvOverTheWire) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);

  auto tsv = client.Trace();
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  EXPECT_NE(tsv.value().find("TRACE\t"), std::string::npos);
  EXPECT_NE(tsv.value().find("SPAN\t"), std::string::npos);
  EXPECT_NE(tsv.value().find("engine.topk"), std::string::npos);
  EXPECT_NE(tsv.value().find("wal.commit_wave"), std::string::npos);
}

TEST_F(ServeTraceTest, TraceChromeOverTheWireIsLoadableJson) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);

  auto json = client.Trace(/*chrome=*/true);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const std::string& payload = json.value();
  EXPECT_EQ(payload.front(), '{');
  EXPECT_NE(payload.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(payload.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(payload.find("\"engine.annotate\""), std::string::npos);

  // Structurally valid JSON: balanced containers, no raw control bytes
  // outside strings (Perfetto's parser rejects both).
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < payload.size(); ++i) {
    const char c = payload[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      } else {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20u) << "ctrl at " << i;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') stack.push_back('}');
    if (c == '[') stack.push_back(']');
    if (c == '}' || c == ']') {
      ASSERT_FALSE(stack.empty());
      ASSERT_EQ(stack.back(), c);
      stack.pop_back();
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

TEST_F(ServeTraceTest, SlowThresholdPinsTracesIntoSlowLog) {
  obs::TraceCollectorOptions topts;
  topts.sample_every = 1000000;  // sampling alone would keep nothing
  topts.slow_us = 0.0;           // every request counts as slow
  auto& collector = NewCollector(topts);
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);

  auto slow = client.Slow();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_NE(slow.value().find("TRACE\t"), std::string::npos);
  EXPECT_NE(slow.value().find("\ttopk\t"), std::string::npos);
  EXPECT_GT(collector.metrics()
                .Snapshot()
                .counters.at("trace.traces_pinned_slow"),
            0);
}

TEST_F(ServeTraceTest, ParseErrorTraceIsPinnedWithReason) {
  obs::TraceCollectorOptions topts;
  topts.sample_every = 1000000;  // only the pinned path can retain it
  auto& collector = NewCollector(topts);
  StartServer(&collector);
  Client client = Connected();
  auto reply = client.Command("tweet\tnot-enough-fields");
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(StartsWith(reply.value(), "CLIENT_ERROR"));

  const auto slow = collector.Slow();
  const obs::TraceRecord* bad = FindTrace(slow, "tweet\tnot-enough");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->outcome, obs::TraceOutcome::kError);
  EXPECT_TRUE(StartsWith(bad->reason, "CLIENT_ERROR"))
      << "reason: " << bad->reason;
}

TEST_F(ServeTraceTest, ShedRequestIsPinnedWithBusyReason) {
  obs::TraceCollectorOptions topts;
  topts.sample_every = 1000000;
  auto& collector = NewCollector(topts);
  ServerOptions options;
  options.max_inflight_bytes = 0;  // any queued reply sheds the next cmd
  StartServer(&collector, options);

  // Pipelined pings over a raw socket: the first reply is still queued
  // when the later commands dispatch, so they shed.
  const int fd = RawConnect();
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "ping\r\n";
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  const obs::TraceRecord* shed = nullptr;
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  std::vector<obs::TraceRecord> slow;
  while (shed == nullptr && steady_clock::now() < deadline) {
    slow = collector.Slow();
    shed = FindTrace(slow, "ping");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  ASSERT_NE(shed, nullptr) << "no shed trace pinned";
  EXPECT_EQ(shed->outcome, obs::TraceOutcome::kShed);
  EXPECT_STREQ(shed->reason, "SERVER_ERROR busy");
}

TEST_F(ServeTraceTest, ConnsVerbReportsPerConnectionDiagnostics) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  ASSERT_TRUE(client.Ping().ok());

  auto reply = client.Command("conns");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const std::string& out = reply.value();
  EXPECT_TRUE(StartsWith(out, "CONNS ")) << out;
  EXPECT_NE(out.find("\nCONN "), std::string::npos);
  // The conns command itself is the connection's latest verb by the
  // time the report renders — self-observation.
  EXPECT_NE(out.find("last=conns"), std::string::npos);
  EXPECT_NE(out.find("cmds="), std::string::npos);
  EXPECT_NE(out.find("bytes_in="), std::string::npos);
  EXPECT_NE(out.find("flags=self"), std::string::npos);
}

TEST_F(ServeTraceTest, TraceVerbWithoutCollectorFailsCleanly) {
  StartServer(nullptr);
  Client client = Connected();
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_FALSE(client.Trace().ok());
  EXPECT_FALSE(client.Slow().ok());
  // conns needs no collector.
  auto conns = client.Command("conns");
  ASSERT_TRUE(conns.ok());
  EXPECT_TRUE(StartsWith(conns.value(), "CONNS "));
}

TEST_F(ServeTraceTest, TracerMetricsJoinTheExposition) {
  auto& collector = NewCollector();
  StartServer(&collector);
  Client client = Connected();
  IngestAndQuery(&client);
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("adrec_trace_traces_started_total"),
            std::string::npos);
}

// A replicated pair: every frame the follower applies gets its own
// trace — local wal.append, the shared commit wave, and the engine
// stages nested under replica.apply.
TEST_F(ServeTraceTest, ReplicaAppliedFramesAreTraced) {
  auto& leader_collector = NewCollector();
  StartServer(&leader_collector);

  // Follower daemon wired by hand, the same shape examples/adrecd.cpp
  // builds: own workload (same seed), own WAL, a Follower polled by its
  // own Server, and its own collector.
  feed::Workload follower_workload = feed::GenerateWorkload(opts_);
  auto follower_engine = std::make_unique<core::ShardedEngine>(
      follower_workload.kb, follower_workload.slots, 1);
  wal::WalOptions wal_options;
  wal_options.sync = wal::SyncPolicy::kNone;
  auto opened = wal::ShardedWal::Open(base_dir_ + "/wal_follower", wal_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<wal::ShardedWal> follower_wal = std::move(opened).value();

  auto& follower_collector = NewCollector();
  replica::FollowerOptions fopts;
  fopts.host = "127.0.0.1";
  fopts.port = server_->port();
  fopts.backoff_initial = 0.05;
  fopts.tracer = &follower_collector;
  auto follower = std::make_unique<replica::Follower>(
      follower_engine.get(), follower_wal.get(), 0, fopts);

  ServerOptions foptions;
  foptions.wal = follower_wal.get();
  foptions.followers = {follower.get()};
  auto follower_server =
      std::make_unique<Server>(follower_engine.get(), foptions);
  ASSERT_TRUE(follower_server->Start().ok());
  std::thread follower_thread([&] { follower_server->Run(); });

  // Ingest on the leader; the frames ship to the follower.
  Client client = Connected();
  IngestAndQuery(&client);

  const obs::TraceRecord* applied = nullptr;
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  std::vector<obs::TraceRecord> traces;
  while (applied == nullptr && steady_clock::now() < deadline) {
    traces = follower_collector.Recent();
    applied = FindTrace(traces, "tweet\t");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(applied, nullptr) << "follower never traced an applied frame";
  CheckSpanTreeInvariants(*applied);

  const uint32_t append = SpanIndex(*applied, "wal.append");
  const uint32_t wave = SpanIndex(*applied, "wal.commit_wave");
  const uint32_t apply = SpanIndex(*applied, "replica.apply");
  const uint32_t annotate = SpanIndex(*applied, "engine.annotate");
  EXPECT_NE(append, 0u);
  EXPECT_NE(wave, 0u);
  ASSERT_NE(apply, 0u);
  ASSERT_NE(annotate, 0u);
  EXPECT_EQ(applied->spans[annotate - 1].parent, apply);

  follower_server->RequestDrain();
  follower_thread.join();
  follower_server.reset();
  follower.reset();
  follower_wal.reset();
}

}  // namespace
}  // namespace adrec::serve
