// adrec_e2e_trace — the traced run of the adrec-e2e benchmark: per-layer
// numbers, measured from outside the program.
//
//   adrec_e2e_trace --workload=NAME --seed=N --seconds=S --adrecd=PATH
//                   --work=DIR --out=DIR [--smoke]
//
//  1. Loaded wire segment: the gated run's warm-up and first open-loop
//     segment against a fresh adrecd. `stats` deltas give the pool, cache
//     and WAL ratios, /proc the daemon's CPU time per op; the generator
//     gives its lateness.
//  2. Serial wire probe: against another fresh adrecd, 200 pings, then
//     the gated run's refresh (ad churn, analyses, matches) and the
//     workload's first 2,000 ops, one at a time over one connection.
//  3. In-process replay: the same sequence through the modules adrecd
//     runs on it, on an engine built the way adrecd builds its own: the
//     engine and its index, the result cache where the workload has one,
//     and where it has a WAL, a scratch ShardedWal and three checkpoints
//     at the end. Every result (status, and the scored ids of a topk or a
//     match) must equal adrecd's reply. Spans around the calls into each
//     module are kept in memory and written at exit to
//     <out>/<workload>.trace.json (Chrome trace format; Perfetto opens
//     it). Two replicas take turns op by op, one with spans off; the
//     difference in their time is what recording spans costs.
//
// Prints the per-layer table (count, p50, total and self time per span),
// then the per-layer metrics; the last stdout line is the JSON result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "annotate/kb_io.h"
#include "cache/topk_cache.h"
#include "common.h"
#include "core/sharded_engine.h"
#include "daemon.h"
#include "feed/trace_io.h"
#include "loadgen.h"
#include "reply.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "text/analyzer.h"
#include "timeline/time_slots.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"
#include "workload.h"

namespace e2e = adrec::e2e;
namespace fs = std::filesystem;
using adrec::Result;
using adrec::Status;
using adrec::Timestamp;

namespace {

constexpr const char* kTool = "adrec_e2e_trace";
constexpr size_t kSerialOps = 2000;
constexpr int kPings = 200;
constexpr int kCheckpoints = 3;

// --- Spans. ---

/// Perfetto rows: the op path, the annotate probe, per-shard analysis.
constexpr int kTrackOps = 1;
constexpr int kTrackProbe = 2;
constexpr int kTrackShard0 = 3;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the span list; -1 for a root
  int32_t op;      // index into the replayed sequence; -1 outside any op
  int32_t track;
};

/// In-memory span recorder. Off, it records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int32_t Begin(const char* name, int32_t op, int32_t track = kTrackOps) {
    if (!on_) return -1;
    spans_.push_back({name, e2e::NowNs(), 0,
                      open_.empty() ? -1 : open_.back(), op, track});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t id) {
    if (id < 0) return;
    spans_[id].end_ns = e2e::NowNs();
    open_.pop_back();
  }
  /// Records an interval measured elsewhere, under `parent`.
  void Add(const char* name, int64_t start, int64_t end, int32_t parent,
           int32_t op, int32_t track) {
    if (on_) spans_.push_back({name, start, end, parent, op, track});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name, int32_t op, int32_t track = kTrackOps)
      : t_(t), id_(t->Begin(name, op, track)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

const char* OpSpanName(e2e::OpKind kind) {
  switch (kind) {
    case e2e::OpKind::kTopK: return "op.topk";
    case e2e::OpKind::kTweet: return "op.tweet";
    case e2e::OpKind::kCheckIn: return "op.checkin";
    case e2e::OpKind::kAdPut: return "op.adput";
    case e2e::OpKind::kAdDel: return "op.addel";
    case e2e::OpKind::kMatch: return "op.match";
    case e2e::OpKind::kAnalyze: return "op.analyze";
  }
  return "op.other";
}

// --- The in-process replica. ---

using Scored = std::vector<std::pair<uint32_t, double>>;

/// What one op returned, as the replay compares it with adrecd's reply:
/// the status, and for a topk or a match the scored ids in order.
struct Outcome {
  enum class Kind { kOk, kNotFound, kError };
  Kind kind = Kind::kOk;
  Scored items;
  bool operator==(const Outcome&) const = default;
};

Outcome FromStatus(const Status& st) {
  if (st.ok()) return {};
  return {st.code() == adrec::StatusCode::kNotFound ? Outcome::Kind::kNotFound
                                                    : Outcome::Kind::kError,
          {}};
}

Outcome FromReply(const e2e::Reply& reply) {
  switch (reply.kind) {
    case e2e::Reply::Kind::kOk:
      return {};
    case e2e::Reply::Kind::kList:
      return {Outcome::Kind::kOk, reply.items};
    case e2e::Reply::Kind::kFailure:
      if (reply.head == "NOT_FOUND") return {Outcome::Kind::kNotFound, {}};
      break;
    case e2e::Reply::Kind::kMalformed:
      break;
  }
  return {Outcome::Kind::kError, {}};
}

std::string Describe(const Outcome& o) {
  switch (o.kind) {
    case Outcome::Kind::kOk:
      return o.items.empty() ? "ok" : std::to_string(o.items.size()) +
                                          " items, first id " +
                                          std::to_string(o.items[0].first);
    case Outcome::Kind::kNotFound:
      return "not found";
    case Outcome::Kind::kError:
      break;
  }
  return "error";
}

/// An engine built the way adrecd builds its own from the same flags,
/// the cache and the WAL where the workload has them, and a separate
/// annotator for the probe.
struct Replica {
  std::shared_ptr<adrec::text::Analyzer> analyzer;
  std::shared_ptr<adrec::annotate::KnowledgeBase> kb;
  std::unique_ptr<adrec::core::ShardedEngine> engine;
  Timestamp clock = 0;  // adrecd's stream clock: newest ingest time seen
  std::unique_ptr<adrec::cache::TopkCache> cache;
  /// The cache hands back a payload per entry on a hit; adrecd keeps its
  /// wire reply there, the replay the index of the result it filled.
  std::vector<Scored> fills;
  std::unique_ptr<adrec::wal::ShardedWal> wal;
  std::unique_ptr<adrec::wal::CheckpointManager> checkpoints;
  std::shared_ptr<adrec::text::Analyzer> probe_analyzer;
  std::unique_ptr<adrec::annotate::KnowledgeBase> probe_kb;
  std::unique_ptr<adrec::annotate::SpotlightAnnotator> probe;
  uint64_t postings_scanned = 0;
  uint64_t index_queries = 0;
};

Result<std::unique_ptr<adrec::annotate::KnowledgeBase>> LoadKb(
    const std::string& dir, adrec::text::Analyzer* analyzer) {
  return adrec::annotate::ReadKnowledgeBase(dir + "/kb.tsv", analyzer);
}

/// WAL workload only: `recovery_dir` is a private copy of the seeded log,
/// `scratch_wal` where the replay logs its own writes.
Result<std::unique_ptr<Replica>> BuildReplica(const e2e::WorkloadSpec& spec,
                                              const e2e::Inputs& in,
                                              const std::string& recovery_dir,
                                              const std::string& scratch_wal) {
  auto r = std::make_unique<Replica>();
  const std::string& dir = spec.wal ? in.kb_dir : in.data_dir;
  r->analyzer = std::make_shared<adrec::text::Analyzer>();
  auto kb = LoadKb(dir, r->analyzer.get());
  if (!kb.ok()) return kb.status();
  r->kb = std::shared_ptr<adrec::annotate::KnowledgeBase>(
      std::move(kb).value().release());
  r->engine = std::make_unique<adrec::core::ShardedEngine>(
      r->kb, adrec::timeline::TimeSlotScheme::PaperScheme(), spec.shards);
  if (spec.wal) {
    adrec::wal::CheckpointManager recovery(recovery_dir);
    auto recovered = recovery.Recover(r->engine.get(), spec.shards);
    if (!recovered.ok()) return recovered.status();
    r->clock = recovered.value().max_event_time;
  } else {
    auto ads = adrec::feed::ReadAds(in.data_dir + "/ads.tsv");
    if (!ads.ok()) return ads.status();
    for (const adrec::feed::Ad& ad : ads.value()) {
      ADREC_RETURN_NOT_OK(r->engine->InsertAd(ad));
    }
    auto trace = adrec::feed::ReadTrace(in.data_dir + "/trace.tsv");
    if (!trace.ok()) return trace.status();
    for (const auto& c : trace.value().check_ins) r->engine->OnCheckIn(c);
    for (const auto& t : trace.value().tweets) r->engine->OnTweet(t);
  }
  if (spec.topk_cache > 0) {
    adrec::cache::TopkCacheOptions options;
    options.capacity = spec.topk_cache;
    r->cache = std::make_unique<adrec::cache::TopkCache>(options);
  }
  if (spec.wal) {
    adrec::wal::WalOptions wal_options;
    wal_options.shards = spec.shards;
    auto wal = adrec::wal::ShardedWal::Open(scratch_wal, wal_options);
    if (!wal.ok()) return wal.status();
    r->wal = std::move(wal).value();
    r->checkpoints =
        std::make_unique<adrec::wal::CheckpointManager>(scratch_wal);
  }
  r->probe_analyzer = std::make_shared<adrec::text::Analyzer>();
  auto probe_kb = LoadKb(dir, r->probe_analyzer.get());
  if (!probe_kb.ok()) return probe_kb.status();
  r->probe_kb = std::move(probe_kb).value();
  r->probe = std::make_unique<adrec::annotate::SpotlightAnnotator>(
      r->probe_kb.get());
  return r;
}

Outcome ExecuteTopK(Replica* r, Tracer* t, const adrec::serve::Request& req,
                    int32_t i) {
  adrec::feed::Tweet query = req.tweet;
  if (!req.has_time) query.time = r->clock;
  adrec::cache::TopkKey key;
  if (r->cache != nullptr) {
    Scope s(t, "cache.find", i);
    key.user = query.user.value;
    key.time = query.time;
    key.k = static_cast<uint32_t>(req.k);
    key.text = query.text;
    // A hit charges its ads through the engine, like a recomputation,
    // and so reshapes the user's other entries under frequency caps.
    if (auto* entry = r->cache->Find(key)) {
      if (r->engine->ChargeCachedTopK(query, entry->ads)) {
        r->cache->RecordHit(entry);
        Outcome hit{Outcome::Kind::kOk, r->fills[std::stoul(entry->reply)]};
        if (!entry->ads.empty() && r->engine->frequency_cap_enabled()) {
          r->cache->OnUserCharged(query.user, key);
        }
        return hit;
      }
      r->cache->RecordRevalidationMiss(entry);
    } else {
      r->cache->RecordMiss();
    }
  }
  std::vector<adrec::index::ScoredAd> ads;
  {
    Scope s(t, "engine.topk", i);
    ads = r->engine->TopKAdsForTweet(query, req.k);
  }
  r->postings_scanned += r->engine->shard(r->engine->ShardOf(query.user))
                             .ad_index()
                             .last_postings_scanned();
  ++r->index_queries;
  Outcome out;
  for (const auto& sa : ads) out.items.emplace_back(sa.ad.value, sa.score);
  if (r->cache != nullptr) {
    Scope s(t, "cache.fill", i);
    const adrec::core::TopkContext ctx = r->engine->TopkContextFor(query);
    std::vector<adrec::AdId> ids;
    for (const auto& sa : ads) ids.push_back(sa.ad);
    const bool charged = !ids.empty();
    r->cache->Insert(key, std::to_string(r->fills.size()), std::move(ids),
                     ctx.location, ctx.slot);
    r->fills.push_back(out.items);
    if (charged && r->engine->frequency_cap_enabled()) {
      r->cache->OnUserCharged(query.user, key);
    }
  }
  return out;
}

/// Runs one analysis shard by shard, with TFCA's own phase timings as
/// children of each shard's span.
Status ExecuteAnalyze(Replica* r, Tracer* t, int32_t i) {
  for (size_t s = 0; s < r->engine->num_shards(); ++s) {
    const int track = kTrackShard0 + static_cast<int>(s);
    Scope shard(t, "tfca.shard", i, track);
    const int64_t begin = e2e::NowNs();
    ADREC_RETURN_NOT_OK(r->engine->RunAnalysisOnShard(s, -1.0));
    const auto& p = r->engine->shard(s).analysis().phase_timings();
    int64_t at = begin;
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"tfca.build", p.build_context_ms},
          {"tfca.trias_location", p.trias_location_ms},
          {"tfca.trias_topic", p.trias_topic_ms},
          {"tfca.decode", p.decode_ms}}) {
      const int64_t end = at + static_cast<int64_t>(ms * 1e6);
      t->Add(name, at, end, shard.id(), i, track);
      at = end;
    }
  }
  return Status::OK();
}

/// Logs a write where ShardedWal's layout puts it: a tweet or checkin in
/// its user's shard's stream, an ad op in every stream.
Status Append(Replica* r, const adrec::serve::Request& req,
              const std::string& line) {
  using adrec::serve::Verb;
  const size_t streams = r->wal->num_streams();
  size_t only = streams;  // every stream
  if (req.verb == Verb::kTweet) only = r->engine->ShardOf(req.tweet.user);
  if (req.verb == Verb::kCheckIn) only = r->engine->ShardOf(req.check_in.user);
  for (size_t s = 0; s < streams; ++s) {
    if (only < streams && s != only) continue;
    ADREC_RETURN_NOT_OK(r->wal->stream(s)->AppendDeferred(line).status());
  }
  return Status::OK();
}

/// One op through the modules adrecd runs it through, in its order:
/// parse, WAL append, cache and engine, WAL commit.
Outcome Execute(Replica* r, Tracer* t, const e2e::Op& op, int32_t i) {
  using adrec::serve::Verb;
  Outcome out;
  {
    Scope root(t, OpSpanName(op.kind), i);
    Result<adrec::serve::Request> parsed = Status::OK();
    {
      Scope s(t, "serve.parse", i);
      parsed = adrec::serve::ParseRequest(op.line);
    }
    if (!parsed.ok()) return FromStatus(parsed.status());
    const adrec::serve::Request& req = parsed.value();
    const bool logged =
        r->wal != nullptr &&
        (req.verb == Verb::kTweet || req.verb == Verb::kCheckIn ||
         req.verb == Verb::kAdPut || req.verb == Verb::kAdDel);
    if (logged) {
      Scope s(t, "wal.append", i);
      if (Status st = Append(r, req, op.line); !st.ok()) return FromStatus(st);
    }
    switch (req.verb) {
      case Verb::kTweet: {
        {
          Scope s(t, "engine.ingest", i);
          r->engine->OnTweet(req.tweet);
        }
        if (r->cache != nullptr) r->cache->OnTweet(req.tweet.user);
        r->clock = std::max(r->clock, req.tweet.time);
        break;
      }
      case Verb::kCheckIn: {
        {
          Scope s(t, "engine.ingest", i);
          r->engine->OnCheckIn(req.check_in);
        }
        if (r->cache != nullptr) {
          r->cache->OnCheckIn(req.check_in.user, req.check_in.location);
        }
        r->clock = std::max(r->clock, req.check_in.time);
        break;
      }
      case Verb::kAdPut: {
        Status st;
        {
          Scope s(t, "index.update", i);
          st = r->engine->InsertAd(req.ad);
        }
        if (r->cache != nullptr && st.ok()) {
          r->cache->OnAdPut(req.ad.target_locations, req.ad.target_slots);
        }
        out = FromStatus(st);
        break;
      }
      case Verb::kAdDel: {
        // The cache's fan-out needs the targeting the store forgets.
        const adrec::ads::StoredAd* stored = r->engine->FindAd(req.ad_id);
        const adrec::feed::Ad targeting =
            stored != nullptr ? stored->ad : adrec::feed::Ad{};
        Status st;
        {
          Scope s(t, "index.update", i);
          st = r->engine->RemoveAd(req.ad_id);
        }
        if (r->cache != nullptr && stored != nullptr && st.ok()) {
          r->cache->OnAdRemoved(targeting.target_locations,
                                targeting.target_slots);
        }
        out = FromStatus(st);
        break;
      }
      case Verb::kTopK:
        out = ExecuteTopK(r, t, req, i);
        break;
      case Verb::kMatch: {
        Result<adrec::core::MatchResult> m = Status::OK();
        {
          Scope s(t, "engine.match", i);
          m = r->engine->RecommendUsers(req.ad_id);
        }
        out = FromStatus(m.status());
        if (m.ok()) {
          for (const auto& u : m.value().users) {
            out.items.emplace_back(u.user.value, u.score);
          }
        }
        break;
      }
      case Verb::kAnalyze:
        out = FromStatus(ExecuteAnalyze(r, t, i));
        break;
      default:
        out = {Outcome::Kind::kError, {}};
        break;
    }
    if (logged) {
      Scope s(t, "wal.commit", i);
      if (Status st = r->wal->CommitAll(); !st.ok()) out = FromStatus(st);
    }
  }
  // The annotation probe: the annotator on the op's text, outside the op
  // span so the op's own time stays what adrecd spends.
  const bool has_text = op.kind == e2e::OpKind::kTweet ||
                        (op.kind == e2e::OpKind::kTopK &&
                         op.line.find('\t', op.line.find('\t', 5) + 1) !=
                             std::string::npos);
  if (has_text) {
    const size_t at = op.line.rfind('\t');
    Scope s(t, "annotate.annotate", i, kTrackProbe);
    (void)r->probe->Annotate(std::string_view(op.line).substr(at + 1));
  }
  return out;
}

struct ReplayResult {
  /// Replay time of every op but the analysis, whose own noise would
  /// swamp the cost of recording spans, with spans off and on.
  double plain_seconds = 0.0;
  double traced_seconds = 0.0;
  size_t mismatches = 0;
  std::string first_mismatch;
  uint64_t postings_scanned = 0;
  uint64_t index_queries = 0;
};

std::unique_ptr<Replica> MustBuildReplica(const e2e::WorkloadSpec& spec,
                                          const e2e::Inputs& in,
                                          const std::string& seed_wal,
                                          const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (spec.wal) {
    fs::copy(seed_wal, dir + "/recovery", fs::copy_options::recursive, ec);
  }
  if (ec) e2e::Die("replica dir " + dir + ": " + ec.message());
  auto built = BuildReplica(spec, in, dir + "/recovery", dir + "/wal");
  if (!built.ok()) e2e::Die("replica: " + built.status().ToString());
  return std::move(built).value();
}

/// Replays `seq` through two replicas, one op at a time on each in turn:
/// `plain` with spans off, `traced` with spans into `tracer`. Taking turns
/// puts both under the same host conditions, so their time difference is
/// what recording spans costs. Every traced result is compared with
/// `wire`; the traced replica then takes the checkpoints, where the
/// workload has a WAL.
ReplayResult Replay(Replica* plain, Replica* traced,
                    const std::vector<e2e::Op>& seq,
                    const std::vector<Outcome>& wire, Tracer* tracer) {
  Tracer off(false);
  ReplayResult out;
  int64_t plain_ns = 0, traced_ns = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    const int32_t op = static_cast<int32_t>(i);
    const bool timed = seq[i].kind != e2e::OpKind::kAnalyze;
    Outcome got;
    for (int turn = 0; turn < 2; ++turn) {
      const bool trace_turn = (turn == 0) == (i % 2 == 0);
      const int64_t t0 = e2e::NowNs();
      if (trace_turn) {
        got = Execute(traced, tracer, seq[i], op);
      } else {
        (void)Execute(plain, &off, seq[i], op);
      }
      if (timed) (trace_turn ? traced_ns : plain_ns) += e2e::NowNs() - t0;
    }
    if (got != wire[i] && out.mismatches++ == 0) {
      out.first_mismatch = "op " + std::to_string(i) + " '" +
                           seq[i].line.substr(0, 60) + "': adrecd " +
                           Describe(wire[i]) + ", in-process " +
                           Describe(got);
    }
  }
  for (int c = 0; traced->checkpoints != nullptr && c < kCheckpoints; ++c) {
    Scope s(tracer, "checkpoint.save", -1);
    if (Status st = traced->checkpoints->Checkpoint(
            *traced->engine, traced->wal.get(), traced->clock);
        !st.ok()) {
      e2e::Die("checkpoint: " + st.ToString());
    }
  }
  out.plain_seconds = static_cast<double>(plain_ns) / 1e9;
  out.traced_seconds = static_cast<double>(traced_ns) / 1e9;
  out.postings_scanned = traced->postings_scanned;
  out.index_queries = traced->index_queries;
  return out;
}

/// The gated run's refresh, then the first ops of the workload.
std::vector<e2e::Op> SerialSequence(const e2e::Inputs& in) {
  std::vector<e2e::Op> seq = in.refresh_ops;
  seq.insert(seq.end(), in.open_ops.begin(),
             in.open_ops.begin() + std::min(kSerialOps, in.open_ops.size()));
  return seq;
}

// --- Reporting. ---

struct SpanStats {
  std::vector<double> durations_us;
  double self_us = 0.0;
};

std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double us =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    SpanStats& st = out[spans[i].name];
    st.durations_us.push_back(us);
    st.self_us += us - child_us[i];
  }
  return out;
}

void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  const char* tracks[] = {"", "op path", "annotate probe", "analysis shard 0",
                          "analysis shard 1"};
  for (int tid = 1; tid <= 4; ++tid) {
    f << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
      << tid << ", \"args\": {\"name\": \"" << tracks[tid] << "\"}},\n";
  }
  char buf[320];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d, "
                  "\"parent\": \"%s\"}}%s\n",
                  s.name, s.track, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                  s.parent >= 0 ? spans[s.parent].name : "",
                  i + 1 == spans.size() ? "" : ",");
    f << buf;
  }
  f << "]}\n";
}

}  // namespace

int Run(int argc, char** argv) {
  e2e::RunArgs args;
  if (!e2e::ParseRunArgs(argc, argv, kTool, &args)) return 2;
  if (args.out.empty()) e2e::Die("--out=DIR is required");
  const e2e::WorkloadSpec* spec = e2e::FindWorkload(args.workload);
  if (spec == nullptr) e2e::Die("unknown workload '" + args.workload + "'");
  const e2e::Plan plan = e2e::MakePlan(*spec, args.seconds, args.smoke);
  const e2e::ScratchDir scratch(
      args.work, spec->name + "-trace-" + std::to_string(args.seed));
  const std::string& root = scratch.path();
  auto generated = e2e::GenerateInputs(*spec, args.seed, plan, root);
  if (!generated.ok()) e2e::Die(generated.status().ToString());
  const e2e::Inputs& in = generated.value();
  const uint32_t max_user = static_cast<uint32_t>(spec->users);
  const std::string seed_wal = root + "/seed-wal";
  if (spec->wal) {
    if (auto st = e2e::WriteSeedLog(args.adrecd, *spec, in, seed_wal,
                                    root + "/seed.log");
        !st.ok()) {
      e2e::Die("seed run: " + st.ToString());
    }
  }
  auto start_daemon = [&](const std::string& name) {
    auto d = e2e::StartForWorkload(args.adrecd, *spec, in, seed_wal, root,
                                   name, true);
    if (!d.ok()) e2e::Die(d.status().ToString());
    return std::move(d).value();
  };
  uint64_t attempted = 0, failed = 0;
  bool correct = true;

  // 1. Loaded wire segment.
  std::map<std::string, double> before, after;
  std::vector<double> late;
  double recovered = 0;
  double cpu_us_per_op = NAN;
  {
    auto daemon = start_daemon("loaded");
    e2e::AdLiveness live(in.initial_ads, in.total_ads);
    e2e::LoadGenerator load(daemon->port(), &live, max_user);
    std::vector<e2e::OpRecord> rec(in.open_ops.size());
    const e2e::LoadResult warm = load.Open(
        in.open_ops, 0, plan.warm_n, spec->rate, e2e::NowNs() + 1'000'000, &rec);
    before = e2e::FetchStats(daemon->port());
    auto cpu_ns = [&] {
      auto ns = daemon->CpuNs();
      if (!ns.ok()) e2e::Die(ns.status().ToString());
      return ns.value();
    };
    const int64_t cpu_before = cpu_ns();
    const int64_t start = e2e::NowNs() + 1'000'000;
    const e2e::LoadResult seg =
        load.Open(in.open_ops, plan.warm_n, plan.warm_n + plan.seg_n,
                  spec->rate, start, &rec);
    cpu_us_per_op = static_cast<double>(cpu_ns() - cpu_before) / 1e3 /
                    static_cast<double>(seg.ok);
    after = e2e::FetchStats(daemon->port());
    for (size_t i = plan.warm_n; i < plan.warm_n + plan.seg_n; ++i) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i - plan.warm_n) *
                                       1e9 / spec->rate);
      if (rec[i].status == e2e::OpRecord::Status::kOk) {
        late.push_back(static_cast<double>(rec[i].sent_ns - due) / 1e3);
      }
    }
    for (const e2e::LoadResult& r : {warm, seg}) {
      attempted += r.sent;
      failed += r.failed;
      correct = correct && r.invalid == 0;
      if (!r.first_problem.empty()) {
        std::printf("loaded segment: %s\n", r.first_problem.c_str());
      }
    }
    if (spec->wal) recovered = daemon->StartupField("live_replayed");
    if (auto st = daemon->Stop(); !st.ok()) e2e::Die(st.ToString());
  }

  // 2. Serial wire probe.
  const std::vector<e2e::Op> seq = SerialSequence(in);
  std::vector<double> ping_us, topk_us, ingest_us;
  std::vector<Outcome> wire;
  {
    auto daemon = start_daemon("serial");
    adrec::serve::Client client;
    if (auto st = client.Connect("127.0.0.1", daemon->port()); !st.ok()) {
      e2e::Die(st.ToString());
    }
    for (int p = 0; p < kPings; ++p) {
      const int64_t t0 = e2e::NowNs();
      if (auto st = client.Ping(); !st.ok()) e2e::Die("ping: " + st.ToString());
      ping_us.push_back(static_cast<double>(e2e::NowNs() - t0) / 1e3);
    }
    for (const e2e::Op& op : seq) {
      const int64_t t0 = e2e::NowNs();
      auto reply = client.Command(op.line);
      const double us = static_cast<double>(e2e::NowNs() - t0) / 1e3;
      if (!reply.ok()) e2e::Die("serial probe: " + reply.status().ToString());
      e2e::Reply parsed;
      if (e2e::TakeReply(reply.value() + "\n", &parsed) == 0) {
        parsed.kind = e2e::Reply::Kind::kMalformed;
      }
      wire.push_back(FromReply(parsed));
      ++attempted;
      if (parsed.kind == e2e::Reply::Kind::kFailure) ++failed;
      if (!e2e::CheckShape(op, parsed).empty()) correct = false;
      if (op.kind == e2e::OpKind::kTopK) topk_us.push_back(us);
      if (e2e::IsIngest(op.kind)) ingest_us.push_back(us);
    }
    client.Quit();
    if (auto st = daemon->Stop(); !st.ok()) e2e::Die(st.ToString());
  }

  // 3. In-process replay, spans off and on.
  Tracer on(true);
  ReplayResult traced;
  {
    const auto plain_replica =
        MustBuildReplica(*spec, in, seed_wal, root + "/replay-off");
    const auto traced_replica =
        MustBuildReplica(*spec, in, seed_wal, root + "/replay-on");
    traced = Replay(plain_replica.get(), traced_replica.get(), seq, wire, &on);
  }
  if (traced.mismatches > 0) {
    correct = false;
    std::printf("replay: %zu of %zu results differ from adrecd; first: %s\n",
                traced.mismatches, seq.size(), traced.first_mismatch.c_str());
  }
  std::error_code ec;
  fs::create_directories(args.out, ec);
  const std::string trace_path = args.out + "/" + spec->name + ".trace.json";
  WriteChromeTrace(on.spans(), trace_path);

  // The per-layer table.
  const std::map<std::string, SpanStats> layers = Summarize(on.spans());
  double self_total_us = 0;
  for (const auto& [name, st] : layers) self_total_us += st.self_us;
  std::printf(
      "adrec-e2e traced %s seed=%llu: %zu ops replayed in-process, results "
      "%s adrecd's; trace %s\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      seq.size(), traced.mismatches == 0 ? "equal to" : "DIFFER from",
      trace_path.c_str());
  std::printf("  %-22s %8s %12s %12s %12s %7s\n", "span", "count", "p50_us",
              "total_ms", "self_ms", "self%");
  for (const auto& [name, st] : layers) {
    double total = 0;
    for (double d : st.durations_us) total += d;
    std::printf("  %-22s %8zu %12.2f %12.3f %12.3f %6.1f%%\n", name.c_str(),
                st.durations_us.size(), e2e::Quantile(st.durations_us, 0.5),
                total / 1e3, st.self_us / 1e3, 100 * st.self_us / self_total_us);
  }

  // A layer the workload does not run (no cache, no WAL) reads 0.
  auto p50 = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : e2e::Quantile(it->second.durations_us, 0.5);
  };
  // The analysis rows are per analysis, summed over shards.
  const auto analyses = layers.find("op.analyze");
  const double num_analyses =
      analyses == layers.end() ? 0 : analyses->second.durations_us.size();
  auto per_analysis_ms = [&](const char* name) {
    const auto it = layers.find(name);
    double sum = 0;
    if (it != layers.end()) {
      for (double d : it->second.durations_us) sum += d;
    }
    return num_analyses > 0 ? sum / 1e3 / num_analyses : NAN;
  };
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double ingests = delta("serve.cmd_tweet") + delta("serve.cmd_checkin");
  const double served = delta("serve.cmd_topk") + ingests;
  const double ping = e2e::Quantile(ping_us, 0.5);
  const double topk_rtt = e2e::Quantile(topk_us, 0.5);
  const std::vector<e2e::Row> metrics = {
      {"serve.ping_rtt_us", ping, "us", "serial ping"},
      {"serve.cpu_us_per_op", cpu_us_per_op, "us",
       "adrecd CPU time per op, loaded segment"},
      {"serve.topk_rtt_us", topk_rtt, "us", "serial topk"},
      {"serve.ingest_rtt_us", e2e::Quantile(ingest_us, 0.5), "us",
       "serial tweet/checkin"},
      {"serve.unattributed_us", topk_rtt - ping - p50("op.topk"), "us",
       "serial topk rtt - ping - in-process topk"},
      {"serve.parse_us", p50("serve.parse"), "us", "span ParseRequest"},
      {"serve.forwarded_per_op", ratio(delta("serve.pool_forwarded"), served),
       "ratio", "stats, loaded segment"},
      {"cache.hit_ratio",
       ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses")),
       "ratio", "stats, loaded segment"},
      {"cache.invalidations_per_ingest", ratio(delta("cache.invalidations"), ingests),
       "ratio", "stats, loaded segment"},
      {"cache.find_us", p50("cache.find"), "us", "span TopkCache::Find"},
      {"serve.sheds", delta("serve.sheds"), "count", "stats, loaded segment"},
      {"engine.topk_us", p50("engine.topk"), "us", "span TopKAdsForTweet"},
      {"engine.ingest_us", p50("engine.ingest"), "us", "span OnTweet/OnCheckIn"},
      {"annotate.annotate_us", p50("annotate.annotate"), "us",
       "probe SpotlightAnnotator::Annotate"},
      {"index.postings_per_query",
       ratio(static_cast<double>(traced.postings_scanned),
             static_cast<double>(traced.index_queries)),
       "count", "AdIndex::last_postings_scanned"},
      {"index.update_us", p50("index.update"), "us", "span InsertAd/RemoveAd"},
      {"wal.append_us", p50("wal.append"), "us", "span AppendDeferred"},
      {"wal.commit_us", p50("wal.commit"), "us", "span CommitAll"},
      {"wal.records_per_fsync", ratio(delta("wal.appends"), delta("wal.fsyncs")),
       "ratio", "stats, loaded segment"},
      {"wal.bytes_per_event", ratio(delta("wal.append_bytes"), delta("wal.appends")),
       "B", "stats, loaded segment"},
      {"checkpoint.save_ms", p50("checkpoint.save") / 1e3, "ms",
       "CheckpointManager::Checkpoint"},
      {"recovery.records_replayed", recovered, "count", "adrecd startup"},
      {"tfca.analyze_ms", per_analysis_ms("tfca.shard"), "ms",
       "RunAnalysisOnShard, shards in turn"},
      {"tfca.build_ms", per_analysis_ms("tfca.build"), "ms", "phase_timings"},
      {"tfca.trias_location_ms", per_analysis_ms("tfca.trias_location"), "ms",
       "phase_timings"},
      {"tfca.trias_topic_ms", per_analysis_ms("tfca.trias_topic"), "ms",
       "phase_timings"},
      {"tfca.decode_ms", per_analysis_ms("tfca.decode"), "ms",
       "phase_timings"},
      {"engine.match_us", p50("engine.match"), "us", "span RecommendUsers"},
      {"gen.late_p50_us", e2e::Quantile(late, 0.5), "us", "loaded segment"},
      {"gen.late_p99_us", e2e::Quantile(late, 0.99), "us", "loaded segment"},
      {"trace.replay_ms", traced.plain_seconds * 1e3, "ms",
       "replayed ops but the analysis, spans off"},
      {"trace.overhead_pct",
       100 * (traced.traced_seconds / traced.plain_seconds - 1), "%",
       "the same, spans on vs off"},
  };
  e2e::PrintRows("per-layer:", metrics);
  for (const e2e::Row& r : metrics) {
    if (!std::isfinite(r.value)) e2e::Die("per-layer metric " + r.name + " missing");
  }
  std::printf("%s\n", e2e::ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

int main(int argc, char** argv) {
  return e2e::RunMain(kTool, [&] { return Run(argc, argv); });
}
