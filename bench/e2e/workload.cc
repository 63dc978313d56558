#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "annotate/kb_io.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "feed/loadgen.h"
#include "feed/trace_io.h"
#include "feed/workload.h"
#include "serve/protocol.h"

namespace adrec::e2e {

namespace {

constexpr size_t kPlaces = 64;
constexpr uint32_t kTopK = 5;
constexpr int kWarmDays = 2;
// One round's refresh. Every round matches the same ads, spread evenly
// over the inventory, so rounds differ only by noise.
constexpr size_t kRefreshChurnPairs = 20;
constexpr size_t kRefreshMatches = 50;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // Small inventory behind the result cache on one event loop: transport
  // and cache dominate, so a serve or cache change shows here and an
  // index change should not.
  WorkloadSpec feed;
  feed.name = "feed_cached";
  feed.users = 1000;
  feed.user_skew = 0.99;
  feed.ads = 200;
  feed.shards = 1;
  feed.workers = 1;
  feed.topk_cache = 4096;
  feed.rate = 8000;
  feed.closed_ops_per_s = 7500;
  feed.topk = 0.90;
  feed.tweet = 0.07;
  feed.checkin = 0.03;
  out.push_back(feed);

  // Ten times the inventory, flat user skew, no cache, two workers: the
  // index and annotation dominate topk, ad churn puts index writes (and
  // pool barriers) beside the reads, and half the requests cross
  // workers through the mailbox. The rate is about a sixth of the
  // closed-loop peak: at 1,500 ops/s, stretches where other tenants
  // halved the host's speed pushed whole rounds into queueing, with p50s
  // ten times the usual.
  WorkloadSpec inventory;
  inventory.name = "inventory_large";
  inventory.users = 2000;
  inventory.user_skew = 0.6;
  inventory.ads = 2000;
  inventory.rate = 1000;
  inventory.closed_ops_per_s = 500;
  inventory.topk = 0.93;
  inventory.tweet = 0.035;
  inventory.checkin = 0.015;
  inventory.churn = 0.02;
  inventory.topk_with_time = true;
  out.push_back(inventory);

  // Write-heavy with every acknowledgement behind WAL append and group
  // commit; checkpoints land inside the rounds and set-up is recovery.
  WorkloadSpec durable;
  durable.name = "durable_ingest";
  durable.wal = true;
  durable.rate = 2000;
  durable.closed_ops_per_s = 2500;
  durable.topk = 0.25;
  durable.tweet = 0.60;
  durable.checkin = 0.10;
  durable.churn = 0.05;
  out.push_back(durable);

  // The paper's macro-phase 2 beside the feed: a stop-the-world triadic
  // analysis opens every open-loop segment, so the topk tail prices the
  // stall. Matches stay in the refresh: any ingest after an analysis
  // makes the engine refuse them until the next one.
  WorkloadSpec analysis;
  analysis.name = "analysis_refresh";
  analysis.rate = 2000;
  analysis.closed_ops_per_s = 2500;
  analysis.topk = 0.78;
  analysis.tweet = 0.15;
  analysis.checkin = 0.07;
  analysis.topk_with_time = true;
  analysis.analyze_in_loop = true;
  out.push_back(analysis);
  return out;
}

/// Ad ids one churn stream may delete and put. The open-loop and the
/// closed-loop streams each own one, because their segments interleave at
/// run time in an order the generator cannot know: neither may delete an
/// ad the other put.
struct ChurnPool {
  std::vector<uint32_t> live;
  size_t next_fresh = 0;
  size_t end_fresh = 0;
  bool del_next = true;
};

Op AnalyzeOp() {
  Op op;
  op.kind = OpKind::kAnalyze;
  op.line = "analyze";
  return op;
}

Op MatchOp(uint32_t ad) {
  Op op;
  op.kind = OpKind::kMatch;
  op.ad = ad;
  op.line = serve::FormatMatchCmd(AdId(ad));
  return op;
}

Op AdPutOp(const feed::Ad& ad) {
  Op op;
  op.kind = OpKind::kAdPut;
  op.ad = ad.id.value;
  op.line = serve::FormatAdPutCmd(ad);
  return op;
}

Op AdDelOp(uint32_t ad) {
  Op op;
  op.kind = OpKind::kAdDel;
  op.ad = ad;
  op.line = serve::FormatAdDelCmd(AdId(ad));
  return op;
}

/// Draws the op stream: churn from the bench's own generator, topk /
/// tweet / checkin from feed::LoadGen (Zipf users, hot cells, one
/// stable phrase per user, a slowly advancing stream clock).
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed,
           const std::vector<feed::Ad>& ads, std::vector<std::string> phrases,
           Timestamp start)
      : spec_(spec),
        rng_(seed ^ 0x6f70737472656d31ull),
        load_(LoadOptions(spec, seed, start), std::move(phrases)),
        ads_(ads) {}

  Op Next(size_t index, ChurnPool* pool) {
    Op op;
    if (rng_.NextDouble() < spec_.churn &&
        (pool->next_fresh < pool->end_fresh || !pool->live.empty())) {
      op = Churn(pool);
      op.conn = static_cast<uint8_t>(op.ad % 2);
    } else {
      op = FromLoadGen(load_.Next());
      op.conn = static_cast<uint8_t>(index % 2);
    }
    return op;
  }

  Timestamp stream_time() const { return load_.now(); }

 private:
  static feed::LoadGenOptions LoadOptions(const WorkloadSpec& spec,
                                          uint64_t seed, Timestamp start) {
    feed::LoadGenOptions o;
    o.seed = seed * 0x9e3779b97f4a7c15ull + 17;
    o.num_users = spec.users;
    o.num_cells = kPlaces;
    o.user_skew = spec.user_skew;
    const double served = spec.topk + spec.tweet + spec.checkin;
    o.ingest_fraction = served > 0 ? (spec.tweet + spec.checkin) / served : 0;
    o.checkin_fraction = spec.tweet + spec.checkin > 0
                             ? spec.checkin / (spec.tweet + spec.checkin)
                             : 0;
    o.topk_k = kTopK;
    o.start_time = start;
    o.explicit_time_queries = spec.topk_with_time;
    return o;
  }

  /// Alternates delete and put so the inventory keeps its size; a put
  /// always names a fresh id and a delete a live one.
  Op Churn(ChurnPool* pool) {
    const bool can_put = pool->next_fresh < pool->end_fresh;
    Op op;
    if ((pool->del_next || !can_put) && !pool->live.empty()) {
      const size_t at = rng_.NextBounded(pool->live.size());
      op = AdDelOp(pool->live[at]);
      pool->live[at] = pool->live.back();
      pool->live.pop_back();
    } else {
      op = AdPutOp(ads_[pool->next_fresh++]);
      pool->live.push_back(op.ad);
    }
    pool->del_next = !pool->del_next;
    return op;
  }

  static Op FromLoadGen(const feed::LoadOp& l) {
    Op op;
    switch (l.kind) {
      case feed::LoadOp::Kind::kTweet:
        op.kind = OpKind::kTweet;
        op.user = l.tweet.user.value;
        op.line = serve::FormatTweetCmd(l.tweet);
        break;
      case feed::LoadOp::Kind::kCheckIn:
        op.kind = OpKind::kCheckIn;
        op.user = l.check_in.user.value;
        op.line = serve::FormatCheckInCmd(l.check_in);
        break;
      case feed::LoadOp::Kind::kTopK:
        op.kind = OpKind::kTopK;
        op.user = l.tweet.user.value;
        op.k = static_cast<uint32_t>(l.k);
        op.line = l.has_time ? serve::FormatTopKCmd(l.tweet.user, l.k,
                                                    l.tweet.time,
                                                    l.tweet.text)
                             : serve::FormatTopKCmd(l.tweet.user, l.k);
        break;
    }
    return op;
  }

  const WorkloadSpec& spec_;
  Rng rng_;
  feed::LoadGen load_;
  const std::vector<feed::Ad>& ads_;
};

Status WriteFiles(const feed::Workload& w, size_t initial_ads,
                  const Inputs& in) {
  std::error_code ec;
  std::filesystem::create_directories(in.data_dir, ec);
  if (!ec) std::filesystem::create_directories(in.kb_dir, ec);
  if (ec) return Status::IoError("mkdir " + in.data_dir + ": " + ec.message());
  const std::vector<feed::Ad> preload(w.ads.begin(),
                                      w.ads.begin() + initial_ads);
  ADREC_RETURN_NOT_OK(
      feed::WriteTrace(in.data_dir + "/trace.tsv", w.tweets, w.check_ins));
  ADREC_RETURN_NOT_OK(feed::WriteAds(in.data_dir + "/ads.tsv", preload));
  ADREC_RETURN_NOT_OK(
      annotate::WriteKnowledgeBase(in.data_dir + "/kb.tsv", *w.kb));
  return annotate::WriteKnowledgeBase(in.kb_dir + "/kb.tsv", *w.kb);
}

}  // namespace

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTopK: return "topk";
    case OpKind::kTweet: return "tweet";
    case OpKind::kCheckIn: return "checkin";
    case OpKind::kAdPut: return "adput";
    case OpKind::kAdDel: return "addel";
    case OpKind::kMatch: return "match";
    case OpKind::kAnalyze: return "analyze";
  }
  return "?";
}

bool IsIngest(OpKind kind) {
  return kind == OpKind::kTweet || kind == OpKind::kCheckIn;
}

bool IsChurn(OpKind kind) {
  return kind == OpKind::kAdPut || kind == OpKind::kAdDel;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Plan MakePlan(const WorkloadSpec& spec, double seconds, bool smoke) {
  Plan p;
  p.rounds = smoke ? 3 : 10;
  const double round_s = smoke ? 1.0 : seconds / p.rounds;
  p.warmup_s = smoke ? 0.5 : 1.0;
  p.open_s = 0.8 * round_s;
  p.warm_n = static_cast<size_t>(std::llround(p.warmup_s * spec.rate));
  p.seg_n = static_cast<size_t>(std::llround(p.open_s * spec.rate));
  p.closed_n =
      static_cast<size_t>(std::llround(spec.closed_ops_per_s * round_s));
  return p;
}

Result<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              const Plan& plan, const std::string& root) {
  Inputs in;
  in.data_dir = root + "/data";
  in.kb_dir = root + "/kb";
  const size_t open_n = plan.warm_n + plan.rounds * plan.seg_n;
  const size_t closed_n = plan.rounds * plan.closed_n;
  // Puts are about half the churn ops; leave headroom for the draw.
  auto fresh_for = [&](size_t n) {
    return spec.churn > 0
               ? static_cast<size_t>(std::ceil(n * spec.churn * 0.6)) + 16
               : 0;
  };
  in.initial_ads = spec.ads;
  ChurnPool open_pool, closed_pool;
  for (size_t a = 0; a < spec.ads; ++a) {
    open_pool.live.push_back(static_cast<uint32_t>(a));
  }
  open_pool.next_fresh = spec.ads;
  open_pool.end_fresh = closed_pool.next_fresh = spec.ads + fresh_for(open_n);
  closed_pool.end_fresh = closed_pool.next_fresh + fresh_for(closed_n);
  const size_t refresh_fresh = closed_pool.end_fresh;
  in.total_ads = refresh_fresh + plan.rounds * kRefreshChurnPairs;

  feed::WorkloadOptions wo;
  wo.seed = seed;
  wo.num_users = spec.users;
  wo.num_places = kPlaces;
  wo.num_ads = in.total_ads;
  wo.days = kWarmDays;
  const feed::Workload w = feed::GenerateWorkload(wo);
  ADREC_RETURN_NOT_OK(WriteFiles(w, in.initial_ads, in));

  std::vector<std::string> phrases;
  for (size_t i = 0; i < w.tweets.size() && phrases.size() < 512; i += 7) {
    phrases.push_back(w.tweets[i].text);
  }
  // The load starts the day after the warm trace at 13:30, inside the
  // afternoon slot every generated ad may target.
  Timestamp start = static_cast<Timestamp>(kWarmDays) * kSecondsPerDay +
                    13 * kSecondsPerHour + 30 * kSecondsPerMinute;

  if (spec.wal) {
    WorkloadSpec ingest_only = spec;
    ingest_only.topk = ingest_only.churn = 0.0;
    OpStream tail(ingest_only, seed + 1, w.ads, phrases, start);
    ChurnPool none;
    for (size_t i = 0; i < kRecoveryTailRecords; ++i) {
      Op op = tail.Next(i, &none);
      // One user's records on one socket keep the logged order, and
      // with it the recovered state, independent of socket timing.
      op.conn = static_cast<uint8_t>(op.user % 2);
      in.seed_tail.push_back(std::move(op));
    }
    start = tail.stream_time() + 1;
  }

  OpStream ops(spec, seed, w.ads, std::move(phrases), start);
  in.open_ops.reserve(open_n);
  for (size_t i = 0; i < open_n; ++i) {
    // One stall per segment puts about a tenth of its ops behind it: the
    // p95 falls inside the stall and the p50 well clear of it.
    const bool segment_start =
        i == 0 || (i >= plan.warm_n && (i - plan.warm_n) % plan.seg_n == 0);
    if (spec.analyze_in_loop && segment_start) {
      in.open_ops.push_back(AnalyzeOp());
      in.open_ops.back().conn = static_cast<uint8_t>(i % 2);
    } else {
      in.open_ops.push_back(ops.Next(i, &open_pool));
    }
  }
  in.closed_ops.reserve(closed_n);
  for (size_t i = 0; i < closed_n; ++i) {
    in.closed_ops.push_back(ops.Next(i, &closed_pool));
  }

  // One refresh per round: ad churn, then an analysis and matches. Ad
  // churn does not void an analysis, so the matches after it succeed.
  for (int r = 0; r < plan.rounds; ++r) {
    for (size_t p = 0; p < kRefreshChurnPairs; ++p) {
      const feed::Ad& ad = w.ads[refresh_fresh + r * kRefreshChurnPairs + p];
      in.refresh_ops.push_back(AdPutOp(ad));
      in.refresh_ops.push_back(AdDelOp(ad.id.value));
    }
    in.refresh_ops.push_back(AnalyzeOp());
    const size_t matches = std::min(kRefreshMatches, in.initial_ads);
    for (size_t m = 0; m < matches; ++m) {
      const size_t ad = m * in.initial_ads / matches;
      in.refresh_ops.push_back(MatchOp(static_cast<uint32_t>(ad)));
    }
  }
  in.refresh_n = in.refresh_ops.size() / plan.rounds;
  return in;
}

std::vector<std::string> DaemonFlags(const WorkloadSpec& spec,
                                     const std::string& data_dir,
                                     const std::string& wal_dir,
                                     bool checkpoints) {
  std::vector<std::string> flags = {
      "--dir=" + data_dir,
      "--shards=" + std::to_string(spec.shards),
      "--workers=" + std::to_string(spec.workers),
  };
  if (spec.topk_cache > 0) {
    flags.push_back("--topk-cache=" + std::to_string(spec.topk_cache));
  }
  if (spec.wal) {
    flags.push_back("--wal-dir=" + wal_dir);
    flags.push_back("--wal-shards=" + std::to_string(spec.shards));
    flags.push_back("--wal-sync=group");
    // A checkpoint lands in a run's rounds about once per 10 s, so most
    // rounds, and the median one, run without: a checkpoint's write burst
    // shows in the p99 and would put the p95 on a knife edge.
    if (checkpoints) flags.push_back("--checkpoint-interval=10");
  }
  return flags;
}

}  // namespace adrec::e2e
