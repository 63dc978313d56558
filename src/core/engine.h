#ifndef ADREC_CORE_ENGINE_H_
#define ADREC_CORE_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "ads/ad_store.h"
#include "ads/frequency_cap.h"
#include "annotate/knowledge_base.h"
#include "common/histogram.h"
#include "common/status.h"
#include "core/recommender.h"
#include "core/semantic.h"
#include "core/tfca.h"
#include "feed/types.h"
#include "index/ad_index.h"
#include "obs/metrics.h"
#include "profile/user_profile.h"
#include "timeline/time_slots.h"

namespace adrec::core {

/// Engine configuration.
struct EngineOptions {
  /// Decay half-life of incremental user profiles.
  DurationSec profile_half_life = 7 * kSecondsPerDay;
  /// Default α for RunAnalysis when none is given.
  double alpha = 0.6;
  /// Annotator configuration.
  annotate::AnnotatorOptions annotator;
  /// Matching configuration.
  MatchOptions match;
  /// Per-(user, ad) frequency capping on the streaming path; set
  /// frequency_cap.max_impressions <= 0 to disable.
  ads::FrequencyCapOptions frequency_cap{/*max_impressions=*/5,
                                         /*window=*/kSecondsPerDay};
  /// Per-stage latency timing of the hot path. Event/impression counters
  /// stay on either way (one relaxed atomic add each); disabling only
  /// removes the steady_clock reads, which is what the instrumentation-
  /// overhead benchmark toggles.
  bool collect_stage_timings = true;
};

/// The serving context TopKAdsForTweet would resolve for a tweet: the
/// location and slot filters its index query runs under. The topk result
/// cache keys invalidation on these attributes (DESIGN.md §14).
struct TopkContext {
  LocationId location;  // !valid() = query carries no location filter
  SlotId slot;          // !valid() = query carries no slot filter
};

/// A typed snapshot of the engine's observable state: event counters,
/// per-stage hot-path latency histograms (microseconds unless the name
/// says otherwise), and the last analysis' lattice sizes. Mergeable
/// across shards (counters add, histograms bucket-merge).
struct EngineStats {
  // Event counters.
  uint64_t tweets = 0;
  uint64_t checkins = 0;
  uint64_t ads_inserted = 0;
  uint64_t ads_removed = 0;
  uint64_t topk_queries = 0;
  uint64_t impressions_served = 0;
  uint64_t analyses_run = 0;
  // Last RunAnalysis' lattice counters (summed across shards when merged).
  uint64_t location_triconcepts = 0;
  uint64_t topic_triconcepts = 0;
  // Hot-path stage timers.
  Histogram annotate_us;
  Histogram profile_update_us;
  Histogram index_update_us;
  Histogram topk_us;
  // Batch path: the whole RunAnalysis plus its sub-phase spans (context
  // build / TRIAS over each context / concept decode — see
  // TfcaPhaseTimings), which attribute the superlinear analysis cost.
  Histogram analysis_ms;
  Histogram analysis_build_ms;
  Histogram analysis_trias_location_ms;
  Histogram analysis_trias_topic_ms;
  Histogram analysis_decode_ms;

  /// Folds another engine's stats into this one (sharded aggregation).
  void Merge(const EngineStats& other);
};

/// The full context-aware advertisement recommendation engine — the
/// library's main entry point. It wires the three macro-phases together
/// with the streaming substrate:
///
///  * feed events (tweets / check-ins / ad churn) stream in through the
///    On*/Insert*/Remove* methods; per-event work is incremental
///    (annotation, profile update, index maintenance);
///  * RunAnalysis() mines the triadic timed contexts of the accumulated
///    window (macro-phase 2);
///  * RecommendUsers() answers "who should see ad A?" via the triadic
///    matching model (macro-phase 3);
///  * TopKAdsForTweet() answers the dual streaming question "which ads
///    belong on this feed event right now?" via the inverted-index
///    matcher — the high-speed path.
///
/// Single-threaded by design (single-writer stream processing); wrap
/// externally for sharded deployments.
class RecommendationEngine {
 public:
  /// `kb` supplies topics and annotation; shared so workloads and engine
  /// can use one KB. `slots` is copied.
  RecommendationEngine(std::shared_ptr<annotate::KnowledgeBase> kb,
                       timeline::TimeSlotScheme slots,
                       EngineOptions options = {});

  // --- Streaming input. ---

  /// Ingests one tweet: annotates it, updates the author's profile, feeds
  /// the TFCA window, and remembers it as the author's latest context.
  void OnTweet(const feed::Tweet& tweet);

  /// Ingests one check-in: updates the profile, the TFCA window and the
  /// user's current location.
  void OnCheckIn(const feed::CheckIn& check_in);

  /// Dispatches any feed event.
  void OnEvent(const feed::FeedEvent& event);

  /// Inserts an ad: annotates the copy and indexes it.
  Status InsertAd(const feed::Ad& ad);

  /// Removes an ad from store and index.
  Status RemoveAd(AdId id);

  // --- Macro-phase 2/3: triadic analysis and matching. ---

  /// Mines the triadic contexts of everything ingested so far. Call after
  /// (re)filling the window or to re-cut with a different α.
  Status RunAnalysis();
  Status RunAnalysis(double alpha);

  /// Target users for a stored ad via the triadic model. Requires a prior
  /// successful RunAnalysis(); fails with FailedPrecondition otherwise.
  Result<MatchResult> RecommendUsers(AdId id) const;

  /// Same, for an un-stored ad record.
  Result<MatchResult> RecommendUsersFor(const feed::Ad& ad) const;

  // --- The high-speed streaming path. ---

  /// Top-k ads to attach to a tweet right now: the tweet is annotated,
  /// the author's decayed interests are blended in, and the query runs
  /// against the inverted index with the author's current location and
  /// the tweet's slot as filters. Budget-exhausted ads are skipped and
  /// impressions are recorded for returned ads.
  std::vector<index::ScoredAd> TopKAdsForTweet(const feed::Tweet& tweet,
                                               size_t k);

  /// The location/slot context TopKAdsForTweet would resolve for `tweet`
  /// right now — what the topk result cache stamps on an entry so ingest
  /// can compute invalidation fan-out. Read-only.
  TopkContext TopkContextFor(const feed::Tweet& tweet) const;

  /// Cache-hit bookkeeping: revalidates that every ad in `ads` is still
  /// servable to `tweet`'s author at `tweet`'s time (budget + frequency
  /// cap), then charges them exactly as TopKAdsForTweet would — budget
  /// decrement, cap record, topk/impression counters. Returns false
  /// WITHOUT charging anything if any ad fails revalidation; the caller
  /// must then drop the cached entry and recompute. This is what makes
  /// serving a cached topk reply observably identical to recomputing it
  /// (DESIGN.md §14).
  bool ChargeCachedTopK(const feed::Tweet& tweet,
                        const std::vector<AdId>& ads);

  /// Whether the per-(user, ad) frequency cap participates in serving.
  bool frequency_cap_enabled() const {
    return options_.frequency_cap.max_impressions > 0;
  }

  /// The same query answered by the exhaustive scorer (baseline for E3).
  /// Unlike TopKAdsForTweet it is read-only: no impressions are recorded,
  /// so it is safe from const contexts (e.g. a serving dispatch loop).
  std::vector<index::ScoredAd> TopKAdsForTweetExhaustive(
      const feed::Tweet& tweet, size_t k) const;

  // --- Introspection / observability. ---

  const TimeAwareConceptAnalysis& analysis() const { return tfca_; }
  const profile::UserProfileStore& profiles() const { return profiles_; }

  /// Typed snapshot of counters, stage timers and lattice sizes.
  EngineStats Stats() const;

  /// The engine's metric registry (named counters/gauges/timers under the
  /// `engine.` / `tfca.` prefixes) — the generic export surface for
  /// obs::BuildReport / ExportText / ExportJson.
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Zeroes all metrics (periodic reporting windows). The cumulative
  /// tweets_ingested()/checkins_ingested() totals are unaffected.
  void ResetMetrics() { metrics_.ResetAll(); }

  /// Re-feeds a past event into the TFCA analysis window ONLY — profiles,
  /// counters, serving state and inventory are untouched. This is the
  /// replay half of the snapshot + bounded-replay recovery procedure
  /// (core/snapshot): after LoadEngineSnapshot, replay the last window of
  /// the event log through this method (NOT OnEvent, which would
  /// double-count the already-snapshotted profile mass), then RunAnalysis.
  /// Ad events are ignored (inventory is part of the snapshot).
  void ReplayForAnalysis(const feed::FeedEvent& event);

  // --- Snapshot support (used by core/snapshot). The TFCA window is not
  // part of a snapshot; re-ingest the recent trace after a restore to
  // rebuild concept analysis (event sourcing).
  profile::UserProfileStore* mutable_profiles() { return &profiles_; }
  ads::AdStore* mutable_ad_store() { return &store_; }
  const std::unordered_map<uint32_t, LocationId>& current_locations() const {
    return current_location_;
  }
  void RestoreCurrentLocation(UserId user, LocationId location) {
    current_location_[user.value] = location;
  }
  const ads::AdStore& ad_store() const { return store_; }
  const ads::FrequencyCapper& frequency_capper() const { return capper_; }
  ads::FrequencyCapper* mutable_frequency_capper() { return &capper_; }
  const index::AdIndex& ad_index() const { return index_; }
  const timeline::TimeSlotScheme& slots() const { return slots_; }
  const SemanticRepresentation& semantic() const { return semantic_; }
  size_t tweets_ingested() const { return tweets_ingested_; }
  size_t checkins_ingested() const { return checkins_ingested_; }

  /// Monotone counter bumped by every entry point that can mutate
  /// snapshot state (ingest, inventory changes, serving-side impression
  /// charging). The delta checkpointer (wal/delta) skips re-serializing
  /// a shard whose epoch is unchanged since its last save — a spurious
  /// bump only costs a redundant serialize, a missed one would corrupt
  /// the delta chain, so mutators bump unconditionally at entry.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

 private:
  index::AdQuery BuildQuery(const feed::Tweet& tweet, size_t k) const;

  /// Publishes the index.ads / index.postings_bytes gauges (called after
  /// every insert/remove).
  void RefreshIndexGauges();

  /// The timer handle if stage timing is on, nullptr (no-op probe) if off.
  obs::Timer* StageTimer(obs::Timer* timer) const {
    return options_.collect_stage_timings ? timer : nullptr;
  }

  std::shared_ptr<annotate::KnowledgeBase> kb_;
  timeline::TimeSlotScheme slots_;
  EngineOptions options_;
  SemanticRepresentation semantic_;
  profile::UserProfileStore profiles_;
  TimeAwareConceptAnalysis tfca_;
  ads::AdStore store_;
  index::AdIndex index_;
  ads::FrequencyCapper capper_;
  std::unordered_map<uint32_t, LocationId> current_location_;
  bool analysis_valid_ = false;
  size_t tweets_ingested_ = 0;
  size_t checkins_ingested_ = 0;
  uint64_t mutation_epoch_ = 0;

  // Observability: the registry plus cached handles so the hot path never
  // takes the registration lock.
  obs::MetricRegistry metrics_;
  obs::Counter* ctr_tweets_;
  obs::Counter* ctr_checkins_;
  obs::Counter* ctr_ads_inserted_;
  obs::Counter* ctr_ads_removed_;
  obs::Counter* ctr_topk_queries_;
  obs::Counter* ctr_impressions_;
  obs::Counter* ctr_analyses_;
  obs::Counter* ctr_postings_scanned_;
  obs::Counter* ctr_records_probed_;
  obs::Counter* ctr_candidates_;
  obs::Gauge* g_location_triconcepts_;
  obs::Gauge* g_topic_triconcepts_;
  obs::Gauge* g_index_ads_;
  obs::Gauge* g_index_postings_bytes_;
  obs::Timer* tm_annotate_;
  obs::Timer* tm_profile_update_;
  obs::Timer* tm_index_update_;
  obs::Timer* tm_topk_;
  obs::Timer* tm_analysis_ms_;
  obs::Timer* tm_analysis_build_;
  obs::Timer* tm_analysis_trias_location_;
  obs::Timer* tm_analysis_trias_topic_;
  obs::Timer* tm_analysis_decode_;
};

}  // namespace adrec::core

#endif  // ADREC_CORE_ENGINE_H_
