#include "core/engine.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace adrec::core {

void EngineStats::Merge(const EngineStats& other) {
  tweets += other.tweets;
  checkins += other.checkins;
  ads_inserted += other.ads_inserted;
  ads_removed += other.ads_removed;
  topk_queries += other.topk_queries;
  impressions_served += other.impressions_served;
  analyses_run += other.analyses_run;
  location_triconcepts += other.location_triconcepts;
  topic_triconcepts += other.topic_triconcepts;
  annotate_us.Merge(other.annotate_us);
  profile_update_us.Merge(other.profile_update_us);
  index_update_us.Merge(other.index_update_us);
  topk_us.Merge(other.topk_us);
  analysis_ms.Merge(other.analysis_ms);
  analysis_build_ms.Merge(other.analysis_build_ms);
  analysis_trias_location_ms.Merge(other.analysis_trias_location_ms);
  analysis_trias_topic_ms.Merge(other.analysis_trias_topic_ms);
  analysis_decode_ms.Merge(other.analysis_decode_ms);
}

RecommendationEngine::RecommendationEngine(
    std::shared_ptr<annotate::KnowledgeBase> kb,
    timeline::TimeSlotScheme slots, EngineOptions options)
    : kb_(std::move(kb)),
      slots_(std::move(slots)),
      options_(options),
      semantic_(kb_.get(), options.annotator),
      profiles_(&slots_, options.profile_half_life),
      tfca_(&slots_, kb_->size()),
      capper_(options.frequency_cap),
      ctr_tweets_(metrics_.GetCounter("engine.tweets")),
      ctr_checkins_(metrics_.GetCounter("engine.checkins")),
      ctr_ads_inserted_(metrics_.GetCounter("engine.ads_inserted")),
      ctr_ads_removed_(metrics_.GetCounter("engine.ads_removed")),
      ctr_topk_queries_(metrics_.GetCounter("engine.topk_queries")),
      ctr_impressions_(metrics_.GetCounter("engine.impressions_served")),
      ctr_analyses_(metrics_.GetCounter("engine.analyses_run")),
      ctr_postings_scanned_(metrics_.GetCounter("index.postings_scanned")),
      ctr_candidates_(metrics_.GetCounter("index.candidates")),
      g_location_triconcepts_(
          metrics_.GetGauge("tfca.location_triconcepts")),
      g_topic_triconcepts_(metrics_.GetGauge("tfca.topic_triconcepts")),
      g_index_ads_(metrics_.GetGauge("index.ads")),
      g_index_postings_bytes_(metrics_.GetGauge("index.postings_bytes")),
      tm_annotate_(metrics_.GetTimer("engine.annotate_us")),
      tm_profile_update_(metrics_.GetTimer("engine.profile_update_us")),
      tm_index_update_(metrics_.GetTimer("engine.index_update_us")),
      tm_topk_(metrics_.GetTimer("engine.topk_us")),
      tm_analysis_ms_(metrics_.GetTimer("engine.analysis_ms")),
      tm_analysis_build_(metrics_.GetTimer("engine.analysis_build_ms")),
      tm_analysis_trias_location_(
          metrics_.GetTimer("engine.analysis_trias_location_ms")),
      tm_analysis_trias_topic_(
          metrics_.GetTimer("engine.analysis_trias_topic_ms")),
      tm_analysis_decode_(metrics_.GetTimer("engine.analysis_decode_ms")) {
  ADREC_CHECK(kb_ != nullptr);
}

void RecommendationEngine::OnTweet(const feed::Tweet& tweet) {
  ++mutation_epoch_;
  AnnotatedTweet annotated;
  {
    obs::StageSpan probe(StageTimer(tm_annotate_), "engine.annotate");
    annotated = semantic_.ProcessTweet(tweet);
  }
  {
    obs::StageSpan probe(StageTimer(tm_profile_update_), "engine.profile_update");
    profiles_.ObserveTweet(tweet.user, tweet.time, annotated.annotations);
    tfca_.AddTweet(annotated);
  }
  analysis_valid_ = false;
  ++tweets_ingested_;
  ctr_tweets_->Inc();
}

void RecommendationEngine::OnCheckIn(const feed::CheckIn& check_in) {
  ++mutation_epoch_;
  {
    obs::StageSpan probe(StageTimer(tm_profile_update_), "engine.profile_update");
    profiles_.ObserveCheckIn(check_in.user, check_in.time, check_in.location);
    tfca_.AddCheckIn(check_in);
    current_location_[check_in.user.value] = check_in.location;
  }
  analysis_valid_ = false;
  ++checkins_ingested_;
  ctr_checkins_->Inc();
}

void RecommendationEngine::OnEvent(const feed::FeedEvent& event) {
  switch (event.kind) {
    case feed::EventKind::kTweet:
      OnTweet(event.tweet);
      break;
    case feed::EventKind::kCheckIn:
      OnCheckIn(event.check_in);
      break;
    case feed::EventKind::kAdInsert:
      (void)InsertAd(event.ad);
      break;
    case feed::EventKind::kAdDelete:
      (void)RemoveAd(event.ad_id);
      break;
  }
}

void RecommendationEngine::ReplayForAnalysis(const feed::FeedEvent& event) {
  switch (event.kind) {
    case feed::EventKind::kTweet:
      tfca_.AddTweet(semantic_.ProcessTweet(event.tweet));
      analysis_valid_ = false;
      break;
    case feed::EventKind::kCheckIn:
      tfca_.AddCheckIn(event.check_in);
      analysis_valid_ = false;
      break;
    case feed::EventKind::kAdInsert:
    case feed::EventKind::kAdDelete:
      break;  // inventory is part of the snapshot, not the window
  }
}

Status RecommendationEngine::InsertAd(const feed::Ad& ad) {
  ++mutation_epoch_;
  AdContext ctx;
  {
    obs::StageSpan probe(StageTimer(tm_annotate_), "engine.annotate");
    ctx = semantic_.ProcessAd(ad);
  }
  obs::StageSpan probe(StageTimer(tm_index_update_), "engine.index_update");
  ADREC_RETURN_NOT_OK(store_.Insert(ad, ctx.topics));
  Status indexed = index_.Insert(ad.id, ctx.topics, ad.target_locations,
                                 ad.target_slots, ad.bid);
  if (!indexed.ok()) {
    (void)store_.Remove(ad.id);  // keep store and index consistent
    return indexed;
  }
  ctr_ads_inserted_->Inc();
  RefreshIndexGauges();
  return Status::OK();
}

Status RecommendationEngine::RemoveAd(AdId id) {
  ++mutation_epoch_;
  obs::StageSpan probe(StageTimer(tm_index_update_), "engine.index_update");
  ADREC_RETURN_NOT_OK(store_.Remove(id));
  ADREC_RETURN_NOT_OK(index_.Remove(id));
  ctr_ads_removed_->Inc();
  RefreshIndexGauges();
  return Status::OK();
}

void RecommendationEngine::RefreshIndexGauges() {
  g_index_ads_->Set(static_cast<double>(index_.size()));
  g_index_postings_bytes_->Set(static_cast<double>(index_.approx_bytes()));
}

Status RecommendationEngine::RunAnalysis() {
  return RunAnalysis(options_.alpha);
}

Status RecommendationEngine::RunAnalysis(double alpha) {
  TfcaOptions opts;
  opts.alpha = alpha;
  const auto t0 = std::chrono::steady_clock::now();
  ADREC_RETURN_NOT_OK(tfca_.Analyze(opts));
  const auto t1 = std::chrono::steady_clock::now();
  tm_analysis_ms_->Record(
      std::chrono::duration<double, std::milli>(t1 - t0).count());
  const TfcaPhaseTimings& spans = tfca_.phase_timings();
  tm_analysis_build_->Record(spans.build_context_ms);
  tm_analysis_trias_location_->Record(spans.trias_location_ms);
  tm_analysis_trias_topic_->Record(spans.trias_topic_ms);
  tm_analysis_decode_->Record(spans.decode_ms);
  if (obs::TraceBuilder* trace = obs::ActiveTrace(); trace != nullptr) {
    // The TFCA pipeline times its phases internally (they run in this
    // fixed order), so the trace gets them as retroactive sub-spans at
    // cumulative offsets under one engine.analysis parent.
    const uint32_t parent = trace->AddSpan("engine.analysis", t0, t1);
    auto at = t0;
    const auto ms = [](double v) {
      return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(v));
    };
    const std::pair<const char*, double> phases[] = {
        {"engine.analysis.build", spans.build_context_ms},
        {"engine.analysis.trias_location", spans.trias_location_ms},
        {"engine.analysis.trias_topic", spans.trias_topic_ms},
        {"engine.analysis.decode", spans.decode_ms},
    };
    for (const auto& [name, dur_ms] : phases) {
      trace->AddSpan(name, at, at + ms(dur_ms), parent);
      at += ms(dur_ms);
    }
  }
  ctr_analyses_->Inc();
  g_location_triconcepts_->Set(
      static_cast<double>(tfca_.stats().location_triconcepts));
  g_topic_triconcepts_->Set(
      static_cast<double>(tfca_.stats().topic_triconcepts));
  analysis_valid_ = true;
  return Status::OK();
}

EngineStats RecommendationEngine::Stats() const {
  EngineStats stats;
  stats.tweets = ctr_tweets_->value();
  stats.checkins = ctr_checkins_->value();
  stats.ads_inserted = ctr_ads_inserted_->value();
  stats.ads_removed = ctr_ads_removed_->value();
  stats.topk_queries = ctr_topk_queries_->value();
  stats.impressions_served = ctr_impressions_->value();
  stats.analyses_run = ctr_analyses_->value();
  stats.location_triconcepts =
      static_cast<uint64_t>(g_location_triconcepts_->value());
  stats.topic_triconcepts =
      static_cast<uint64_t>(g_topic_triconcepts_->value());
  stats.annotate_us = tm_annotate_->Snapshot();
  stats.profile_update_us = tm_profile_update_->Snapshot();
  stats.index_update_us = tm_index_update_->Snapshot();
  stats.topk_us = tm_topk_->Snapshot();
  stats.analysis_ms = tm_analysis_ms_->Snapshot();
  stats.analysis_build_ms = tm_analysis_build_->Snapshot();
  stats.analysis_trias_location_ms = tm_analysis_trias_location_->Snapshot();
  stats.analysis_trias_topic_ms = tm_analysis_trias_topic_->Snapshot();
  stats.analysis_decode_ms = tm_analysis_decode_->Snapshot();
  return stats;
}

Result<MatchResult> RecommendationEngine::RecommendUsers(AdId id) const {
  const ads::StoredAd* stored = store_.Find(id);
  if (stored == nullptr) {
    return Status::NotFound(StringFormat("ad %u not in store", id.value));
  }
  return RecommendUsersFor(stored->ad);
}

Result<MatchResult> RecommendationEngine::RecommendUsersFor(
    const feed::Ad& ad) const {
  if (!analysis_valid_) {
    return Status::FailedPrecondition(
        "RunAnalysis() must succeed before RecommendUsers()");
  }
  const AdContext ctx = semantic_.ProcessAd(ad);
  return MatchAd(tfca_, ctx, options_.match);
}

index::AdQuery RecommendationEngine::BuildQuery(const feed::Tweet& tweet,
                                                size_t k) const {
  index::AdQuery query;
  query.k = k;
  query.slot = slots_.SlotOf(tweet.time);
  // "Where is this user now?": the profile's top location for the current
  // slot (habits are slot-dependent), falling back to the last check-in.
  query.location = profiles_.TopLocation(tweet.user, query.slot);
  if (!query.location.valid()) {
    auto loc = current_location_.find(tweet.user.value);
    if (loc != current_location_.end()) query.location = loc->second;
  }

  // Topic vector: the tweet's own annotations blended with the author's
  // decayed interest profile (weight 0.5) so short tweets still carry
  // context.
  std::vector<text::SparseEntry> entries;
  for (const annotate::Annotation& a :
       semantic_.annotator().Annotate(tweet.text)) {
    entries.push_back({a.topic.value, a.score});
  }
  text::SparseVector topics =
      text::SparseVector::FromUnsorted(std::move(entries));
  text::SparseVector interests = profiles_.InterestsAt(tweet.user, tweet.time);
  interests.NormalizeL2();
  topics.AddScaled(interests, 0.5);
  query.topics = std::move(topics);
  return query;
}

std::vector<index::ScoredAd> RecommendationEngine::TopKAdsForTweet(
    const feed::Tweet& tweet, size_t k) {
  ++mutation_epoch_;
  obs::StageSpan probe(StageTimer(tm_topk_), "engine.topk");
  // Over-fetch to survive budget filtering, then keep the first k with
  // budget and charge them.
  index::AdQuery query = BuildQuery(tweet, k * 2 + 4);
  std::vector<index::ScoredAd> ranked = index_.TopK(query);
  ctr_postings_scanned_->Inc(index_.last_postings_scanned());
  ctr_candidates_->Inc(index_.last_candidates());
  const bool cap_enabled = options_.frequency_cap.max_impressions > 0;
  std::vector<index::ScoredAd> out;
  for (const index::ScoredAd& sa : ranked) {
    if (out.size() >= k) break;
    if (!store_.HasBudget(sa.ad)) continue;
    if (cap_enabled && !capper_.Allowed(tweet.user, sa.ad, tweet.time)) {
      continue;
    }
    if (store_.RecordImpression(sa.ad).ok()) {
      if (cap_enabled) capper_.Record(tweet.user, sa.ad, tweet.time);
      out.push_back(sa);
    }
  }
  ctr_topk_queries_->Inc();
  ctr_impressions_->Inc(out.size());
  return out;
}

TopkContext RecommendationEngine::TopkContextFor(
    const feed::Tweet& tweet) const {
  // Mirrors BuildQuery's filter resolution without paying for annotation.
  TopkContext ctx;
  ctx.slot = slots_.SlotOf(tweet.time);
  ctx.location = profiles_.TopLocation(tweet.user, ctx.slot);
  if (!ctx.location.valid()) {
    auto loc = current_location_.find(tweet.user.value);
    if (loc != current_location_.end()) ctx.location = loc->second;
  }
  return ctx;
}

bool RecommendationEngine::ChargeCachedTopK(const feed::Tweet& tweet,
                                            const std::vector<AdId>& ads) {
  ++mutation_epoch_;
  obs::StageSpan probe(StageTimer(tm_topk_), "engine.topk_cached");
  const bool cap_enabled = frequency_cap_enabled();
  // Validate everything before charging anything so a failure leaves the
  // engine untouched and the caller can recompute from clean state.
  for (const AdId ad : ads) {
    if (!store_.HasBudget(ad)) return false;
    if (cap_enabled && !capper_.Allowed(tweet.user, ad, tweet.time)) {
      return false;
    }
  }
  for (const AdId ad : ads) {
    // Cannot fail: HasBudget held above and the engine is single-writer.
    (void)store_.RecordImpression(ad);
    if (cap_enabled) capper_.Record(tweet.user, ad, tweet.time);
  }
  ctr_topk_queries_->Inc();
  ctr_impressions_->Inc(ads.size());
  return true;
}

std::vector<index::ScoredAd>
RecommendationEngine::TopKAdsForTweetExhaustive(const feed::Tweet& tweet,
                                                size_t k) const {
  index::AdQuery query = BuildQuery(tweet, k);
  return index_.TopKExhaustive(query);
}

}  // namespace adrec::core
