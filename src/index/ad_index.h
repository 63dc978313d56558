#ifndef ADREC_INDEX_AD_INDEX_H_
#define ADREC_INDEX_AD_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/id_types.h"
#include "common/status.h"
#include "index/query.h"
#include "text/sparse_vector.h"

namespace adrec::index {

/// The high-speed matcher: an inverted index over ad topic vectors with
/// impact-ordered postings and a threshold-based early-termination top-k,
/// plus location/slot filters. Supports incremental insert/delete (lazy
/// tombstones with periodic compaction), which is what lets the engine
/// sustain ad churn without rebuilds (E6).
///
/// Layout (DESIGN.md §5.2): every live ad owns one flat record in a dense
/// array of reusable slots, and postings address records by slot, so the
/// query path never hashes an ad id. A posting carries the generation of
/// the slot it was written for; Remove bumps the slot's generation, which
/// turns all of its postings into tombstones at once.
///
/// A posting also carries its ad's targeting signature: bit
/// `location % kSignatureBuckets` of the low half for every target
/// location and bit `slot % kSignatureBuckets` of the high half for every
/// target slot, with an empty list setting every bit of its half. It is a
/// superset of the ad's targeting, so TopK passes over a posting lacking
/// the query's location or slot bit without reading the ad's record; a
/// posting carrying both bits still runs the exact filter.
class AdIndex {
 public:
  /// Buckets per half of the targeting signature.
  static constexpr uint32_t kSignatureBuckets = 32;

  AdIndex() = default;

  /// Indexes an ad. `topics` weights must be >= 0.
  Status Insert(AdId id, const text::SparseVector& topics,
                const std::vector<LocationId>& target_locations,
                const std::vector<SlotId>& target_slots, double bid = 1.0);

  /// Removes an ad (lazy: postings are tombstoned, lists compact when
  /// tombstones dominate). NotFound if absent.
  Status Remove(AdId id);

  /// Top-k ads for a query, scored as
  ///   score = bid * dot(query.topics, ad.topics)
  /// over ads passing the location/slot filters. Results sorted by
  /// descending score, ties by ascending ad id; zero-score ads never
  /// appear. Early termination: posting lists are consumed in impact
  /// order and scanning stops when the remaining upper bound cannot beat
  /// the current k-th score. Scores are SparseVector::Dot's, bit for bit.
  std::vector<ScoredAd> TopK(const AdQuery& query) const;

  /// Reference scorer: same semantics via a full scan (the E3 baseline).
  std::vector<ScoredAd> TopKExhaustive(const AdQuery& query) const;

  /// Number of live (non-deleted) ads.
  size_t size() const { return slot_of_.size(); }

  /// Diagnostics: postings touched by the last TopK call, tombstones and
  /// postings passed over on their signature included (E3/E4 report).
  size_t last_postings_scanned() const { return last_postings_scanned_; }

  /// Diagnostics: postings the last TopK call read a record for, i.e.
  /// those whose targeting signature carries the query's location and slot
  /// bits (tombstones and already-scored ads included). Between
  /// last_candidates() and last_postings_scanned().
  size_t last_records_probed() const { return last_records_probed_; }

  /// Diagnostics: ads the last TopK call scored, i.e. live ads it reached
  /// that passed the location/slot filters.
  size_t last_candidates() const { return last_candidates_; }

  /// Posting entries across all lists, including tombstones awaiting
  /// compaction (they occupy memory until CompactList drops them).
  size_t total_postings() const { return total_postings_; }

  /// Approximate resident bytes of the index payload: posting entries
  /// plus per-ad records and bookkeeping. Maintained incrementally on
  /// insert/remove/compact so reading it is O(1).
  size_t approx_bytes() const {
    return total_postings_ * sizeof(Posting) + record_bytes_ +
           lists_.size() * kPerListOverhead;
  }

 private:
  struct Posting {
    uint32_t slot;
    uint32_t generation;  // the slot's generation when this was written
    double weight;
    uint64_t signature;  // targeting signature of the ad it was written for
  };

  struct PostingList {
    std::vector<Posting> postings;  // descending weight (impact order)
    size_t live = 0;                // entries that are not tombstones
  };

  // One ad's record. A free slot keeps its bumped generation until the
  // next Insert reuses it.
  struct AdRecord {
    uint32_t id = 0;
    uint32_t generation = 0;
    double bid = 1.0;
    text::SparseVector topics;         // id-sorted, as inserted
    std::vector<uint32_t> locations;   // sorted, unique; empty = everywhere
    std::vector<uint32_t> time_slots;  // sorted, unique; empty = always
  };

  // Hash-node + vector-header overhead charged per posting list and per
  // id-map entry in approx_bytes(); round figures, not measurements.
  static constexpr size_t kPerListOverhead = 64;
  static constexpr size_t kPerIdOverhead = 32;

  static size_t RecordBytes(const AdRecord& rec);

  bool Stale(const Posting& p) const {
    return records_[p.slot].generation != p.generation;
  }
  static bool PassesFilters(const AdRecord& rec, const AdQuery& query);
  void CompactList(uint32_t topic);

  std::vector<AdRecord> records_;  // indexed by slot
  std::vector<uint32_t> free_slots_;
  // Ad id -> slot. Insert/Remove look ids up here; TopK never does.
  std::unordered_map<uint32_t, uint32_t> slot_of_;
  // topic -> its posting list.
  std::unordered_map<uint32_t, PostingList> lists_;
  // Monotone upper bound on live bids (never lowered on Remove). Safe for
  // the TA stopping rule: a too-high bound only delays termination, it
  // can never admit a wrong result.
  double max_bid_bound_ = 0.0;
  // TopK's per-query "already scored" marks: seen_[slot] == epoch_ means
  // the slot was reached by the current query. Bumping the epoch clears
  // every mark at once.
  mutable std::vector<uint32_t> seen_;
  mutable uint32_t epoch_ = 0;
  mutable size_t last_postings_scanned_ = 0;
  mutable size_t last_records_probed_ = 0;
  mutable size_t last_candidates_ = 0;
  // Incremental memory accounting (see approx_bytes()).
  size_t total_postings_ = 0;
  size_t record_bytes_ = 0;
};

}  // namespace adrec::index

#endif  // ADREC_INDEX_AD_INDEX_H_
