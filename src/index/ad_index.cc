#include "index/ad_index.h"

#include <algorithm>

#include "common/string_util.h"
#include "index/topk_heap.h"

namespace adrec::index {

namespace {

template <typename Id>
std::vector<uint32_t> SortedValues(const std::vector<Id>& ids) {
  std::vector<uint32_t> out;
  out.reserve(ids.size());
  for (Id id : ids) out.push_back(id.value);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

size_t AdIndex::RecordBytes(const AdRecord& rec) {
  // The record shell, its seen_ mark and id-map entry, plus the payload
  // of its three arrays. Good enough for capacity planning.
  return sizeof(AdRecord) + sizeof(uint32_t) + kPerIdOverhead +
         rec.topics.entries().size() * sizeof(text::SparseEntry) +
         (rec.locations.size() + rec.time_slots.size()) * sizeof(uint32_t);
}

Status AdIndex::Insert(AdId id, const text::SparseVector& topics,
                       const std::vector<LocationId>& target_locations,
                       const std::vector<SlotId>& target_slots, double bid) {
  const uint32_t slot = free_slots_.empty()
                            ? static_cast<uint32_t>(records_.size())
                            : free_slots_.back();
  if (!slot_of_.emplace(id.value, slot).second) {
    return Status::AlreadyExists(
        StringFormat("ad %u already indexed", id.value));
  }
  if (slot == records_.size()) {
    records_.emplace_back();
    seen_.push_back(0);
  } else {
    free_slots_.pop_back();
  }
  AdRecord& rec = records_[slot];
  rec.id = id.value;
  rec.bid = bid;
  rec.topics = topics;
  rec.locations = SortedValues(target_locations);
  rec.time_slots = SortedValues(target_slots);
  for (const text::SparseEntry& e : topics.entries()) {
    if (e.weight <= 0.0) continue;
    PostingList& list = lists_[e.id];
    // Insert keeping impact (descending-weight) order, ahead of equal
    // weights.
    const Posting p{slot, rec.generation, e.weight};
    auto it = std::lower_bound(list.postings.begin(), list.postings.end(),
                               p, [](const Posting& a, const Posting& b) {
                                 return a.weight > b.weight;
                               });
    list.postings.insert(it, p);
    ++list.live;
    ++total_postings_;
  }
  max_bid_bound_ = std::max(max_bid_bound_, bid);
  record_bytes_ += RecordBytes(rec);
  return Status::OK();
}

Status AdIndex::Remove(AdId id) {
  auto it = slot_of_.find(id.value);
  if (it == slot_of_.end()) {
    return Status::NotFound(StringFormat("ad %u not indexed", id.value));
  }
  const uint32_t slot = it->second;
  slot_of_.erase(it);
  AdRecord& rec = records_[slot];
  record_bytes_ -= RecordBytes(rec);
  // Lazy delete: the new generation matches none of the slot's postings,
  // so they become tombstones skipped at query time and compacted when
  // they dominate their list. (Tombstones stay in total_postings_ until
  // CompactList drops them, so approx_bytes() keeps charging for them —
  // they are resident.)
  ++rec.generation;
  for (const text::SparseEntry& e : rec.topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto lit = lists_.find(e.id);
    if (lit == lists_.end()) continue;
    PostingList& list = lit->second;
    if (list.live > 0) --list.live;
    if (list.live * 2 < list.postings.size()) CompactList(e.id);
  }
  rec.topics = text::SparseVector();
  rec.locations.clear();
  rec.time_slots.clear();
  free_slots_.push_back(slot);
  return Status::OK();
}

void AdIndex::CompactList(uint32_t topic) {
  auto it = lists_.find(topic);
  if (it == lists_.end()) return;
  std::vector<Posting>& postings = it->second.postings;
  const size_t before = postings.size();
  postings.erase(std::remove_if(postings.begin(), postings.end(),
                                [this](const Posting& p) { return Stale(p); }),
                 postings.end());
  total_postings_ -= before - postings.size();
  if (postings.empty()) lists_.erase(it);
}

bool AdIndex::PassesFilters(const AdRecord& rec, const AdQuery& query) {
  if (query.location.valid() && !rec.locations.empty() &&
      !std::binary_search(rec.locations.begin(), rec.locations.end(),
                          query.location.value)) {
    return false;
  }
  if (query.slot.valid() && !rec.time_slots.empty() &&
      !std::binary_search(rec.time_slots.begin(), rec.time_slots.end(),
                          query.slot.value)) {
    return false;
  }
  return true;
}

std::vector<ScoredAd> AdIndex::TopK(const AdQuery& query) const {
  // Fagin's Threshold Algorithm over impact-ordered lists: sorted access
  // round-robins the per-topic posting lists; the first time an ad is
  // seen it is fully scored by random access to its stored topic vector.
  // The unseen-ad upper bound is sum_i(query_weight_i * current depth
  // weight_i) * max_bid; once the k-th score reaches it, stop.
  last_postings_scanned_ = 0;
  last_candidates_ = 0;
  if (query.k == 0 || query.topics.empty() || slot_of_.empty()) return {};

  const double max_bid = max_bid_bound_;
  if (max_bid <= 0.0) return {};

  struct Cursor {
    double query_weight;
    const Posting* pos;
    const Posting* end;
  };
  std::vector<Cursor> cursors;
  for (const text::SparseEntry& e : query.topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto it = lists_.find(e.id);
    if (it == lists_.end() || it->second.postings.empty()) continue;
    const std::vector<Posting>& postings = it->second.postings;
    cursors.push_back(
        Cursor{e.weight, postings.data(), postings.data() + postings.size()});
  }
  if (cursors.empty()) return {};

  if (++epoch_ == 0) {  // wrapped: clear marks left by older epochs
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  TopKHeap heap(query.k);
  size_t exhausted = 0;
  while (exhausted < cursors.size()) {
    exhausted = 0;
    // One round of sorted accesses.
    for (Cursor& c : cursors) {
      // Skip tombstones at the cursor.
      while (c.pos != c.end && Stale(*c.pos)) {
        ++c.pos;
        ++last_postings_scanned_;
      }
      if (c.pos == c.end) {
        ++exhausted;
        continue;
      }
      const uint32_t slot = (c.pos++)->slot;
      ++last_postings_scanned_;
      if (seen_[slot] == epoch_) continue;
      seen_[slot] = epoch_;
      const AdRecord& rec = records_[slot];
      if (!PassesFilters(rec, query)) continue;
      ++last_candidates_;
      heap.Offer(query.topics.Dot(rec.topics) * rec.bid, rec.id);
    }
    // Threshold test: best possible score of any unseen ad.
    if (heap.Full()) {
      double bound = 0.0;
      for (const Cursor& c : cursors) {
        if (c.pos != c.end) bound += c.query_weight * c.pos->weight;
      }
      bound *= max_bid;
      // Strict comparison: an unseen ad scoring exactly the threshold
      // could still win its tie-break, so only a strictly smaller bound
      // is safe to stop on.
      if (bound < heap.Threshold()) break;
    }
  }
  return heap.Drain();
}

std::vector<ScoredAd> AdIndex::TopKExhaustive(const AdQuery& query) const {
  last_postings_scanned_ = 0;
  last_candidates_ = 0;
  TopKHeap heap(query.k);
  for (const auto& [id, slot] : slot_of_) {
    ++last_postings_scanned_;
    const AdRecord& rec = records_[slot];
    if (!PassesFilters(rec, query)) continue;
    ++last_candidates_;
    const double dot = query.topics.Dot(rec.topics);
    if (dot > 0.0) heap.Offer(dot * rec.bid, id);
  }
  return heap.Drain();
}

}  // namespace adrec::index
