#include "index/wand_index.h"

#include <algorithm>

#include "common/string_util.h"
#include "index/topk_heap.h"

namespace adrec::index {

Status WandIndex::Insert(AdId id, const text::SparseVector& topics,
                         const std::vector<LocationId>& target_locations,
                         const std::vector<SlotId>& target_slots,
                         double bid) {
  if (ads_.find(id.value) != ads_.end()) {
    return Status::AlreadyExists(
        StringFormat("ad %u already indexed", id.value));
  }
  AdMeta meta;
  meta.bid = bid;
  meta.topics = topics;
  for (LocationId l : target_locations) meta.locations.insert(l.value);
  for (SlotId s : target_slots) meta.slots.insert(s.value);
  for (const text::SparseEntry& e : topics.entries()) {
    if (e.weight <= 0.0) continue;
    meta.topic_ids.push_back(e.id);
    PostingList& list = lists_[e.id];
    const Posting p{id.value, e.weight};
    auto it = std::lower_bound(list.postings.begin(), list.postings.end(), p,
                               [](const Posting& a, const Posting& b) {
                                 return a.ad < b.ad;
                               });
    list.postings.insert(it, p);
    list.max_weight = std::max(list.max_weight, e.weight);
  }
  max_bid_bound_ = std::max(max_bid_bound_, bid);
  ads_.emplace(id.value, std::move(meta));
  return Status::OK();
}

Status WandIndex::Remove(AdId id) {
  auto it = ads_.find(id.value);
  if (it == ads_.end()) {
    return Status::NotFound(StringFormat("ad %u not indexed", id.value));
  }
  for (uint32_t topic : it->second.topic_ids) {
    auto lit = lists_.find(topic);
    if (lit == lists_.end()) continue;
    auto& postings = lit->second.postings;
    auto pit = std::lower_bound(postings.begin(), postings.end(), id.value,
                                [](const Posting& p, uint32_t target) {
                                  return p.ad < target;
                                });
    if (pit != postings.end() && pit->ad == id.value) postings.erase(pit);
    if (postings.empty()) {
      lists_.erase(lit);
    } else {
      // Recompute the list bound (rare operation; lists are short).
      double mw = 0.0;
      for (const Posting& p : postings) mw = std::max(mw, p.weight);
      lit->second.max_weight = mw;
    }
  }
  ads_.erase(it);
  return Status::OK();
}

bool WandIndex::PassesFilters(const AdMeta& meta,
                              const AdQuery& query) const {
  if (query.location.valid() && !meta.locations.empty() &&
      meta.locations.find(query.location.value) == meta.locations.end()) {
    return false;
  }
  if (query.slot.valid() && !meta.slots.empty() &&
      meta.slots.find(query.slot.value) == meta.slots.end()) {
    return false;
  }
  return true;
}

std::vector<ScoredAd> WandIndex::TopK(const AdQuery& query) const {
  last_full_evaluations_ = 0;
  if (query.k == 0 || query.topics.empty() || ads_.empty()) return {};
  if (max_bid_bound_ <= 0.0) return {};

  // Cursors over the id-ordered lists of the query's terms.
  struct Cursor {
    const std::vector<Posting>* list;
    size_t pos = 0;
    double bound = 0.0;  // query_weight * list max_weight * max_bid
    double query_weight = 0.0;

    uint32_t CurrentAd() const { return (*list)[pos].ad; }
    bool Exhausted() const { return pos >= list->size(); }
  };
  std::vector<Cursor> cursors;
  for (const text::SparseEntry& e : query.topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto it = lists_.find(e.id);
    if (it == lists_.end() || it->second.postings.empty()) continue;
    Cursor c;
    c.list = &it->second.postings;
    c.bound = e.weight * it->second.max_weight * max_bid_bound_;
    c.query_weight = e.weight;
    cursors.push_back(c);
  }
  if (cursors.empty()) return {};

  TopKHeap heap(query.k);
  for (;;) {
    // Order live cursors by current ad id.
    std::vector<Cursor*> live;
    for (Cursor& c : cursors) {
      if (!c.Exhausted()) live.push_back(&c);
    }
    if (live.empty()) break;
    std::sort(live.begin(), live.end(), [](const Cursor* a, const Cursor* b) {
      return a->CurrentAd() < b->CurrentAd();
    });
    // Find the pivot: the first cursor where the prefix bound exceeds the
    // threshold. (Strictly-greater is required for correctness of ties:
    // an ad scoring exactly the threshold can still win its tie-break, so
    // use >=.)
    const double threshold = heap.Threshold();
    double acc = 0.0;
    size_t pivot = live.size();
    for (size_t i = 0; i < live.size(); ++i) {
      acc += live[i]->bound;
      if (!heap.Full() || acc >= threshold) {
        pivot = i;
        break;
      }
    }
    if (pivot == live.size()) break;  // no ad can reach the threshold
    const uint32_t pivot_ad = live[pivot]->CurrentAd();
    if (live[0]->CurrentAd() == pivot_ad) {
      // All prefix cursors sit on the pivot: fully evaluate it.
      ++last_full_evaluations_;
      auto meta_it = ads_.find(pivot_ad);
      if (meta_it != ads_.end() && PassesFilters(meta_it->second, query)) {
        const double score =
            query.topics.Dot(meta_it->second.topics) * meta_it->second.bid;
        heap.Offer(score, pivot_ad);
      }
      // Advance every cursor positioned on the pivot.
      for (Cursor* c : live) {
        if (!c->Exhausted() && c->CurrentAd() == pivot_ad) ++c->pos;
      }
    } else {
      // Skip the earlier cursors up to the pivot ad.
      for (size_t i = 0; i < pivot; ++i) {
        Cursor* c = live[i];
        auto it = std::lower_bound(
            c->list->begin() + static_cast<ptrdiff_t>(c->pos), c->list->end(),
            pivot_ad, [](const Posting& p, uint32_t target) {
              return p.ad < target;
            });
        c->pos = static_cast<size_t>(it - c->list->begin());
      }
    }
  }
  return heap.Drain();
}

}  // namespace adrec::index
