#ifndef ADREC_INDEX_TOPK_HEAP_H_
#define ADREC_INDEX_TOPK_HEAP_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/id_types.h"
#include "index/query.h"

namespace adrec::index {

/// Keeps the best k (score, ad) pairs with deterministic tie-breaks
/// (higher score first, then smaller ad id). Shared by AdIndex's TA scan,
/// its exhaustive reference scorer and WandIndex, so the final ranking of
/// a top-k answer is defined once. The selected set is order-independent: the
/// comparator is a strict total order over (score, ad), so offering the
/// same candidates in any order drains the same result.
struct TopKHeap {
  struct Entry {
    double score;
    uint32_t ad;
    // Min-heap on score; for equal scores the larger ad id is nearer the
    // top so it is evicted first (final order prefers smaller ids).
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.ad < b.ad;
    }
  };

  explicit TopKHeap(size_t k) : k(k) {}

  void Offer(double score, uint32_t ad) {
    if (score <= 0.0 || k == 0) return;
    if (heap.size() < k) {
      heap.push(Entry{score, ad});
    } else if (Entry{score, ad} < heap.top()) {
      heap.pop();
      heap.push(Entry{score, ad});
    }
  }

  /// Score an entry must strictly beat to enter a full heap.
  double Threshold() const {
    return heap.size() < k ? 0.0 : heap.top().score;
  }

  bool Full() const { return heap.size() >= k; }

  std::vector<ScoredAd> Drain() {
    std::vector<ScoredAd> out(heap.size());
    for (size_t i = heap.size(); i-- > 0;) {
      out[i] = ScoredAd{AdId(heap.top().ad), heap.top().score};
      heap.pop();
    }
    return out;
  }

  size_t k;
  std::priority_queue<Entry> heap;
};

}  // namespace adrec::index

#endif  // ADREC_INDEX_TOPK_HEAP_H_
