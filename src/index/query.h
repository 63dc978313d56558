#ifndef ADREC_INDEX_QUERY_H_
#define ADREC_INDEX_QUERY_H_

#include <cstddef>

#include "common/id_types.h"
#include "text/sparse_vector.h"

namespace adrec::index {

/// One top-k result. Exact equality (including the score bits) is
/// meaningful: independent engines running identical arithmetic on the
/// same stream must produce bit-identical results (testkit differential).
struct ScoredAd {
  AdId ad;
  double score = 0.0;

  friend bool operator==(const ScoredAd&, const ScoredAd&) = default;
};

/// A per-feed-event query: the event's topic vector plus its hard context
/// filters (location and time slot). Ads failing a filter score zero.
struct AdQuery {
  text::SparseVector topics;        ///< annotation-derived topic weights
  LocationId location;              ///< invalid() means "no location filter"
  SlotId slot;                      ///< invalid() means "no slot filter"
  size_t k = 10;
};

}  // namespace adrec::index

#endif  // ADREC_INDEX_QUERY_H_
