#ifndef ADREC_BENCH_E2E_REPLY_H_
#define ADREC_BENCH_E2E_REPLY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace adrec::e2e {

/// One parsed adrecd reply.
struct Reply {
  enum class Kind {
    kOk,         // OK
    kList,       // ADS <n> / AD <id> <score>..., or USERS <n> / USER ...
    kFailure,    // NOT_FOUND, READONLY, CLIENT_ERROR ..., SERVER_ERROR ...
    kMalformed,  // anything else
  };
  Kind kind = Kind::kMalformed;
  std::string head;  // first line, terminator stripped
  /// kList: (id, score) per item line, in reply order.
  std::vector<std::pair<uint32_t, double>> items;
};

/// Takes one complete reply off the front of `buf` (lines end in LF with
/// an optional CR). Returns the bytes it spans, or 0 while incomplete.
size_t TakeReply(std::string_view buf, Reply* out);

/// Checks a reply's grammar against the op that caused it: the verb's
/// reply shape, at most k ads for topk, distinct ids, scores that never
/// increase down the list. Returns an empty string when the reply
/// conforms, else what is wrong. A kFailure reply conforms (the caller
/// counts it as a failed op).
std::string CheckShape(const Op& op, const Reply& reply);

}  // namespace adrec::e2e

#endif  // ADREC_BENCH_E2E_REPLY_H_
