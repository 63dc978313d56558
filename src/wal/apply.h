#ifndef ADREC_WAL_APPLY_H_
#define ADREC_WAL_APPLY_H_

#include <cstddef>

#include "common/status.h"
#include "core/sharded_engine.h"
#include "feed/types.h"

namespace adrec::wal {

/// How a logged record reaches the engine.
enum class ApplyMode {
  kLive,        ///< normal ingest: past the checkpoint, or replicated
  kWindowOnly,  ///< covered by the checkpoint: analysis window only
};

/// Stream `stream` of a `streams`-stream log carries only the tweets and
/// check-ins of users that engine shard `stream` owns; ad ops go to every
/// stream (wal/sharded_wal.h). Returns FailedPrecondition for a feed
/// event that breaks this. A one-stream log feeds every shard through the
/// engine's own routing, so any event fits it.
Status CheckStreamRouting(const core::ShardedEngine& engine, size_t stream,
                          size_t streams, const feed::FeedEvent& event);

/// The one rule for applying a logged record, shared by crash recovery
/// and replication. A one-stream log applies through the engine's
/// routing; stream `s` of an N-stream log applies to engine shard `s`
/// only, after CheckStreamRouting. Re-inserting an ad and deleting a
/// missing one are benign (AlreadyExists / NotFound are swallowed): the
/// log may overlap what a checkpoint already restored.
Status ApplyLoggedEvent(core::ShardedEngine* engine, size_t stream,
                        size_t streams, const feed::FeedEvent& event,
                        ApplyMode mode = ApplyMode::kLive);

}  // namespace adrec::wal

#endif  // ADREC_WAL_APPLY_H_
