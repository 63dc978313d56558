#include "wal/apply.h"

#include "common/string_util.h"

namespace adrec::wal {

Status CheckStreamRouting(const core::ShardedEngine& engine, size_t stream,
                          size_t streams, const feed::FeedEvent& event) {
  if (streams <= 1) return Status::OK();
  UserId user;
  switch (event.kind) {
    case feed::EventKind::kTweet:
      user = event.tweet.user;
      break;
    case feed::EventKind::kCheckIn:
      user = event.check_in.user;
      break;
    case feed::EventKind::kAdInsert:
    case feed::EventKind::kAdDelete:
      return Status::OK();
  }
  const size_t owner = engine.ShardOf(user);
  if (owner == stream) return Status::OK();
  return Status::FailedPrecondition(StringFormat(
      "wal stream %zu of %zu holds an event of user %u, which shard %zu "
      "owns",
      stream, streams, user.value, owner));
}

Status ApplyLoggedEvent(core::ShardedEngine* engine, size_t stream,
                        size_t streams, const feed::FeedEvent& event,
                        ApplyMode mode) {
  ADREC_RETURN_NOT_OK(CheckStreamRouting(*engine, stream, streams, event));
  const bool routed = streams <= 1;
  if (mode == ApplyMode::kWindowOnly) {
    if (routed) {
      engine->ReplayForAnalysis(event);
    } else {
      engine->ReplayForAnalysisShard(stream, event);
    }
    return Status::OK();
  }
  switch (event.kind) {
    case feed::EventKind::kTweet:
    case feed::EventKind::kCheckIn:
      if (routed) {
        engine->OnEvent(event);
      } else {
        engine->ApplyToShard(stream, event);
      }
      return Status::OK();
    case feed::EventKind::kAdInsert: {
      const Status st = routed ? engine->InsertAd(event.ad)
                               : engine->InsertAdOnShard(stream, event.ad);
      return st.code() == StatusCode::kAlreadyExists ? Status::OK() : st;
    }
    case feed::EventKind::kAdDelete: {
      const Status st = routed ? engine->RemoveAd(event.ad_id)
                               : engine->RemoveAdOnShard(stream, event.ad_id);
      return st.code() == StatusCode::kNotFound ? Status::OK() : st;
    }
  }
  return Status::OK();
}

}  // namespace adrec::wal
