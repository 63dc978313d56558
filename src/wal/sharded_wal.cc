#include "wal/sharded_wal.h"

#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"

namespace adrec::wal {

std::string StreamDir(const std::string& dir, size_t stream, size_t shards) {
  if (shards <= 1) return dir;
  return StringFormat("%s/%zu", dir.c_str(), stream);
}

Result<size_t> DetectStreamLayout(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec) || ec) return size_t{1};
  bool flat_segments = false;
  std::vector<bool> numbered;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("wal-", 0) == 0) {
      flat_segments = true;
      continue;
    }
    if (!entry.is_directory()) continue;
    // Only all-digit names count as stream directories ("checkpoint",
    // "checkpoint.old" and friends live alongside them).
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const size_t stream = static_cast<size_t>(std::stoull(name));
    if (stream >= numbered.size()) numbered.resize(stream + 1, false);
    numbered[stream] = true;
  }
  if (ec) return Status::IoError("scan " + dir + ": " + ec.message());
  if (numbered.empty()) return size_t{1};
  if (flat_segments) {
    return Status::InvalidArgument(
        dir + ": mixed wal layout (flat segments next to stream dirs)");
  }
  for (size_t s = 0; s < numbered.size(); ++s) {
    if (!numbered[s]) {
      return Status::InvalidArgument(
          StringFormat("%s: gappy stream layout (missing stream %zu of %zu)",
                       dir.c_str(), s, numbered.size()));
    }
  }
  return numbered.size();
}

Status CheckStreamLayout(const std::string& dir, size_t streams) {
  // Refuse to silently reinterpret an existing directory written with a
  // different stream count — that would split one shard's history across
  // incompatible seqno spaces, or replay nothing at all.
  auto existing = DetectStreamLayout(dir);
  if (!existing.ok()) return existing.status();
  if (existing.value() > 1 && existing.value() != streams) {
    return Status::FailedPrecondition(
        StringFormat("%s holds %zu wal stream(s), not %zu", dir.c_str(),
                     existing.value(), streams));
  }
  if (streams > 1 && existing.value() == 1) {
    // DetectStreamLayout reports 1 both for "flat segments" and "no
    // segments yet"; only the former is a layout clash.
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("wal-", 0) == 0) {
        return Status::FailedPrecondition(
            StringFormat("%s holds a single-stream wal, not %zu streams",
                         dir.c_str(), streams));
      }
    }
  }
  return Status::OK();
}

ShardedWal::ShardedWal(std::string dir, WalOptions options,
                       std::vector<std::unique_ptr<WalWriter>> streams)
    : dir_(std::move(dir)),
      options_(options),
      streams_(std::move(streams)) {}

Result<std::unique_ptr<ShardedWal>> ShardedWal::Open(
    const std::string& dir, WalOptions options,
    const std::vector<uint64_t>& next_seqnos) {
  if (options.shards == 0) {
    return Status::InvalidArgument("wal shards must be >= 1");
  }
  if (!next_seqnos.empty() && next_seqnos.size() != options.shards) {
    return Status::InvalidArgument(StringFormat(
        "wal resume seqnos carry %zu stream(s), options say %zu",
        next_seqnos.size(), options.shards));
  }
  ADREC_RETURN_NOT_OK(CheckStreamLayout(dir, options.shards));

  std::vector<std::unique_ptr<WalWriter>> streams;
  streams.reserve(options.shards);
  for (size_t s = 0; s < options.shards; ++s) {
    const uint64_t resume = next_seqnos.empty() ? 0 : next_seqnos[s];
    auto w = WalWriter::Open(StreamDir(dir, s, options.shards), options,
                             resume);
    if (!w.ok()) {
      return Status(w.status().code(),
                    StringFormat("wal stream %zu: %s", s,
                                 w.status().ToString().c_str()));
    }
    streams.push_back(std::move(w).value());
  }
  return std::unique_ptr<ShardedWal>(
      new ShardedWal(dir, options, std::move(streams)));
}

Status ShardedWal::CommitAll() {
  Status first = Status::OK();
  for (auto& s : streams_) {
    const Status st = s->Commit();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ShardedWal::SyncAll() {
  Status first = Status::OK();
  for (auto& s : streams_) {
    const Status st = s->Sync();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ShardedWal::RotateAll() {
  Status first = Status::OK();
  for (auto& s : streams_) {
    const Status st = s->Rotate();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

obs::MetricsSnapshot ShardedWal::MergedMetrics() const {
  obs::MetricsSnapshot merged;
  for (const auto& s : streams_) {
    merged.MergeFrom(s->metrics().Snapshot());
  }
  return merged;
}

}  // namespace adrec::wal
