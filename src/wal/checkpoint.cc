#include "wal/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/snapshot.h"
#include "obs/trace.h"
#include "wal/apply.h"
#include "wal/delta/delta_checkpoint.h"

namespace adrec::wal {

Result<CheckpointMode> ParseCheckpointMode(std::string_view name) {
  if (name == "full") return CheckpointMode::kFull;
  if (name == "delta") return CheckpointMode::kDelta;
  return Status::InvalidArgument("unknown checkpoint mode '" +
                                 std::string(name) + "' (full|delta)");
}

std::string_view CheckpointModeName(CheckpointMode mode) {
  return mode == CheckpointMode::kDelta ? "delta" : "full";
}

namespace {

constexpr std::string_view kManifestName = "MANIFEST.tsv";

std::string ShardDir(const std::string& checkpoint_dir, size_t shard) {
  return StringFormat("%s/shard%zu", checkpoint_dir.c_str(), shard);
}

struct CheckpointManifest {
  uint64_t wal_seqno = 0;
  size_t num_shards = 0;
  Timestamp stream_time = 0;
  /// Per-stream high-water marks ("S <stream> <seqno>" lines); empty for
  /// a single-stream (classic) manifest.
  std::vector<uint64_t> stream_seqnos;
};

Result<CheckpointManifest> ReadManifest(const std::string& checkpoint_dir) {
  const std::string path =
      checkpoint_dir + "/" + std::string(kManifestName);
  std::ifstream in(path);
  if (!in) return Status::NotFound("no checkpoint manifest at " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError(path + ": empty manifest");
  }
  const auto fields = SplitString(line, '\t', /*keep_empty=*/true);
  if (fields.size() != 4 || fields[0] != "K") {
    return Status::InvalidArgument(path + ": bad manifest record");
  }
  CheckpointManifest m;
  char* end = nullptr;
  const std::string seqno_str(fields[1]);
  m.wal_seqno = std::strtoull(seqno_str.c_str(), &end, 10);
  if (end == seqno_str.c_str() || *end != '\0') {
    return Status::InvalidArgument(path + ": bad wal seqno");
  }
  const std::string shards_str(fields[2]);
  end = nullptr;
  m.num_shards = std::strtoul(shards_str.c_str(), &end, 10);
  if (end == shards_str.c_str() || *end != '\0' || m.num_shards == 0) {
    return Status::InvalidArgument(path + ": bad shard count");
  }
  const std::string time_str(fields[3]);
  end = nullptr;
  m.stream_time = std::strtoll(time_str.c_str(), &end, 10);
  if (end == time_str.c_str() || *end != '\0') {
    return Status::InvalidArgument(path + ": bad stream time");
  }
  // Per-stream marks must be dense and in order: "S 0 ..", "S 1 ..", ...
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = SplitString(line, '\t', /*keep_empty=*/true);
    if (f.size() != 3 || f[0] != "S") {
      return Status::InvalidArgument(path + ": bad stream record");
    }
    const std::string stream_str(f[1]);
    end = nullptr;
    const size_t stream = std::strtoul(stream_str.c_str(), &end, 10);
    if (end == stream_str.c_str() || *end != '\0' ||
        stream != m.stream_seqnos.size()) {
      return Status::InvalidArgument(path + ": out-of-order stream record");
    }
    const std::string mark_str(f[2]);
    end = nullptr;
    const uint64_t mark = std::strtoull(mark_str.c_str(), &end, 10);
    if (end == mark_str.c_str() || *end != '\0') {
      return Status::InvalidArgument(path + ": bad stream seqno");
    }
    m.stream_seqnos.push_back(mark);
  }
  return m;
}

/// Runs fn(s) for every stream s of an n-stream log: inline for one
/// stream, one thread per stream otherwise (streams share no state).
void ForEachStream(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t s = 0; s < n; ++s) workers.emplace_back(fn, s);
  for (std::thread& w : workers) w.join();
}

/// The engine shards stream `stream` of an n-stream log feeds: every
/// shard for one stream, shard `stream` alone otherwise.
std::vector<size_t> StreamShards(size_t num_shards, size_t stream,
                                 size_t n) {
  if (n != 1) return {stream};
  std::vector<size_t> all(num_shards);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

Status RemoveAll(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return Status::IoError("remove " + path + ": " + ec.message());
  return Status::OK();
}

/// Counts files/bytes a full checkpoint is about to swap in, for the
/// checkpoint.files_written / checkpoint.bytes_written families.
void DirStats(const std::string& dir, uint64_t* files, uint64_t* bytes) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::error_code size_ec;
    const uintmax_t sz = entry.file_size(size_ec);
    *files += 1;
    if (!size_ec) *bytes += sz;
  }
}

/// The checkpoint recovery should restore from: the newer of the classic
/// directory (checkpoint / checkpoint.old) and the delta-chain head
/// (checkpoint.delta), compared by (wal_seqno, stream_time). A chosen
/// delta head is materialised — with strict size + content-hash
/// verification of every referenced file — into
/// `<wal_dir>/checkpoint.restore.tmp`, laid out exactly like a classic
/// checkpoint, so the per-shard load path is identical either way. A
/// generation that fails verification is skipped, falling back to older
/// generations and finally the classic directory. Never hard-fails:
/// worst case is `found == false` (recover from the log alone).
struct PickedCheckpoint {
  bool found = false;
  std::string dir;      ///< directory holding shard<i>/ + MANIFEST.tsv
  std::string staging;  ///< non-empty: materialised copy, delete after load
  CheckpointManifest manifest;
  bool is_delta = false;
  uint64_t delta_gen = 0;
  size_t delta_chain_len = 0;
};

PickedCheckpoint PickCheckpoint(const std::string& wal_dir,
                                const std::string& classic_dir) {
  PickedCheckpoint picked;

  bool have_classic = false;
  std::string classic_chosen;
  CheckpointManifest classic_manifest;
  for (const std::string& candidate : {classic_dir, classic_dir + ".old"}) {
    auto m = ReadManifest(candidate);
    if (m.ok()) {
      have_classic = true;
      classic_chosen = candidate;
      classic_manifest = m.value();
      break;
    }
    if (m.status().code() != StatusCode::kNotFound) {
      ADREC_LOG(kWarning) << "skipping unreadable checkpoint " << candidate
                          << ": " << m.status().ToString();
    }
  }

  const std::string staging = wal_dir + "/checkpoint.restore.tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);  // leftover of a crashed restore

  // Delta candidates, best first: the resolved head, then every other
  // generation newest-first (the head resolution already prefers CURRENT
  // and verifies file presence; materialisation adds the hash check).
  std::vector<delta::DeltaManifest> candidates;
  {
    auto head = delta::ResolveHead(wal_dir);
    if (head.ok()) candidates.push_back(std::move(head).value());
    auto gens = delta::ListGenerations(wal_dir);
    if (gens.ok()) {
      std::sort(gens.value().begin(), gens.value().end(),
                [](const delta::DeltaManifest& a,
                   const delta::DeltaManifest& b) { return a.gen > b.gen; });
      for (delta::DeltaManifest& m : gens.value()) {
        if (candidates.empty() || m.gen != candidates.front().gen) {
          candidates.push_back(std::move(m));
        }
      }
    }
  }
  for (const delta::DeltaManifest& cand : candidates) {
    const bool newer_than_classic =
        !have_classic ||
        std::make_pair(cand.wal_seqno, cand.stream_time) >=
            std::make_pair(classic_manifest.wal_seqno,
                           classic_manifest.stream_time);
    if (!newer_than_classic) break;  // older candidates only get older
    const Status st = delta::MaterializeCheckpoint(wal_dir, cand, staging);
    if (!st.ok()) {
      ADREC_LOG(kWarning) << "skipping delta checkpoint generation "
                          << cand.gen << ": " << st.ToString();
      continue;
    }
    picked.found = true;
    picked.dir = staging;
    picked.staging = staging;
    picked.is_delta = true;
    picked.delta_gen = cand.gen;
    picked.delta_chain_len = cand.ChainLength();
    picked.manifest.wal_seqno = cand.wal_seqno;
    picked.manifest.num_shards = cand.num_shards;
    picked.manifest.stream_time = cand.stream_time;
    picked.manifest.stream_seqnos = cand.stream_seqnos;
    return picked;
  }

  if (have_classic) {
    picked.found = true;
    picked.dir = classic_chosen;
    picked.manifest = classic_manifest;
  }
  return picked;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string wal_dir,
                                     CheckpointOptions options)
    : wal_dir_(std::move(wal_dir)), options_(options) {}

void CheckpointManager::RecordSave(
    std::chrono::steady_clock::time_point save_start) {
  metrics_.GetCounter("checkpoint.saves")->Inc();
  metrics_.GetTimer("checkpoint.save_ms")
      ->Record(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - save_start)
                   .count());
}

Status CheckpointManager::WriteFullManifest(
    const std::string& tmp, size_t num_shards, uint64_t wal_seqno,
    const std::vector<uint64_t>& stream_seqnos, Timestamp stream_now) {
  const std::string path = tmp + "/" + std::string(kManifestName);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << StringFormat("K\t%llu\t%zu\t%lld\n",
                      static_cast<unsigned long long>(wal_seqno), num_shards,
                      static_cast<long long>(stream_now));
  for (size_t s = 0; s < stream_seqnos.size(); ++s) {
    out << StringFormat("S\t%zu\t%llu\n", s,
                        static_cast<unsigned long long>(stream_seqnos[s]));
  }
  out.flush();
  if (!out) return Status::IoError("manifest write failed: " + path);
  out.close();
  ADREC_RETURN_NOT_OK(FsyncFile(path));
  return FsyncDir(tmp);
}

Status CheckpointManager::SwapFullCheckpoint(const std::string& tmp) {
  // Account what the swap publishes before it moves.
  uint64_t files = 0;
  uint64_t bytes = 0;
  DirStats(tmp, &files, &bytes);
  metrics_.GetCounter("checkpoint.files_written")->Inc(files);
  metrics_.GetCounter("checkpoint.bytes_written")->Inc(bytes);
  metrics_.GetGauge("checkpoint.delta_chain_len")->Set(1.0);

  // Swap. The previous checkpoint lives on as checkpoint.old until the
  // new one is durably in place — recovery falls back to it if a crash
  // lands inside this window.
  const std::string current = checkpoint_dir();
  const std::string old = current + ".old";
  ADREC_RETURN_NOT_OK(RemoveAll(old));
  if (std::filesystem::exists(current)) {
    ADREC_RETURN_NOT_OK(RenamePath(current, old));
  }
  ADREC_RETURN_NOT_OK(RenamePath(tmp, current));
  ADREC_RETURN_NOT_OK(FsyncDir(wal_dir_));
  return RemoveAll(old);
}

Status CheckpointManager::DeltaSave(const core::ShardedEngine& engine,
                                    uint64_t wal_seqno,
                                    const std::vector<uint64_t>& stream_seqnos,
                                    Timestamp stream_now) {
  obs::TraceSpan span("checkpoint.delta_save");
  delta::DeltaSaveOptions opts;
  opts.rebase_every = options_.rebase_every;
  // Capture epochs BEFORE serialization: a mutation racing the capture
  // can only make a shard look dirty (re-serialized), never clean.
  std::vector<uint64_t> epochs(engine.num_shards(), 0);
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    epochs[s] = engine.shard(s).mutation_epoch();
  }
  if (last_epochs_.size() == engine.num_shards()) {
    opts.shard_clean.resize(engine.num_shards());
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      opts.shard_clean[s] = last_epochs_[s] == epochs[s];
    }
  }
  Result<delta::DeltaSaveStats> stats = delta::SaveDeltaCheckpoint(
      wal_dir_, engine, wal_seqno, stream_seqnos, stream_now, opts);
  if (!stats.ok()) return stats.status();
  last_epochs_ = std::move(epochs);

  const delta::DeltaSaveStats& st = stats.value();
  metrics_.GetCounter("checkpoint.files_written")->Inc(st.files_written);
  metrics_.GetCounter("checkpoint.bytes_written")->Inc(st.bytes_written);
  metrics_.GetGauge("checkpoint.delta_chain_len")
      ->Set(static_cast<double>(st.chain_len));
  if (st.rebase) metrics_.GetCounter("checkpoint.rebases")->Inc();
  ADREC_LOG(kInfo) << "delta checkpoint gen " << st.gen
                   << (st.rebase ? " (rebase)" : "") << ": wrote "
                   << st.files_written << "/" << st.files_total
                   << " file(s), " << st.bytes_written << "/"
                   << st.bytes_total << " byte(s), chain length "
                   << st.chain_len;
  return Status::OK();
}

Status CheckpointManager::Checkpoint(const core::ShardedEngine& engine,
                                     ShardedWal* wal, Timestamp stream_now) {
  if (wal == nullptr) {
    return Status::InvalidArgument("checkpoint needs a wal");
  }
  const size_t n = wal->num_streams();
  if (n != 1 && n != engine.num_shards()) {
    return Status::FailedPrecondition(StringFormat(
        "wal has %zu stream(s), engine has %zu shard(s)", n,
        engine.num_shards()));
  }
  obs::TraceSpan span("checkpoint.save");
  const auto save_start = std::chrono::steady_clock::now();

  std::string tmp;
  if (options_.mode == CheckpointMode::kFull) {
    tmp = wal_dir_ + "/checkpoint.tmp";
    ADREC_RETURN_NOT_OK(RemoveAll(tmp));
    std::error_code ec;
    std::filesystem::create_directories(tmp, ec);
    if (ec) {
      return Status::IoError("cannot create " + tmp + ": " + ec.message());
    }
  }

  // Seal (+ snapshot, in full mode) every stream's shards, one thread
  // per stream. The mark is taken after the sync, so it covers every
  // record the snapshot can reflect, and truncation later never touches
  // the active segment. Delta mode snapshots after the barrier instead —
  // the diff needs the previous generation's manifest as a whole, and
  // quiet shards skip serialization entirely.
  std::vector<uint64_t> marks(n, 0);
  std::vector<Status> results(n);
  ForEachStream(n, [&](size_t s) {
    WalWriter* stream = wal->stream(s);
    results[s] = stream->Rotate();
    if (results[s].ok()) results[s] = stream->Sync();
    if (!results[s].ok()) return;
    marks[s] = stream->synced_seqno();
    if (options_.mode != CheckpointMode::kFull) return;
    for (size_t shard : StreamShards(engine.num_shards(), s, n)) {
      results[s] =
          core::SaveEngineSnapshot(engine.shard(shard), ShardDir(tmp, shard));
      if (!results[s].ok()) return;
    }
  });
  for (const Status& st : results) ADREC_RETURN_NOT_OK(st);
  const uint64_t max_mark = *std::max_element(marks.begin(), marks.end());
  // A one-stream manifest carries no per-stream marks (classic layout).
  const std::vector<uint64_t> stream_marks =
      n == 1 ? std::vector<uint64_t>{} : marks;

  if (options_.mode == CheckpointMode::kDelta) {
    ADREC_RETURN_NOT_OK(DeltaSave(engine, max_mark, stream_marks, stream_now));
  } else {
    ADREC_RETURN_NOT_OK(WriteFullManifest(tmp, engine.num_shards(), max_mark,
                                          stream_marks, stream_now));
    ADREC_RETURN_NOT_OK(SwapFullCheckpoint(tmp));
  }

  if (options_.analysis_retention >= 0) {
    const Timestamp floor = stream_now - options_.analysis_retention;
    size_t deleted = 0;
    for (size_t s = 0; s < n; ++s) {
      Result<size_t> d =
          wal->stream(s)->TruncateSealedBefore(marks[s] + 1, floor);
      if (!d.ok()) return d.status();
      deleted += d.value();
    }
    if (deleted > 0) {
      ADREC_LOG(kInfo) << "checkpoint: truncated " << deleted
                       << " sealed wal segment(s) across " << n
                       << " stream(s)";
    }
  }
  RecordSave(save_start);
  return Status::OK();
}

Result<RecoveryResult> CheckpointManager::Recover(core::ShardedEngine* engine,
                                                  size_t wal_streams) const {
  if (engine == nullptr) {
    return Status::InvalidArgument("recover needs an engine");
  }
  const size_t n = wal_streams;
  if (n == 0 || (n != 1 && n != engine->num_shards())) {
    return Status::FailedPrecondition(StringFormat(
        "wal has %zu stream(s), engine has %zu shard(s)", n,
        engine->num_shards()));
  }
  // A log read with the wrong stream count replays nothing (or the wrong
  // shard's history): refuse it like ShardedWal::Open would.
  ADREC_RETURN_NOT_OK(CheckStreamLayout(wal_dir_, n));
  RecoveryResult result;
  result.stream_checkpoint_seqnos.assign(n, 0);
  result.stream_next_seqnos.assign(n, 1);

  // --- Pick the newest loadable checkpoint (classic or delta head). ---
  const PickedCheckpoint picked = PickCheckpoint(wal_dir_, checkpoint_dir());
  if (picked.found) {
    const CheckpointManifest& m = picked.manifest;
    if (m.num_shards != engine->num_shards()) {
      return Status::FailedPrecondition(StringFormat(
          "checkpoint %s was taken with %zu shard(s), engine has %zu",
          picked.dir.c_str(), m.num_shards, engine->num_shards()));
    }
    // One stream: the manifest's wal seqno is the mark. N streams: one
    // "S" mark per stream.
    if (m.stream_seqnos.size() != (n == 1 ? 0 : n)) {
      return Status::FailedPrecondition(StringFormat(
          "checkpoint %s records %zu wal stream mark(s), expected %zu "
          "stream(s)",
          picked.dir.c_str(), m.stream_seqnos.size(), n));
    }
    result.from_checkpoint = true;
    result.from_delta = picked.is_delta;
    result.delta_gen = picked.delta_gen;
    result.delta_chain_len = picked.delta_chain_len;
    result.stream_checkpoint_seqnos =
        n == 1 ? std::vector<uint64_t>{m.wal_seqno} : m.stream_seqnos;
    result.checkpoint_stream_time = m.stream_time;
    result.max_event_time = m.stream_time;
  }

  // --- Load + replay, one thread per stream: thread s touches only log
  // stream s and the engine shards it feeds (all of them for one
  // stream). Records up to the mark are re-fed window-only; records past
  // it go through normal ingest. ---
  struct PerStream {
    Status status = Status::OK();
    size_t window_replayed = 0;
    size_t live_replayed = 0;
    uint64_t torn_bytes = 0;
    uint64_t last_seqno = 0;
    Timestamp max_event_time = INT64_MIN;
  };
  std::vector<PerStream> per_stream(n);
  ForEachStream(n, [&](size_t s) {
    PerStream& out = per_stream[s];
    const uint64_t mark = result.stream_checkpoint_seqnos[s];
    if (result.from_checkpoint) {
      for (size_t shard : StreamShards(engine->num_shards(), s, n)) {
        out.status = core::LoadEngineSnapshot(ShardDir(picked.dir, shard),
                                              engine->mutable_shard(shard));
        if (!out.status.ok()) return;
      }
    }
    ScanOptions scan;
    scan.truncate_torn_tail = true;
    Status replay_error = Status::OK();
    auto report = ScanLog(
        StreamDir(wal_dir_, s, n), scan, [&](const Record& record) {
          auto event = DecodeEventPayload(record.payload);
          Status st = Status::IoError(event.status().message());
          if (event.ok()) {
            const feed::FeedEvent& ev = event.value();
            if (ev.time > out.max_event_time) out.max_event_time = ev.time;
            const bool covered = record.seqno <= mark;
            st = ApplyLoggedEvent(
                engine, s, n, ev,
                covered ? ApplyMode::kWindowOnly : ApplyMode::kLive);
            if (st.ok()) {
              if (covered) {
                ++out.window_replayed;
              } else {
                ++out.live_replayed;
              }
              return st;
            }
          }
          replay_error = Status(
              st.code(),
              StringFormat("wal stream %zu record %llu: %s", s,
                           static_cast<unsigned long long>(record.seqno),
                           st.message().c_str()));
          return replay_error;
        });
    if (!report.ok()) {
      out.status = report.status();
      return;
    }
    if (!replay_error.ok()) {
      out.status = replay_error;
      return;
    }
    out.torn_bytes = report.value().torn_bytes;
    out.last_seqno = report.value().last_seqno;
  });
  if (!picked.staging.empty()) {
    // The materialised copy served its purpose; errors only cost disk.
    const Status st = RemoveAll(picked.staging);
    if (!st.ok()) ADREC_LOG(kWarning) << st.ToString();
  }
  for (size_t s = 0; s < n; ++s) {
    const PerStream& out = per_stream[s];
    ADREC_RETURN_NOT_OK(out.status);
    result.window_replayed += out.window_replayed;
    result.live_replayed += out.live_replayed;
    result.torn_bytes_truncated += out.torn_bytes;
    if (out.max_event_time > result.max_event_time) {
      result.max_event_time = out.max_event_time;
    }
    result.stream_next_seqnos[s] =
        std::max(out.last_seqno, result.stream_checkpoint_seqnos[s]) + 1;
    result.checkpoint_seqno = std::max(result.checkpoint_seqno,
                                       result.stream_checkpoint_seqnos[s]);
    result.next_seqno =
        std::max(result.next_seqno, result.stream_next_seqnos[s]);
  }
  return result;
}

}  // namespace adrec::wal
