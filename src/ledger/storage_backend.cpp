#include "ledger/storage_backend.hpp"

#include <cassert>

#include "common/codec.hpp"

namespace jenga::ledger {

// --- InMemoryBackend ---------------------------------------------------------

void InMemoryBackend::put(std::span<const std::uint8_t> key,
                          std::span<const std::uint8_t> value) {
  kv_[std::vector<std::uint8_t>(key.begin(), key.end())] =
      std::vector<std::uint8_t>(value.begin(), value.end());
  ++stats_.puts;
}

void InMemoryBackend::commit(const Hash256& root) {
  last_root_ = root;
  committed_ = true;
  ++stats_.commits;
}

Result<RecoveredState> InMemoryBackend::load() {
  RecoveredState out;
  out.entries.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.entries.emplace_back(k, v);
  out.committed_root = last_root_;
  out.has_commit = committed_;
  return out;
}

// --- DurableBackend ----------------------------------------------------------

namespace {

std::vector<std::uint8_t> encode_u64_le(std::uint64_t v) {
  std::vector<std::uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

bool decode_u64_le(std::span<const std::uint8_t> in, std::uint64_t& out) {
  if (in.size() != 8) return false;
  out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return true;
}

}  // namespace

DurableBackend::DurableBackend(StorageEnv* env, DurableOptions options)
    : env_(env), options_(std::move(options)) {}

void DurableBackend::open_wal_fresh() {
  // Truncate rather than unlink: truncation only touches the in-process image
  // until the next fsync, so a crash here leaves the OLD records durable —
  // exactly what an un-synced unlink would do on a real disk.  The generation
  // marker makes such a stale log harmless at recovery.
  wal_file_ = env_->open(wal_name());
  wal_file_->truncate(0);
  wal_ = std::make_unique<WalWriter>(wal_file_);
  next_seq_ = 1;
  append(WalOp::kGeneration, encode_u64_le(wal_gen_), {}, Hash256{});
}

void DurableBackend::append(WalOp op, std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> value, const Hash256& root) {
  WalRecord record;
  record.seq = next_seq_++;
  record.op = op;
  record.key.assign(key.begin(), key.end());
  record.value.assign(value.begin(), value.end());
  record.root = root;
  wal_->append(record);
  ++stats_.wal_records;
  stats_.wal_bytes = wal_->bytes_appended();
}

void DurableBackend::put(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> value) {
  assert(opened_ && "DurableBackend: load() must run before mutations");
  append(WalOp::kPut, key, value, Hash256{});
  kv_[std::vector<std::uint8_t>(key.begin(), key.end())] =
      std::vector<std::uint8_t>(value.begin(), value.end());
  ++stats_.puts;
}

void DurableBackend::commit(const Hash256& root) {
  assert(opened_ && "DurableBackend: load() must run before mutations");
  append(WalOp::kCommit, {}, {}, root);
  wal_->sync();  // the one durability barrier per decided block
  ++stats_.commits;
  if (options_.snapshot_interval != 0 &&
      ++commits_since_snapshot_ >= options_.snapshot_interval)
    write_snapshot(root);
}

void DurableBackend::write_snapshot(const Hash256& root) {
  Writer payload;
  payload.u32(kSnapVersion);
  payload.u64(wal_gen_);  // the generation this snapshot supersedes
  payload.hash(root);
  payload.u64(kv_.size());
  for (const auto& [k, v] : kv_) {
    payload.blob(k);
    payload.blob(v);
  }
  Writer framed;
  framed.u32(kSnapMagic);
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.u32(crc32c(payload.data()));
  framed.bytes(payload.data());

  // Write-tmp, fsync, rename: a crash at any point leaves either the old
  // snapshot (tmp ignored at load) or the new one — never a half-written file
  // under the live name.
  env_->remove(snap_tmp_name());
  StorageFile* tmp = env_->open(snap_tmp_name());
  tmp->append(framed.data());
  tmp->sync();
  env_->rename(snap_tmp_name(), snap_name());
  env_->open(snap_name())->sync();  // durabilize the rename itself
  ++stats_.snapshots_written;
  stats_.snapshot_bytes += framed.size();

  // The old log is fully covered by the snapshot; the replacement opens the
  // next generation.  A crash in between leaves snapshot(gen G) + log(gen G),
  // which load() recognises as stale and discards.
  ++wal_gen_;
  open_wal_fresh();
  commits_since_snapshot_ = 0;
}

Result<RecoveredState> DurableBackend::load() {
  kv_.clear();
  std::uint64_t snap_gen = 0;
  Hash256 snap_root{};
  bool have_snapshot = false;

  if (env_->exists(snap_name())) {
    const StorageFile* snap = env_->open(snap_name());
    std::vector<std::uint8_t> data(snap->size());
    if (!data.empty() && !snap->read(0, data)) return Err(std::string("snapshot: read failed"));
    if (data.size() < kWalHeaderBytes) return Err(std::string("snapshot: truncated header"));
    Reader header{std::span<const std::uint8_t>(data).subspan(0, kWalHeaderBytes)};
    const std::uint32_t magic = header.u32();
    const std::uint32_t len = header.u32();
    const std::uint32_t crc = header.u32();
    if (magic != kSnapMagic) return Err(std::string("snapshot: bad magic"));
    if (len != data.size() - kWalHeaderBytes) return Err(std::string("snapshot: bad length"));
    const auto payload = std::span(data).subspan(kWalHeaderBytes);
    if (crc32c(payload) != crc)
      return Err(std::string("snapshot: checksum mismatch (corruption)"));
    Reader r(payload);
    const std::uint32_t version = r.u32();
    snap_gen = r.u64();
    snap_root = r.hash();
    const std::uint64_t count = r.u64();
    if (r.failed() || version != kSnapVersion)
      return Err(std::string("snapshot: undecodable payload"));
    for (std::uint64_t i = 0; i < count; ++i) {
      auto key = r.blob();
      auto value = r.blob();
      if (r.failed()) return Err(std::string("snapshot: undecodable entry"));
      kv_[std::move(key)] = std::move(value);
    }
    if (!r.exhausted()) return Err(std::string("snapshot: trailing bytes"));
    have_snapshot = true;
  }
  // A leftover tmp is an interrupted snapshot attempt; the live snapshot (or
  // its absence) is still authoritative.
  if (env_->exists(snap_tmp_name())) env_->remove(snap_tmp_name());

  RecoveredState out;
  out.committed_root = snap_root;
  out.has_commit = have_snapshot;

  bool wal_live = false;  // log continues the snapshot (vs stale/absent)
  WalReplay replay;
  if (env_->exists(wal_name())) {
    auto replayed = wal_replay(env_->open(wal_name()));
    if (!replayed.ok()) return Err(std::string("wal: ") + replayed.error());
    replay = std::move(replayed.value());
    if (!replay.records.empty()) {
      const WalRecord& head = replay.records.front();
      std::uint64_t log_gen = 0;
      if (head.op != WalOp::kGeneration || !decode_u64_le(head.key, log_gen))
        return Err(std::string("wal: missing generation header"));
      if (log_gen > snap_gen + 1)
        return Err(std::string("wal: generation ahead of snapshot (snapshot lost)"));
      wal_live = log_gen == snap_gen + 1;
    }
  }

  std::size_t last_commit = 0;  // index past the last kCommit record
  if (wal_live) {
    for (std::size_t i = 0; i < replay.records.size(); ++i)
      if (replay.records[i].op == WalOp::kCommit) last_commit = i + 1;
    for (std::size_t i = 0; i < last_commit; ++i) {
      const WalRecord& rec = replay.records[i];
      switch (rec.op) {
        case WalOp::kPut:
          kv_[rec.key] = rec.value;
          break;
        case WalOp::kCommit:
          out.committed_root = rec.root;
          out.has_commit = true;
          break;
        case WalOp::kGeneration:
          break;
      }
    }
    stats_.replayed_records = last_commit;
    stats_.uncommitted_dropped = replay.records.size() - last_commit;
  }
  stats_.torn_tail_bytes = replay.torn_tail_bytes;

  // Re-arm the writer.  A live log is truncated just past the last commit so
  // future appends never interleave with a discarded tail; a stale or absent
  // log restarts fresh at the generation after the snapshot.
  wal_gen_ = snap_gen + 1;
  if (wal_live && last_commit > 0) {
    wal_file_ = env_->open(wal_name());
    wal_file_->truncate(replay.record_ends[last_commit - 1]);
    wal_file_->sync();
    wal_ = std::make_unique<WalWriter>(wal_file_);
    next_seq_ = replay.records[last_commit - 1].seq + 1;
  } else {
    open_wal_fresh();
  }
  commits_since_snapshot_ = 0;
  opened_ = true;

  out.entries.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.entries.emplace_back(k, v);
  return out;
}

}  // namespace jenga::ledger
