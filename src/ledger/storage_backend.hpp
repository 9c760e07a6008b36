// Pluggable persistence under StateStore.
//
// The store keeps its working set in memory (flat maps + Merkle trie) and
// write-throughs every mutation here.  Two implementations:
//
//   InMemoryBackend — a plain ordered map.  Durability is trivial (process
//     lifetime), which makes it the bit-identity oracle: for any mutation
//     sequence, a store on this backend and a store on the durable backend
//     must report the same authenticated root, and a durable store recovered
//     after a crash must land on a root the oracle passed through.
//
//   DurableBackend — write-ahead log + periodic snapshots over a StorageEnv.
//     Every put appends a CRC-framed WAL record; commit(root) appends a
//     kCommit record carrying the authenticated root and issues the fsync.
//     Every `snapshot_interval` commits the full key/value set is written to
//     a fresh checksummed snapshot file (write-tmp, fsync, rename), after
//     which the WAL restarts empty.  load() = newest valid snapshot + WAL
//     replay UP TO THE LAST COMMIT RECORD: a trailing batch that never
//     reached its commit barrier is discarded (it was never durable), and the
//     recovered root is checked against the root stored in that commit
//     record — so recovery either reproduces an exact committed state or
//     refuses with an error.
//
// Key/value bytes are opaque here; StateStore owns the encoding.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "ledger/storage_env.hpp"
#include "ledger/wal.hpp"

namespace jenga::ledger {

/// Durability traffic counters (folded into telemetry / the storage bench).
struct BackendStats {
  std::uint64_t puts = 0;
  std::uint64_t commits = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_bytes = 0;
  /// Recovery-side observations (populated by load()).
  std::uint64_t replayed_records = 0;
  std::uint64_t torn_tail_bytes = 0;
  std::uint64_t uncommitted_dropped = 0;
};

/// Everything load() recovered: the key/value set as of the last durable
/// commit, plus the root that commit promised.
struct RecoveredState {
  std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> entries;
  Hash256 committed_root{};
  bool has_commit = false;  // false: empty/fresh backend (genesis boot)
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  virtual void put(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value) = 0;
  /// Durability barrier at a decided block; `root` is the authenticated state
  /// root after the batch.
  virtual void commit(const Hash256& root) = 0;
  /// Recovers the durable image (see class comment).  Errors mean the medium
  /// is corrupt and the caller must refuse the state (full re-sync instead).
  [[nodiscard]] virtual Result<RecoveredState> load() = 0;

  [[nodiscard]] const BackendStats& stats() const { return stats_; }

 protected:
  BackendStats stats_;
};

class InMemoryBackend final : public StorageBackend {
 public:
  [[nodiscard]] const char* name() const override { return "in-memory"; }
  void put(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value) override;
  void commit(const Hash256& root) override;
  [[nodiscard]] Result<RecoveredState> load() override;

 private:
  std::map<std::vector<std::uint8_t>, std::vector<std::uint8_t>> kv_;
  Hash256 last_root_{};
  bool committed_ = false;
};

struct DurableOptions {
  /// File-name prefix inside the env (one backend per prefix).
  std::string prefix = "state";
  /// Full snapshot every N commits; 0 = WAL-only, never snapshot.
  std::uint32_t snapshot_interval = 64;
};

class DurableBackend final : public StorageBackend {
 public:
  /// The env must outlive the backend.
  DurableBackend(StorageEnv* env, DurableOptions options);

  [[nodiscard]] const char* name() const override { return "durable"; }
  void put(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value) override;
  void commit(const Hash256& root) override;
  [[nodiscard]] Result<RecoveredState> load() override;

 private:
  [[nodiscard]] std::string wal_name() const { return options_.prefix + ".wal"; }
  [[nodiscard]] std::string snap_name() const { return options_.prefix + ".snap"; }
  [[nodiscard]] std::string snap_tmp_name() const { return options_.prefix + ".snap.tmp"; }
  void write_snapshot(const Hash256& root);
  void open_wal_fresh();
  void append(WalOp op, std::span<const std::uint8_t> key, std::span<const std::uint8_t> value,
              const Hash256& root);

  StorageEnv* env_;
  DurableOptions options_;
  /// Mirror of the durable key/value set, maintained so snapshots can be
  /// written without asking the store (and so load() can replay onto the
  /// snapshot image).  Ordered, so snapshot bytes are canonical.
  std::map<std::vector<std::uint8_t>, std::vector<std::uint8_t>> kv_;
  StorageFile* wal_file_ = nullptr;
  std::unique_ptr<WalWriter> wal_;
  /// WAL generation: every snapshot closes one generation and the replacement
  /// log opens the next.  A log whose generation does not follow the newest
  /// snapshot's is stale (crash between rename and log reset) and is ignored.
  std::uint64_t wal_gen_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint32_t commits_since_snapshot_ = 0;
  bool opened_ = false;  // load() must run before any mutation
};

/// Snapshot file framing (same header shape as the WAL):
///   [u32 magic 'JSN1'] [u32 payload_len] [u32 crc32c(payload)] [payload]
///   payload: u32 version, u64 generation, root hash, u64 count, count× (key
///   blob, value blob) in key order.
inline constexpr std::uint32_t kSnapMagic = 0x314E534A;  // "JSN1"
inline constexpr std::uint32_t kSnapVersion = 1;

}  // namespace jenga::ledger
