// Write-ahead log: checksummed, length-prefixed records over a StorageFile.
//
// Record framing (all integers little-endian):
//
//   [u32 magic 'JWL1'] [u32 payload_len] [u32 crc32c(payload)] [payload]
//
// The payload starts with a u64 monotone sequence number, then an opcode and
// its operands (see WalRecord).  The framing is what recovery leans on:
//
//   * torn / truncated tail — the final record was cut mid-write (crash
//     between append and fsync).  Replay stops cleanly at the last intact
//     record; the dropped bytes are reported, not fatal.
//   * bit flip — a CRC mismatch (or broken magic) FOLLOWED by another intact
//     record proves the damage is inside the log, not at its tail.  That is
//     corruption, not a crash artifact, and replay refuses the log.
//
// The distinction matters: a torn tail is the expected shape of every crash
// and must recover; interior damage means the medium lied and the only safe
// answer is an error the caller can turn into a full state re-sync.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "ledger/storage_env.hpp"

namespace jenga::ledger {

/// Software CRC-32C (Castagnoli).  Exposed for the snapshot format and tests.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data);

inline constexpr std::uint32_t kWalMagic = 0x314C574A;  // "JWL1"
inline constexpr std::size_t kWalHeaderBytes = 12;

/// Op 2 is retired (the store is put-only) and must not be reused: a
/// checksum-valid record carrying it decodes as corruption.
enum class WalOp : std::uint8_t {
  kPut = 1,        // key blob + value blob
  kCommit = 3,     // authenticated state root after the batch
  kGeneration = 4, // first record of every log: key = u64 LE snapshot generation
};

struct WalRecord {
  std::uint64_t seq = 0;
  WalOp op = WalOp::kPut;
  std::vector<std::uint8_t> key;
  std::vector<std::uint8_t> value;  // kPut only
  Hash256 root{};                   // kCommit only
};

/// Appends records; the caller controls sync() placement (the commit path
/// appends a kCommit record then syncs — one durability barrier per block).
class WalWriter {
 public:
  explicit WalWriter(StorageFile* file) : file_(file) {}

  void append(const WalRecord& record);
  void sync() { file_->sync(); }

  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_appended_; }
  [[nodiscard]] std::uint64_t records_appended() const { return records_appended_; }

 private:
  StorageFile* file_;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t records_appended_ = 0;
};

/// Outcome of a full-log replay.
struct WalReplay {
  std::vector<WalRecord> records;
  /// Offset just past each record, parallel to `records` (so recovery can
  /// truncate the log exactly after the last commit it keeps).
  std::vector<std::uint64_t> record_ends;
  /// Bytes dropped off a torn/truncated tail (0 on a clean log).
  std::uint64_t torn_tail_bytes = 0;
  /// Offset just past the last intact record (where appends may resume).
  std::uint64_t valid_end = 0;
};

/// Reads every intact record from the start of `file`.  Returns an error iff
/// interior corruption is detected (a broken record with intact records after
/// it) — the bit-flip case.  A broken suffix with nothing valid behind it is
/// treated as a torn tail and reported in `torn_tail_bytes`.
[[nodiscard]] Result<WalReplay> wal_replay(const StorageFile* file);

}  // namespace jenga::ledger
