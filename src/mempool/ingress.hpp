// Per-shard ingress: the admission layer between the open-loop client and the
// consensus pipeline (DESIGN.md §10).
//
// An IngressSet holds one bounded fee-priority Mempool per ingress shard
// (transactions route by the hash of their sender account, the same rule that
// places the sender's balance).  It owns three cross-cutting concerns:
//
//   Backpressure — each pool's fill ratio maps to a level (kNone below the
//                  soft watermark, kSoft between the watermarks, kShed at or
//                  above the hard one).  The client reads the level of the
//                  target shard before generating: kSoft halves its offered
//                  rate for that shard's traffic, kShed skips generation
//                  entirely (counted, never silent).
//   Dispatch     — pops highest-priority entries across all pools (round-
//                  robining shards in index order for fairness) and submits
//                  them, bounded by the credit count the caller derives from
//                  the system's in-flight window.  Stale entries are shed
//                  first, so a dispatched tx is never already expired.
//   Audit trail  — every admission event (admit/reject/evict/expire/dispatch)
//                  folds into a chained SHA-256 "admission digest" — the
//                  determinism witness: two runs with the same seed and
//                  config must produce bit-identical digests regardless of
//                  exec worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/sha256.hpp"
#include "ledger/placement.hpp"
#include "mempool/mempool.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/metrics.hpp"

namespace jenga::mempool {

/// Backpressure level for one ingress shard, derived from pool occupancy.
enum class Backpressure : std::uint8_t {
  kNone = 0,  // fill < soft watermark: accept freely
  kSoft,      // soft ≤ fill < hard: ask the source to slow down
  kShed,      // fill ≥ hard: source should not even generate
};

struct IngressConfig {
  std::uint32_t num_shards = 1;
  MempoolConfig pool;
  /// Watermarks on pool fill ratio; soft < hard ≤ 1.
  double soft_watermark = 0.70;
  double hard_watermark = 0.95;
};

/// Aggregate view over all pools (per-pool stats remain accessible).
struct IngressStats {
  MempoolStats totals;
  std::size_t resident = 0;    // current entries across all pools
  std::size_t peak_resident = 0;
};

class IngressSet {
 public:
  explicit IngressSet(IngressConfig config);

  /// Routing rule: ingress shard = shard of the sender's account.
  [[nodiscard]] ShardId shard_for(const core::TxPtr& tx) const {
    return ledger::shard_of_account(tx->sender, config_.num_shards);
  }

  /// Admission attempt; routes to the sender's shard pool, records telemetry
  /// and the audit digest.  An eviction surfaces in the outcome so the caller
  /// can hand the displaced tx back to its client (retry path).
  OfferOutcome offer(core::TxPtr tx, SimTime now, std::uint8_t fee_tier,
                     std::optional<SimTime> ttl_override = std::nullopt);

  /// Sheds TTL-expired entries from every pool; returns how many were shed.
  /// The expiry observer (if set) sees each shed tx — the client uses it to
  /// retire per-tx retry state and count terminal expiries.
  std::size_t expire(SimTime now);

  void set_expiry_observer(std::function<void(const core::TxPtr&)> observer) {
    expiry_observer_ = std::move(observer);
  }

  /// Dispatches up to `credits` transactions via `submit`, highest priority
  /// first within each shard, shards visited round-robin from where the last
  /// dispatch stopped.  Expired entries are shed (never submitted).  Returns
  /// the number actually submitted.
  std::size_t dispatch(SimTime now, std::size_t credits,
                       const std::function<void(core::TxPtr)>& submit);

  [[nodiscard]] Backpressure backpressure(ShardId shard) const;
  /// Worst level across all shards (the arrival process's global throttle).
  [[nodiscard]] Backpressure worst_backpressure() const;

  [[nodiscard]] std::size_t resident() const;
  [[nodiscard]] IngressStats stats() const;
  [[nodiscard]] const Mempool& pool(ShardId shard) const {
    return pools_[shard.value];
  }
  [[nodiscard]] const IngressConfig& config() const { return config_; }

  /// Chained hash over the full admission event sequence (see file comment).
  [[nodiscard]] Hash256 admission_digest() const;

  /// Optional passive telemetry (mempool.* counters, depth gauge, per-tier
  /// wait histograms).  Recording never changes behaviour.
  void set_telemetry(telemetry::MetricsRegistry* registry) { registry_ = registry; }

  /// Optional causal tracer: admission and dispatch fold into each tx's
  /// lineage as anchors, so a flight-recorder dump shows the mempool leg of
  /// a stuck transaction's history.  Passive like the registry.
  void set_causal(telemetry::CausalTracer* causal) { causal_ = causal; }

 private:
  void fold_event(std::string_view kind, const Hash256& h, SimTime now);
  void record_depth();

  IngressConfig config_;
  std::vector<Mempool> pools_;
  std::uint32_t dispatch_cursor_ = 0;  // round-robin resume point
  std::size_t peak_resident_ = 0;
  Hash256 digest_state_{};  // running chain value
  std::function<void(const core::TxPtr&)> expiry_observer_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::CausalTracer* causal_ = nullptr;
};

/// Anchor `aux` codes used by IngressSet admission anchors (AnchorKind::kNote).
enum class IngressNote : std::uint32_t {
  kAdmit = 1,
  kEvicted = 2,
  kExpired = 3,
  kDispatched = 4,
};

}  // namespace jenga::mempool
