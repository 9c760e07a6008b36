// Per-transaction phase tracer.
//
// Every transaction leaves a TxTrace: the submit instant, monotone phase
// checkpoints recorded as the protocol crosses them, and the finish instant.
// The four latency intervals derived from the checkpoints partition the
// end-to-end commit latency *exactly* (each boundary is clamped to be
// monotone), which is what lets the breakdown benches reconcile per-phase
// sums against total latency instead of re-deriving components:
//
//   submit ──► state_lock ──► grant_relay ──► execute ──► commit
//          │              │               │           │
//          │              │               │           └ result relay +
//          │              │               │             commit consensus
//          │              │               └ execution-site consensus + VM
//          │              └ subgroup relay + gather of the last grant
//          └ per-shard Phase-1 consensus (pre-prepare → lock grant)
//
// Checkpoints keep the *latest* event per phase (a 3-shard tx's state_lock
// boundary is the last shard's grant), so phases measure the critical path.
// BFT round and view-change durations are not kept here: the replicas record
// them once, in the registry's bft.round_us / bft.view_change_us histograms.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace jenga::telemetry {

class CausalTracer;
class FlightRecorder;

enum class Phase : std::uint8_t {
  kStateLock = 0,  // shard decided the block granting (or refusing) its state
  kGather,         // execution site holds every involved shard's grant
  kExecute,        // execution consensus decided the result
  kCommitApply,    // a shard applied the certified outcome
  kCount
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

struct TxTrace {
  SimTime submit = -1;
  SimTime finish = -1;
  std::array<SimTime, kPhaseCount> checkpoint{-1, -1, -1, -1};
  bool committed = false;
  bool done = false;

  /// The four monotone intervals summing exactly to finish - submit:
  /// [state_lock, grant_relay, execute, commit].  Unset checkpoints (a flow
  /// that skips a phase) contribute a zero-length interval.
  [[nodiscard]] std::array<SimTime, 4> intervals() const;
  /// Index (into intervals()) of the longest interval — the phase to blame
  /// for this transaction's latency.
  [[nodiscard]] std::size_t critical_interval() const;
};

inline constexpr std::size_t kIntervalCount = 4;
[[nodiscard]] const char* interval_name(std::size_t i);

/// Aggregate over every finished trace: per-interval histograms (µs), exact
/// per-interval sums for reconciliation, and critical-path attribution.
struct PhaseBreakdown {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t incomplete = 0;  // submitted but never finished
  std::array<Histogram, kIntervalCount> interval_hist;  // committed txs only
  Histogram total_hist;                                 // committed txs only
  std::array<std::int64_t, kIntervalCount> interval_sum{};
  std::int64_t total_sum = 0;
  std::array<std::uint64_t, kIntervalCount> critical{};

  [[nodiscard]] double mean_interval_seconds(std::size_t i) const;
  [[nodiscard]] double mean_total_seconds() const;
  [[nodiscard]] double quantile_interval_seconds(std::size_t i, double q) const;
  /// Largest mean interval — "where did the time go".
  [[nodiscard]] std::size_t dominant_interval() const;
};

class PhaseTracer {
 public:
  void on_submit(const Hash256& tx, SimTime now);
  /// Advances the phase checkpoint (keeps the max); `key` is the shard /
  /// channel id the event happened on (the flight recorder's node label).
  /// Events after the transaction finished are dropped — a late duplicate
  /// outcome must not smear a settled trace.
  void phase_event(const Hash256& tx, Phase phase, std::uint32_t key, SimTime now);
  void on_finish(const Hash256& tx, bool committed, SimTime now);

  [[nodiscard]] const TxTrace* find(const Hash256& tx) const;
  [[nodiscard]] const std::unordered_map<Hash256, TxTrace>& traces() const {
    return traces_;
  }
  [[nodiscard]] std::size_t traced() const { return traces_.size(); }

  [[nodiscard]] PhaseBreakdown breakdown() const;

  /// Optional sinks: when a CausalTracer is attached (and enabled), every
  /// accepted submit/phase/finish is mirrored as a per-tx anchor tied to the
  /// current causal context; a FlightRecorder receives phase events for its
  /// ring buffers.  Both passive.
  void set_causal(CausalTracer* causal) { causal_ = causal; }
  void set_flight(FlightRecorder* flight) { flight_ = flight; }

 private:
  std::unordered_map<Hash256, TxTrace> traces_;
  CausalTracer* causal_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace jenga::telemetry
