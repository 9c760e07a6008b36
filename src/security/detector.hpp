// Phi-accrual failure detection over simulated message inter-arrival times
// (DESIGN.md §14).
//
// The detector is a passive sim::ArrivalObserver: every node-to-node delivery
// feeds one inter-arrival sample for the directed (peer -> observer) pair, and
// suspicion is computed lazily at query time — no timers, no rng, no scheduled
// events, so attaching the detector leaves a run's event stream bit-identical.
//
// phi(pair) = -log10 P(interval >= elapsed) under a normal fit of the pair's
// recent inter-arrival window (Hayashibara et al., "The phi accrual failure
// detector").  phi grows continuously as silence stretches: small phi means
// "probably just late", large phi means "statistically dead".  Consumers pick
// their own thresholds/actions: consensus shortens the view timeout for a
// suspected leader, the 2PC coordinator hedges its unicast legs, and the rumor
// mesh tightens its pull-repair cadence when the whole network looks degraded.
//
// Actuation is gated on `armed()`: an attached detector samples whether armed
// or not, but the advisory outputs (view_timeout / pull_cadence / suspect
// transitions) only deviate from their static defaults once a chaos plan arms
// it.  This is the simulation-determinism compromise: inter-arrival
// statistics over bursty protocol traffic inevitably cross any finite
// threshold during legitimate quiet periods, and a spurious deviation in a
// clean run would break the bit-identity contract every subsystem here is
// held to.  Faulted runs are exactly the runs that arm a plan, so the
// detect -> react loop is live precisely when there is something to react to.
// Because unarmed samples drive nothing, harness::run_experiment builds a
// detector only for faulted runs (arming it at once); its per-link rings are
// too large to keep for runs that cannot use them.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"

namespace jenga::security {

struct DetectorConfig {
  /// Inter-arrival samples kept per directed pair (ring buffer).
  std::size_t window = 32;
  /// No suspicion below this many samples: a pair we have barely heard from
  /// has no statistics worth acting on.
  std::size_t min_samples = 8;
  /// Suspicion threshold: phi >= 8 is P(still alive) <= 1e-8 under the fit.
  double phi_suspect = 8.0;
  /// Floor on a recorded interval; sub-millisecond bursts would otherwise
  /// collapse the variance and make phi explode on the next normal gap.
  SimTime min_interval = kMillisecond;
  /// Adaptive view-timeout bounds: suspected-dead leader shrinks the timeout
  /// toward the floor, a degraded (gray-slow) network grows it toward the
  /// ceiling so laggards stop triggering spurious view changes.
  double timeout_shrink = 0.4;
  double timeout_grow = 2.0;
  SimTime view_floor = 2 * kSecond;
  SimTime view_ceiling = 240 * kSecond;
  /// Degraded-network signal: fast EWMA of the global inter-arrival stream
  /// exceeding `degrade_factor` x its post-warmup minimum.
  double ewma_alpha = 0.05;
  double degrade_factor = 3.0;
  std::size_t warmup_samples = 64;
};

struct DetectorStats {
  std::uint64_t samples = 0;
  std::uint64_t suspicions = 0;   // pair transitions into suspected
  std::uint64_t recoveries = 0;   // suspected pairs cleared by an arrival
  SimTime first_suspicion_at = 0; // time-to-detect anchor for the gray bench
};

class FailureDetector final : public sim::ArrivalObserver {
 public:
  FailureDetector(sim::Simulator& sim, DetectorConfig config = {})
      : sim_(sim), config_(config) {}

  /// Arms actuation (see header comment).  Sampling is unaffected.
  void arm(bool on) { armed_ = on; }
  [[nodiscard]] bool armed() const { return armed_; }

  // sim::ArrivalObserver
  void on_arrival(NodeId from, NodeId to, SimTime now) override;

  /// Suspicion level of `peer` as seen by `observer` at the current sim time.
  /// 0 while below min_samples.
  [[nodiscard]] double phi(NodeId observer, NodeId peer) const;

  /// True when phi crosses the suspicion threshold (armed only).  Records the
  /// suspected -> cleared transitions for any_suspected()/stats.
  bool suspect(NodeId observer, NodeId peer);

  [[nodiscard]] bool any_suspected() const { return suspect_count_ > 0; }

  /// True when the global inter-arrival EWMA says the network as a whole is
  /// running well above its healthy baseline (armed only).
  [[nodiscard]] bool degraded() const;

  /// Adaptive BFT view timeout: exactly `base` when unarmed or healthy,
  /// shrunk (floored) for a suspected leader, grown (ceilinged) when the
  /// network is degraded but the leader is not individually suspect.
  SimTime view_timeout(NodeId observer, NodeId leader, SimTime base);

  /// Adaptive anti-entropy cadence for the rumor mesh: halves the tick
  /// divisor (floor 1 — every tick) while the network is degraded, so pull
  /// repair runs hotter exactly when losses/latency make it matter.
  [[nodiscard]] std::uint32_t pull_cadence(std::uint32_t base) const;

  [[nodiscard]] const DetectorStats& stats() const { return stats_; }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  struct PairState {
    std::vector<SimTime> intervals;  // ring buffer of size config.window
    std::size_t next = 0;            // ring write cursor
    std::size_t count = 0;
    double sum = 0;
    double sum_sq = 0;
    SimTime last_arrival = -1;
    bool suspected = false;
  };

  [[nodiscard]] static std::uint64_t pair_key(NodeId observer, NodeId peer) {
    return (static_cast<std::uint64_t>(observer.value) << 32) | peer.value;
  }
  [[nodiscard]] double phi_of(const PairState& p, SimTime now) const;

  sim::Simulator& sim_;
  DetectorConfig config_;
  bool armed_ = false;
  std::unordered_map<std::uint64_t, PairState> pairs_;
  std::size_t suspect_count_ = 0;
  DetectorStats stats_;
  // Degradation signal: fast EWMA of all inter-arrival samples vs the best
  // (minimum) EWMA level seen after warmup.
  double ewma_ = 0;
  double baseline_ = 0;
};

}  // namespace jenga::security
