// Open-loop client population (DESIGN.md §10).
//
// One OpenLoopClient models the aggregate of all external users: it draws
// arrival instants from an ArrivalProcess, stamps each generated transaction
// with a fee tier, and pushes it at the ingress mempools.  The loop is open —
// generation never waits for completion — so offered load above the service
// rate is possible, and the admission machinery (not an implicit pacing
// assumption) is what keeps the system bounded.
//
// The client also owns the two feedback paths:
//
//   Backpressure — before each inter-arrival draw the worst pool level
//                  throttles the offered rate (soft → ×0.5, shed → ×0.25);
//                  at offer time a hard-full target pool sheds low-tier
//                  traffic outright (top-tier offers still go through so a
//                  high fee can displace a resident).  Both are counted.
//   Retry        — rejected, shed and evicted transactions re-offer after an
//                  exponential-backoff-with-jitter wait, up to
//                  RetryPolicy::max_attempts total offers; after that the tx
//                  is terminally rejected (reason-coded, counted).
//
// A dispatch pump drains the pools into the system under an inflight window
// (credits = max_inflight − in_flight).  The pump re-arms itself only while
// work remains — arrivals pending, retries in backoff, or residents queued —
// so `run_until_idle` terminates once the run drains.
//
// Determinism: tier draws, backoff jitter and arrival gaps all come from
// forks of one seeded Rng; pool behaviour is a pure function of the offer
// sequence.  Same seed + config → same admit/reject/expire/dispatch order.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/rng.hpp"
#include "mempool/ingress.hpp"
#include "simnet/simulator.hpp"
#include "workload/arrival.hpp"

namespace jenga::workload {

struct ClientConfig {
  ArrivalConfig arrival;
  RetryPolicy retry;
  /// Total transactions to generate (arrivals stop after this many).
  std::size_t total_txs = 0;
  /// Dispatch window: credits per pump tick = max_inflight − in_flight().
  std::size_t max_inflight = 512;
};

struct ClientStats {
  std::uint64_t generated = 0;
  std::uint64_t offers = 0;             // admission attempts, incl. retries
  std::uint64_t retries = 0;            // backoff waits scheduled
  std::uint64_t shed = 0;               // offers avoided under hard backpressure
  std::uint64_t evicted_requeued = 0;   // displaced residents sent to backoff
  std::uint64_t rejected_terminal = 0;  // gave up after max_attempts (or dup)
  std::uint64_t expired_doa = 0;        // dead on arrival (TTL ≤ 0)
  std::uint64_t expired_pool = 0;       // TTL-shed out of a pool

  /// Transactions that ended at the client instead of inside the system.
  [[nodiscard]] std::uint64_t terminal_local() const {
    return rejected_terminal + expired_doa + expired_pool;
  }
};

class OpenLoopClient {
 public:
  using MakeTx = std::function<ledger::Transaction()>;
  using Submit = std::function<void(core::TxPtr)>;
  using InflightFn = std::function<std::size_t()>;

  OpenLoopClient(sim::Simulator& sim, mempool::IngressSet& ingress, ClientConfig config,
                 Rng rng, MakeTx make_tx, Submit submit, InflightFn inflight);

  /// Schedules the first arrival and arms the dispatch pump.
  void start();

  /// External rate scaling (FaultPlan overload bursts hook in here); composes
  /// with the backpressure throttle.
  void set_rate_multiplier(double m) { rate_multiplier_ = m; }
  [[nodiscard]] double rate_multiplier() const { return rate_multiplier_; }

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] bool arrivals_done() const { return generated_ >= config_.total_txs; }
  [[nodiscard]] std::size_t pending_retries() const { return pending_retries_; }
  /// Every generated tx has left the client: dispatched into the system or
  /// terminal (rejected/expired).  System-side completion is the caller's
  /// remaining check.
  [[nodiscard]] bool drained() const {
    return arrivals_done() && pending_retries_ == 0 && ingress_.resident() == 0;
  }

  void set_telemetry(telemetry::MetricsRegistry* registry) { registry_ = registry; }

 private:
  struct TxMeta {
    std::uint8_t tier = 0;
    std::uint32_t attempt = 0;  // offers made so far
  };

  void schedule_next_arrival();
  void on_arrival();
  void offer_now(core::TxPtr tx, std::uint8_t tier, std::uint32_t attempt);
  void schedule_retry(core::TxPtr tx, std::uint8_t tier, std::uint32_t next_attempt);
  void arm_pump();
  void pump();
  [[nodiscard]] bool work_remaining() const {
    return !arrivals_done() || pending_retries_ > 0 || ingress_.resident() > 0;
  }

  sim::Simulator& sim_;
  mempool::IngressSet& ingress_;
  ClientConfig config_;
  Rng arrival_rng_;
  Rng tier_rng_;
  Rng retry_rng_;
  ArrivalProcess arrival_;
  MakeTx make_tx_;
  Submit submit_;
  InflightFn inflight_;

  ClientStats stats_;
  std::size_t generated_ = 0;
  std::size_t pending_retries_ = 0;
  double rate_multiplier_ = 1.0;
  bool pump_armed_ = false;
  /// Retry metadata for resident txs (consulted when one is evicted or
  /// expires); erased on dispatch.
  std::unordered_map<Hash256, TxMeta> resident_meta_;
  telemetry::MetricsRegistry* registry_ = nullptr;
};

}  // namespace jenga::workload
