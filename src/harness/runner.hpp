// Experiment runner: builds a system under test, replays a synthetic trace
// through it, and extracts the metrics the paper's evaluation reports.
#pragma once

#include <memory>
#include <string>

#include "baselines/baseline_base.hpp"
#include "core/jenga_system.hpp"
#include "gossip/batch.hpp"
#include "gossip/rumor.hpp"
#include "mempool/ingress.hpp"
#include "security/detector.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/arrival.hpp"
#include "workload/client.hpp"
#include "workload/trace.hpp"

namespace jenga::core {

// RunResult's report formats.  The system counts these facts only in its
// metrics registry; run_experiment reads them back by name into these
// structs after the run.

/// Relay-certificate verification (`relay.*` counters).  Every grant/result
/// batch carries the commit certificate of the consensus decision that
/// produced it; receivers check it before ingesting.  Batches arriving inside
/// a gossip frame are pooled into one aggregate-verified pass
/// (`batch_passes`) covering `batch_certs` certificates.
struct CertVerifyStats {
  std::uint64_t individual_checks = 0;  // relay.cert_checks: certs verified one at a time
  std::uint64_t batch_passes = 0;       // pooled batch verifications run
  std::uint64_t batch_certs = 0;        // certs covered by those passes
  std::uint64_t batch_fallbacks = 0;    // pooled pass failed -> per-cert retry
  std::uint64_t invalid_certs = 0;      // batches rejected (bad cert)
  std::uint64_t unsigned_batches = 0;   // synthetic late-abort answers (no cert)
};

/// Stuck-2PC recovery-ladder activity (`recovery.*` counters).
struct RecoveryStats {
  std::uint64_t probes_sent = 0;        // recovery.probes: kProbe re-requests
  std::uint64_t abort_queries = 0;      // kAbortQuery escalations
  std::uint64_t acks_recovered = 0;     // rounds settled by kCredited / probe re-ack
  std::uint64_t refunds = 0;            // never-credited debits returned
  std::uint64_t retries = 0;            // fresh attempts re-ingested after a refund
  std::uint64_t terminal_aborts = 0;    // retry budget exhausted
  std::uint64_t hedged_sends = 0;       // duplicate legs to a backup contact
  std::uint64_t resolved = 0;           // flagged-stuck rounds that finalized
  SimTime last_resolved_at = 0;         // recovery.last_resolved_us gauge
};

}  // namespace jenga::core

namespace jenga::harness {

enum class SystemKind : std::uint8_t {
  kJenga = 0,
  kJengaNoLattice,      // ablation: w/o Orthogonal Lattice Structure
  kJengaNoGlobalLogic,  // ablation: w/o Network-Wide Logic Storage
  kCxFunc,
  kSingleShard,
  kPyramid,
};

[[nodiscard]] const char* system_name(SystemKind kind);

/// Paper Table I nodes-per-shard for S ∈ {4,6,8,10,12}; other S interpolate.
[[nodiscard]] std::uint32_t paper_nodes_per_shard(std::uint32_t num_shards);

struct RunConfig {
  SystemKind kind = SystemKind::kJenga;
  std::uint32_t num_shards = 4;
  /// 0 = paper Table I size scaled by `scale`, rounded down to a multiple of
  /// the shard count (the lattice needs integral subgroups), and no smaller
  /// than the least such multiple of at least 4 (BFT's minimum group).
  std::uint32_t nodes_per_shard = 0;
  double scale = 0.25;
  std::uint64_t seed = 1;

  std::size_t contract_txs = 2000;
  std::size_t transfer_txs = 0;
  SimTime max_sim_time = 1200 * kSecond;

  workload::TraceConfig trace;  // num_contracts/num_accounts defaults apply
  baselines::CrossShardMode cross_mode = baselines::CrossShardMode::kClientRelay;
  std::uint32_t merge_span = 0;  // Pyramid; 0 = max(2, S/4)
  std::uint32_t max_block_items = 4096;
  /// Worker threads for batch transaction execution (src/exec/), every system
  /// kind.  Results are bit-identical for every value; 1 = serial.
  std::uint32_t exec_workers = 1;
  sim::NetConfig net;
  /// Non-empty: write the full JSONL telemetry trace here after the run.
  std::string trace_out;

  // --- Causal tracing & flight recorder (DESIGN.md §11) -------------------
  /// Assign every network message a causal span (parent = the message being
  /// handled when the send happened).  Passive: digests and metrics stay
  /// bit-identical on or off.  Adds cspan lines + per-tx dag_* fields to the
  /// JSONL export and enables critical-path extraction.
  bool causal_trace = false;
  /// Span table capacity before new sends stop being traced (chains truncate
  /// gracefully; the drop count is exported in the meta line).
  std::size_t causal_span_capacity = std::size_t{1} << 20;
  /// > 0: keep a ring of the last N events per node and dump a causally
  /// ordered window when check_invariants fails, the 2PC watchdog fires, or
  /// replicas diverge on a decide.
  std::size_t flight_events_per_node = 0;
  /// Non-empty: each flight dump is also written to `<prefix>-<n>.jsonl`
  /// (dumps are always retained in telemetry->flight.dumps()).
  std::string flight_dump_path;

  // --- Live epoch reconfiguration (Jenga kinds only; baselines ignore) ----
  /// > 0: reshuffle the lattice every `epoch_interval` of simulated time.
  SimTime epoch_interval = 0;
  SimTime epoch_drain_window = 10 * kSecond;
  SimTime epoch_beacon_lead = 20 * kSecond;

  // --- Durable authenticated state (Jenga kinds only; baselines ignore) ---
  core::StorageBackendKind storage_backend = core::StorageBackendKind::kNone;
  std::uint32_t storage_snapshot_interval = 64;
  /// Model proof-verified state sync on crash recovery / rehoming.
  bool model_state_sync = false;

  // --- Open-loop ingestion (DESIGN.md §10) --------------------------------
  /// Every generated tx (contract_txs + transfer_txs in total) enters through
  /// the open-loop client: Poisson or bursty arrivals at
  /// arrival.rate_tps into per-ingress-shard fee-priority mempools, admission
  /// control with reason codes, TTL expiry, backpressure into the arrival
  /// process, client retry with backoff, and a credit-windowed dispatch pump
  /// into the system.  Works on every SystemKind.
  workload::ArrivalConfig arrival;
  workload::RetryPolicy retry;
  mempool::MempoolConfig mempool;  // per-ingress-shard pool
  /// Dispatch credit window: pool → system submissions keep at most this many
  /// transactions in flight.  With arrivals far above the service rate and a
  /// pool that neither fills nor expires, this is a closed loop of this size.
  std::size_t max_inflight = 512;
  /// Scripted faults, armed before the run (Jenga kinds only).
  security::FaultPlan faults_plan;

  // --- Self-healing (DESIGN.md §14) ---------------------------------------
  /// Attach an armed phi-accrual failure detector when `faults_plan` is
  /// non-empty (Jenga kinds): adaptive view timeouts, hotter pull repair,
  /// hedged 2PC legs.  Clean runs and baselines get no detector, so they stay
  /// bit-identical with this on or off.
  bool self_healing = true;
  /// Stuck-2PC recovery ladder knobs (Jenga kinds; see core/recovery.hpp).
  core::RecoveryConfig recovery;
};

/// Admission-layer outcome of a run.
struct IngressReport {
  mempool::IngressStats pools;
  workload::ClientStats client;
  /// Chained hash over every admit/reject/evict/expire/dispatch event — the
  /// determinism witness for the admission sequence.
  Hash256 admission_digest{};
  /// Post-drain safety audit (Jenga kinds only; see audited flag).
  bool invariants_audited = false;
  security::InvariantReport invariants;
};

struct RunResult {
  TxStats stats;
  sim::TrafficStats traffic;
  sim::FaultStats faults;
  StorageReport storage;
  double tps = 0;
  double latency_s = 0;
  double cross_ratio = 0;
  std::uint64_t sim_events = 0;
  SimTime sim_end = 0;
  std::uint32_t nodes_per_shard = 0;
  std::uint32_t total_nodes = 0;
  /// Canonical digest over every shard's chain tip and state store at run
  /// end — what the determinism tests compare across exec worker counts.
  Hash256 ledger_digest{};
  /// Order-independent digest over final state + outcome counts (Jenga kinds
  /// only; zero for baselines).  Excludes timing-dependent chain tips, so it
  /// is the witness compared ACROSS dissemination transports.
  Hash256 state_digest{};
  /// Dissemination-layer counters (all zero unless a message class ran the
  /// rumor transport on a Jenga kind; see src/gossip/).
  gossip::RumorStats rumor;
  gossip::BatchStats relay_batches;
  /// Read back from the `relay.*` counters (all 0 for baselines).
  core::CertVerifyStats cert_checks;
  /// Failure-detector activity (all 0 unless self_healing on a faulted Jenga
  /// run, the only runs that build a detector).
  security::DetectorStats detector;
  /// Read back from the `recovery.*` counters (Jenga kinds; all 0 in clean
  /// runs).
  core::RecoveryStats recovery;
  /// Admission-layer outcome.
  IngressReport ingress;
  /// Every run is instrumented (telemetry is cheap enough to stay on): the
  /// full metric registry / tracer / message telemetry, and the per-phase
  /// latency breakdown derived from the tracer.
  std::shared_ptr<telemetry::Telemetry> telemetry;
  telemetry::PhaseBreakdown breakdown;
};

[[nodiscard]] RunResult run_experiment(const RunConfig& config);

/// Environment override: JENGA_BENCH_SCALE (e.g. "1.0" for paper-size
/// committees) and JENGA_BENCH_TXS multiply the defaults.
[[nodiscard]] double bench_scale_from_env(double fallback);
[[nodiscard]] std::size_t bench_txs_from_env(std::size_t fallback);

}  // namespace jenga::harness
