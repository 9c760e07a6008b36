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
  /// the shard count (the lattice needs integral subgroups).
  std::uint32_t nodes_per_shard = 0;
  double scale = 0.25;
  std::uint64_t seed = 1;

  std::size_t contract_txs = 2000;
  std::size_t transfer_txs = 0;
  SimTime inject_window = 20 * kSecond;
  /// > 0: closed-loop injection — keep this many transactions outstanding
  /// (bounded backlog, as a load generator against a real testbed would),
  /// ignoring inject_window.  0: open-loop uniform over the window.
  std::size_t closed_loop_window = 0;
  SimTime max_sim_time = 1200 * kSecond;
  std::uint64_t trace_height = 1'000'000;  // workload maturity (Fig. 3 trends)

  workload::TraceConfig trace;  // num_contracts/num_accounts defaults apply
  baselines::CrossShardMode cross_mode = baselines::CrossShardMode::kClientRelay;
  std::uint32_t merge_span = 0;  // Pyramid; 0 = max(2, S/2)
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
  /// Non-empty: write a chrome://tracing-compatible JSON view of the causal
  /// DAG here after the run (requires causal_trace).
  std::string chrome_out;

  // --- Live epoch reconfiguration (Jenga kinds only; baselines ignore) ----
  /// > 0: reshuffle the lattice every `epoch_interval` of simulated time.
  SimTime epoch_interval = 0;
  SimTime epoch_drain_window = 10 * kSecond;
  SimTime epoch_beacon_lead = 20 * kSecond;
  std::size_t epoch_min_contributions = 0;  // 0 = 2N/3 + 1
  std::uint64_t epoch_vdf_iterations = 256;
  std::size_t epoch_vdf_checkpoints = 8;

  // --- Durable authenticated state (Jenga kinds only; baselines ignore) ---
  core::StorageBackendKind storage_backend = core::StorageBackendKind::kNone;
  std::uint32_t storage_snapshot_interval = 64;
  /// Model proof-verified state sync on crash recovery / rehoming.
  bool model_state_sync = false;

  // --- Open-loop ingestion (DESIGN.md §10) --------------------------------
  /// arrival.mode == kNone (default): the legacy injection paths above run
  /// bit-identically to earlier PRs.  Any other mode routes every generated
  /// tx through per-ingress-shard fee-priority mempools: Poisson/bursty/
  /// diurnal arrivals at arrival.rate_tps, admission control with reason
  /// codes, TTL expiry, backpressure into the arrival process, client retry
  /// with backoff, and a credit-windowed dispatch pump into the system.
  /// Works on every SystemKind; contract_txs + transfer_txs still set the
  /// total generated.
  workload::ArrivalConfig arrival;
  workload::RetryPolicy retry;
  workload::FeeTierSpec fee_tiers;
  mempool::MempoolConfig mempool;  // per-ingress-shard pool
  double mempool_soft_watermark = 0.70;
  double mempool_hard_watermark = 0.95;
  /// Dispatch credit window: pool → system submissions keep at most this many
  /// transactions in flight (open-loop modes only).
  std::size_t max_inflight = 512;
  SimTime pump_interval = 50 * kMillisecond;
  /// Scripted faults, armed before the run (Jenga kinds only; overload bursts
  /// additionally need an open-loop arrival mode to have a client to throttle).
  security::FaultPlan faults_plan;

  // --- Self-healing (DESIGN.md §14) ---------------------------------------
  /// Attach an armed phi-accrual failure detector when `faults_plan` is
  /// non-empty (Jenga kinds): adaptive view timeouts, hotter pull repair,
  /// hedged 2PC legs.  Clean runs and baselines get no detector, so they stay
  /// bit-identical with this on or off.
  bool self_healing = true;
  security::DetectorConfig detector;
  /// Stuck-2PC recovery ladder knobs (Jenga kinds; see core/recovery.hpp).
  core::RecoveryConfig recovery;
};

/// Admission-layer outcome of an open-loop run (zeroed for legacy modes).
struct IngressReport {
  bool enabled = false;
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
  core::CertVerifyStats cert_checks;
  /// Reconfigurations completed during the run and transactions carried
  /// across a boundary (both 0 unless epoch_interval > 0 on a Jenga kind).
  std::uint64_t epoch_transitions = 0;
  std::uint64_t epoch_txs_requeued = 0;
  /// Recovery-time state sync counters (all 0 unless model_state_sync).
  core::StateSyncStats state_sync;
  /// Failure-detector activity (all 0 unless self_healing on a faulted Jenga
  /// run, the only runs that build a detector).
  security::DetectorStats detector;
  /// Stuck-2PC recovery-ladder activity (Jenga kinds; all 0 in clean runs).
  core::RecoveryStats recovery;
  /// Admission-layer outcome (enabled only for open-loop arrival modes).
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
