#include "harness/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "baselines/cxfunc.hpp"
#include "baselines/pyramid.hpp"
#include "baselines/single_shard.hpp"
#include "harness/genesis.hpp"

namespace jenga::harness {

const char* system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kJenga: return "Jenga";
    case SystemKind::kJengaNoLattice: return "Jenga w/o OLS";
    case SystemKind::kJengaNoGlobalLogic: return "Jenga w/o NWLS";
    case SystemKind::kCxFunc: return "CX Func";
    case SystemKind::kSingleShard: return "Single Shard";
    case SystemKind::kPyramid: return "Pyramid";
  }
  return "?";
}

std::uint32_t paper_nodes_per_shard(std::uint32_t num_shards) {
  // Paper Table I.
  switch (num_shards) {
    case 4: return 180;
    case 6: return 200;
    case 8: return 210;
    case 10: return 230;
    case 12: return 240;
    default: break;
  }
  if (num_shards < 4) return 180;
  if (num_shards > 12) return 240;
  return 180 + (num_shards - 4) * 8;  // smooth in-between
}

double bench_scale_from_env(double fallback) {
  if (const char* s = std::getenv("JENGA_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return fallback;
}

std::size_t bench_txs_from_env(std::size_t fallback) {
  if (const char* s = std::getenv("JENGA_BENCH_TXS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

namespace {

std::uint32_t resolve_nodes_per_shard(const RunConfig& cfg) {
  if (cfg.nodes_per_shard != 0) return cfg.nodes_per_shard;
  auto k = static_cast<std::uint32_t>(paper_nodes_per_shard(cfg.num_shards) * cfg.scale);
  k = std::max(cfg.num_shards, k - k % cfg.num_shards);  // integral subgroups
  // BFT needs at least 4 members.
  return std::max<std::uint32_t>(k, 4 + (4 % cfg.num_shards == 0 ? 0 : 0));
}

}  // namespace

RunResult run_experiment(const RunConfig& config) {
  const std::uint32_t k = resolve_nodes_per_shard(config);

  workload::TraceGenerator gen(config.trace, Rng(config.seed ^ 0x7ACE));
  sim::Simulator sim;
  sim::Network net(sim, config.net, Rng(config.seed ^ 0x9E7));
  // Moved into the system under test, which moves each contract's initial
  // state into its shard store: no copy of the genesis outlives set-up.
  core::Genesis genesis = make_genesis(gen);

  // Always-on telemetry: passive recording, bit-identical runs.
  auto telemetry = std::make_shared<telemetry::Telemetry>();
  if (config.causal_trace) {
    telemetry->causal.set_capacity(config.causal_span_capacity);
    telemetry->causal.enable(true);
  }
  if (config.flight_events_per_node > 0) {
    telemetry->flight.configure(k * config.num_shards, config.flight_events_per_node);
    if (!config.flight_dump_path.empty())
      telemetry->flight.set_dump_path(config.flight_dump_path);
  }
  net.set_telemetry(telemetry.get());

  // The system under test, behind a uniform submit/metric facade.
  std::unique_ptr<core::JengaSystem> jenga;
  std::unique_ptr<baselines::BaselineSystem> baseline;
  switch (config.kind) {
    case SystemKind::kJenga:
    case SystemKind::kJengaNoLattice:
    case SystemKind::kJengaNoGlobalLogic: {
      core::JengaConfig jc;
      jc.num_shards = config.num_shards;
      jc.nodes_per_shard = k;
      jc.seed = config.seed;
      jc.max_block_items = config.max_block_items;
      jc.exec_workers = config.exec_workers;
      jc.epoch_interval = config.epoch_interval;
      jc.epoch_drain_window = config.epoch_drain_window;
      jc.epoch_beacon_lead = config.epoch_beacon_lead;
      jc.epoch_min_contributions = config.epoch_min_contributions;
      jc.epoch_vdf_iterations = config.epoch_vdf_iterations;
      jc.epoch_vdf_checkpoints = config.epoch_vdf_checkpoints;
      jc.storage_backend = config.storage_backend;
      jc.storage_snapshot_interval = config.storage_snapshot_interval;
      jc.model_state_sync = config.model_state_sync;
      jc.recovery = config.recovery;
      jc.pipeline = config.kind == SystemKind::kJenga ? core::Pipeline::kFull
                    : config.kind == SystemKind::kJengaNoLattice
                        ? core::Pipeline::kNoLattice
                        : core::Pipeline::kNoGlobalLogic;
      jenga = std::make_unique<core::JengaSystem>(sim, net, jc, std::move(genesis));
      break;
    }
    default: {
      baselines::BaselineConfig bc;
      bc.num_shards = config.num_shards;
      bc.nodes_per_shard = k;
      bc.seed = config.seed;
      bc.max_block_items = config.max_block_items;
      bc.cross_mode = config.cross_mode;
      bc.exec_workers = config.exec_workers;
      bc.merge_span =
          config.merge_span != 0 ? config.merge_span : std::max(2u, config.num_shards / 4);
      if (config.kind == SystemKind::kCxFunc) {
        baseline = std::make_unique<baselines::CxFuncSystem>(sim, net, bc, std::move(genesis));
      } else if (config.kind == SystemKind::kSingleShard) {
        baseline =
            std::make_unique<baselines::SingleShardSystem>(sim, net, bc, std::move(genesis));
      } else {
        baseline = std::make_unique<baselines::PyramidSystem>(sim, net, bc, std::move(genesis));
      }
      break;
    }
  }
  auto submit = [&](core::TxPtr tx) {
    if (jenga) {
      jenga->submit(std::move(tx));
    } else {
      baseline->submit(std::move(tx));
    }
  };
  auto stats = [&]() -> const TxStats& { return jenga ? jenga->stats() : baseline->stats(); };
  const std::uint64_t initial_balance =
      jenga ? jenga->total_account_balance() : baseline->total_account_balance();

  // Failure detection (DESIGN.md §14): the detector exists only where it can
  // act — a Jenga kind with self_healing on and a fault plan to react to —
  // and is armed from the start.  Everywhere else no detector is built, so
  // clean runs neither pay for its per-link sampling nor change behaviour.
  std::unique_ptr<security::FailureDetector> detector;
  if (config.self_healing && config.faults_plan.event_count() > 0 && jenga) {
    detector = std::make_unique<security::FailureDetector>(sim, config.detector);
    detector->arm(true);
    net.set_arrival_observer(detector.get());
  }

  if (jenga) {
    jenga->set_telemetry(telemetry.get());
    if (detector) jenga->set_failure_detector(detector.get());
    jenga->start();
  } else {
    baseline->set_telemetry(telemetry.get());
    baseline->start();
  }

  const std::size_t total = config.contract_txs + config.transfer_txs;
  auto mix = std::make_shared<Rng>(config.seed ^ 0x317);
  auto contracts_left = std::make_shared<std::size_t>(config.contract_txs);
  auto transfers_left = std::make_shared<std::size_t>(config.transfer_txs);
  auto make_one = [&, mix, contracts_left, transfers_left]() -> ledger::Transaction {
    const bool pick_transfer =
        *transfers_left > 0 && (*contracts_left == 0 ||
                                mix->uniform(*contracts_left + *transfers_left) <
                                    *transfers_left);
    if (pick_transfer) {
      --*transfers_left;
    } else {
      --*contracts_left;
    }
    return pick_transfer ? gen.transfer_tx(sim.now())
                         : gen.contract_tx(config.trace_height, sim.now());
  };
  auto submit_one = [&, make_one] {
    submit(std::make_shared<ledger::Transaction>(make_one()));
  };

  // Open-loop ingestion (admission control, backpressure, retry) when an
  // arrival mode is selected; otherwise the legacy injection paths below run
  // bit-identically to earlier revisions.
  const bool open_loop = config.arrival.mode != workload::ArrivalMode::kNone;
  std::unique_ptr<mempool::IngressSet> ingress;
  std::unique_ptr<workload::OpenLoopClient> client;
  std::unique_ptr<security::FaultInjector> injector;
  if (open_loop) {
    mempool::IngressConfig ic;
    ic.num_shards = config.num_shards;
    ic.pool = config.mempool;
    ic.soft_watermark = config.mempool_soft_watermark;
    ic.hard_watermark = config.mempool_hard_watermark;
    ingress = std::make_unique<mempool::IngressSet>(ic);
    ingress->set_telemetry(&telemetry->registry);
    ingress->set_causal(&telemetry->causal);

    workload::ClientConfig cc;
    cc.arrival = config.arrival;
    cc.retry = config.retry;
    cc.fee_tiers = config.fee_tiers;
    cc.total_txs = total;
    cc.max_inflight = config.max_inflight;
    cc.pump_interval = config.pump_interval;
    client = std::make_unique<workload::OpenLoopClient>(
        sim, *ingress, cc, Rng(config.seed ^ 0xC11E47), make_one, submit,
        [&]() -> std::size_t { return jenga ? jenga->in_flight() : baseline->in_flight(); });
    client->set_telemetry(&telemetry->registry);
    client->start();
  }
  if (config.faults_plan.event_count() > 0 && jenga) {
    // Scripted faults ride along (Jenga kinds; the injector drives the
    // system's fault hooks).  Overload bursts reach the open-loop client's
    // rate multiplier; without a client they have nothing to throttle.
    injector = std::make_unique<security::FaultInjector>(sim, net, *jenga);
    if (client) {
      injector->set_overload_hook(
          [c = client.get()](double m) { c->set_rate_multiplier(m); });
    }
    injector->arm(config.faults_plan);
  }

  if (open_loop) {
    // Arrivals already scheduled by the client.
  } else if (config.closed_loop_window > 0) {
    // Closed loop: a pacer keeps `window` transactions outstanding.
    // It reaches itself through a weak_ptr, so the pending event owns it and
    // it dies with the simulator instead of keeping itself alive.
    auto pacer = std::make_shared<std::function<void()>>();
    *pacer = [&, self = std::weak_ptr(pacer), submit_one, total] {
      const auto& s = stats();
      const std::size_t completed = s.committed + s.aborted;
      const std::size_t outstanding = s.submitted - completed;
      std::size_t can = config.closed_loop_window > outstanding
                            ? config.closed_loop_window - outstanding
                            : 0;
      while (can-- > 0 && s.submitted < total) submit_one();
      if (stats().submitted < total ||
          stats().committed + stats().aborted < total)
        sim.schedule_after(200 * kMillisecond, [p = self.lock()] { (*p)(); });
    };
    sim.schedule_at(0, [pacer] { (*pacer)(); });
  } else {
    // Open-loop injection, uniform over the window.
    for (std::size_t i = 0; i < total; ++i) {
      const SimTime at =
          total <= 1 ? 0
                     : static_cast<SimTime>(static_cast<double>(config.inject_window) *
                                            static_cast<double>(i) / static_cast<double>(total));
      sim.schedule_at(at, submit_one);
    }
  }

  // Run in slices; stop as soon as every submission completed.
  const SimTime slice = 10 * kSecond;
  SimTime now = 0;
  while (now < config.max_sim_time) {
    now += slice;
    sim.run_until(now);
    const auto& s = stats();
    if (open_loop) {
      // Open loop: every generated tx must reach a terminal state — committed
      // or aborted inside the system, or terminally rejected/expired at the
      // admission layer (the client tracks those).
      if (client->drained() && s.committed + s.aborted == s.submitted) break;
    } else if (s.submitted == total && s.committed + s.aborted == total) {
      break;
    }
  }

  RunResult result;
  result.stats = stats();
  if (open_loop) {
    const workload::ClientStats& cs = client->stats();
    result.stats.rejected = cs.rejected_terminal;
    result.stats.expired = cs.expired_doa + cs.expired_pool;
    result.ingress.enabled = true;
    result.ingress.pools = ingress->stats();
    result.ingress.client = cs;
    result.ingress.admission_digest = ingress->admission_digest();
    if (jenga) {
      result.ingress.invariants_audited = true;
      result.ingress.invariants =
          security::check_invariants(*jenga, initial_balance, ingress.get());
      // A failed audit fires the flight recorder: the last-N-events window
      // plus lineage becomes the post-mortem artifact for this run.
      if (!result.ingress.invariants.ok()) telemetry->flight.trigger("invariant.violation");
    }
  }
  result.traffic = net.stats();
  result.faults = net.fault_stats();
  result.storage = jenga ? jenga->storage_report() : baseline->storage_report();
  result.tps = result.stats.tps();
  result.latency_s = result.stats.avg_latency_seconds();
  result.cross_ratio = result.traffic.cross_shard_message_ratio();
  result.sim_events = sim.events_processed();
  result.sim_end = sim.now();
  result.nodes_per_shard = k;
  result.total_nodes = k * config.num_shards;
  result.ledger_digest = jenga ? jenga->ledger_digest() : baseline->ledger_digest();
  if (jenga) {
    result.state_digest = jenga->state_digest();
    result.cert_checks = jenga->cert_stats();
    if (jenga->rumor_mesh() != nullptr) result.rumor = jenga->rumor_mesh()->stats();
    if (jenga->batcher() != nullptr) result.relay_batches = jenga->batcher()->stats();
    result.epoch_transitions = jenga->epoch_stats().transitions;
    result.epoch_txs_requeued = jenga->epoch_stats().txs_requeued;
    result.state_sync = jenga->state_sync_stats();
    result.recovery = jenga->recovery_stats();
    // Fold durability traffic into the registry (per-shard backend counters).
    if (config.storage_backend != core::StorageBackendKind::kNone) {
      auto& sreg = telemetry->registry;
      for (std::uint32_t s = 0; s < config.num_shards; ++s) {
        const ledger::StorageBackend* backend = jenga->shard_store(ShardId{s}).backend();
        if (backend == nullptr) continue;
        const ledger::BackendStats& bs = backend->stats();
        sreg.counter("storage.commits").inc(bs.commits);
        sreg.counter("storage.wal_records").inc(bs.wal_records);
        sreg.counter("storage.wal_bytes").inc(bs.wal_bytes);
        sreg.counter("storage.snapshots_written").inc(bs.snapshots_written);
        sreg.counter("storage.snapshot_bytes").inc(bs.snapshot_bytes);
      }
    }
  }

  // Fold the run-level counters into the registry so one metrics snapshot
  // carries the whole picture (traffic, faults, outcome counts).
  auto& reg = telemetry->registry;
  reg.counter("net.messages.intra_shard").set(result.traffic.messages[0]);
  reg.counter("net.messages.cross_shard").set(result.traffic.messages[1]);
  reg.counter("net.messages.client").set(result.traffic.messages[2]);
  reg.counter("net.bytes.intra_shard").set(result.traffic.bytes[0]);
  reg.counter("net.bytes.cross_shard").set(result.traffic.bytes[1]);
  reg.counter("net.bytes.client").set(result.traffic.bytes[2]);
  reg.counter("net.faults.dropped").set(result.faults.dropped);
  reg.counter("net.faults.duplicated").set(result.faults.duplicated);
  reg.counter("net.faults.partition_blocked").set(result.faults.partition_blocked);
  reg.counter("net.faults.down_blocked").set(result.faults.down_blocked);
  reg.counter("tx.submitted").set(result.stats.submitted);
  reg.counter("sim.events").set(result.sim_events);
  if (result.epoch_transitions > 0) {
    reg.counter("epoch.transitions").set(result.epoch_transitions);
    reg.counter("epoch.txs_requeued").set(result.epoch_txs_requeued);
  }
  if (result.rumor.rumors_started > 0) {
    reg.counter("net.rumor.started").set(result.rumor.rumors_started);
    reg.counter("net.rumor.pushes").set(result.rumor.pushes_sent);
    reg.counter("net.rumor.pulls").set(result.rumor.pull_requests);
    reg.counter("net.rumor.pull_responses").set(result.rumor.pull_responses);
    reg.counter("net.rumor.dups_dropped").set(result.rumor.dups_dropped);
    reg.counter("net.rumor.delivered").set(result.rumor.delivered);
    reg.counter("net.rumor.covered").set(result.rumor.covered_rumors);
    if (result.rumor.pulls_throttled > 0)
      reg.counter("net.rumor.pull_throttled").set(result.rumor.pulls_throttled);
    if (result.rumor.resp_rejected > 0)
      reg.counter("net.rumor.resp_rejected").set(result.rumor.resp_rejected);
    auto& cov = reg.histogram("net.rumor.rounds_to_coverage");
    for (const std::uint32_t rounds : result.rumor.coverage_rounds) {
      cov.record(static_cast<std::int64_t>(rounds));
    }
  }
  if (result.relay_batches.items_enqueued > 0) {
    reg.counter("net.batch.items").set(result.relay_batches.items_enqueued);
    reg.counter("net.batch.frames").set(result.relay_batches.frames_sent);
    reg.gauge("net.batch.max_frame_items")
        .set(static_cast<std::int64_t>(result.relay_batches.max_frame_items));
  }
  if (result.relay_batches.frames_rejected > 0)
    reg.counter("net.batch.frame_rejected").set(result.relay_batches.frames_rejected);
  if (result.faults.gray_dropped > 0)
    reg.counter("net.faults.gray_dropped").set(result.faults.gray_dropped);
  if (detector) {
    result.detector = detector->stats();
    reg.counter("detector.samples").set(result.detector.samples);
    reg.counter("detector.suspicions").set(result.detector.suspicions);
    reg.counter("detector.recoveries").set(result.detector.recoveries);
  }
  {
    const core::CertVerifyStats& cc = result.cert_checks;
    if (cc.individual_checks + cc.batch_passes + cc.unsigned_batches > 0) {
      reg.counter("relay.cert_checks").set(cc.individual_checks);
      reg.counter("relay.batch_passes").set(cc.batch_passes);
      reg.counter("relay.batch_certs").set(cc.batch_certs);
      reg.counter("relay.batch_fallbacks").set(cc.batch_fallbacks);
      reg.counter("relay.unsigned_batches").set(cc.unsigned_batches);
    }
  }
  // Per-node fan-out footprint: what the dissemination ablation plots.  Mean
  // and max over every node's sent message/byte counters.
  {
    const auto& msgs = net.node_sent_msgs();
    const auto& bytes = net.node_sent_bytes();
    if (!msgs.empty()) {
      std::uint64_t msum = 0, mmax = 0, bsum = 0, bmax = 0;
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        msum += msgs[i];
        mmax = std::max(mmax, msgs[i]);
        bsum += bytes[i];
        bmax = std::max(bmax, bytes[i]);
      }
      const auto n = static_cast<std::int64_t>(msgs.size());
      reg.gauge("net.node_msgs_mean").set(static_cast<std::int64_t>(msum) / n);
      reg.gauge("net.node_msgs_max").set(static_cast<std::int64_t>(mmax));
      reg.gauge("net.node_bytes_mean").set(static_cast<std::int64_t>(bsum) / n);
      reg.gauge("net.node_bytes_max").set(static_cast<std::int64_t>(bmax));
    }
  }

  result.breakdown = telemetry->tracer.breakdown();
  result.telemetry = telemetry;

  if (!config.trace_out.empty()) {
    std::ofstream out(config.trace_out);
    if (out) telemetry->export_jsonl(out);
  }
  if (!config.chrome_out.empty()) {
    std::ofstream out(config.chrome_out);
    if (out) telemetry->export_chrome(out);
  }
  // Detach before the systems/network go out of scope (telemetry outlives
  // them via the shared_ptr in the result).
  net.set_telemetry(nullptr);
  net.set_arrival_observer(nullptr);
  if (jenga) {
    jenga->set_failure_detector(nullptr);
    jenga->set_telemetry(nullptr);
  }
  if (baseline) baseline->set_telemetry(nullptr);
  return result;
}

}  // namespace jenga::harness
