// Reconfiguration sweep: throughput, latency, and safety of the full Jenga
// pipeline while the lattice is live-reshuffled, over a grid of epoch
// interval x message-drop rate x boundary-churn size.  Every cell runs the
// beacon over the simulated network, drains, cuts over, and re-homes every
// node's replicas; the post-run invariant audit (no leaked locks, conserved
// balance, no divergent decides, no limbo transactions, clean boundary
// audits) is the safety verdict per cell.
//
// The headline shape check compares the clean cell (no reconfiguration)
// against the fault-free reconfiguring cell: reshuffling mid-run must cost
// bounded throughput, not wedge the pipeline.  JENGA_RECONFIG_QUICK=1
// shrinks the sweep for CI smoke runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/jenga_system.hpp"
#include "harness/genesis.hpp"
#include "report.hpp"
#include "security/fault_injector.hpp"
#include "workload/trace.hpp"

namespace {

using namespace jenga;

struct CellResult {
  SimTime interval = 0;  // 0 = reconfiguration off (the clean baseline)
  double drop = 0.0;
  int churn = 0;  // nodes departing at the first boundary, rejoining at the second
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t transitions = 0;
  std::uint64_t requeued = 0;
  double tps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  bool invariants_ok = false;
};

bool quick_mode() {
  const char* env = std::getenv("JENGA_RECONFIG_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

SimTime horizon() { return (quick_mode() ? 400 : 600) * jenga::kSecond; }

CellResult run_cell(SimTime interval, double drop, int churn) {
  const int kTxs = quick_mode() ? 24 : 40;

  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;  // 16 nodes; beacon quorum 11
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 60 * kSecond;
  cfg.epoch_interval = interval;
  cfg.epoch_drain_window = 10 * kSecond;
  cfg.epoch_beacon_lead = 20 * kSecond;

  workload::TraceConfig tc;
  tc.num_contracts = 150;
  tc.num_accounts = 200;
  tc.max_contracts_per_tx = 4;
  tc.max_steps = 8;
  workload::TraceGenerator gen(tc, Rng(7));

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  telemetry::Telemetry telemetry;
  core::JengaSystem system(sim, net, telemetry, cfg, harness::make_genesis(gen));
  security::FaultInjector injector(sim, net, system);
  const std::uint64_t initial_balance = system.total_account_balance();
  system.start();

  security::FaultPlan plan;
  if (drop > 0) {
    sim::LinkFaults faults;
    faults.drop_rate = drop;
    plan.ramps.push_back({0, faults});
  }
  if (churn > 0 && interval > 0) {
    // `churn` nodes (spread across both shards of the epoch-0 lattice) depart
    // exactly at the first cutover and rejoin at the second.
    security::EpochBoundaryChurn out{1, {}, {}};
    security::EpochBoundaryChurn back{2, {}, {}};
    const auto& lat = system.lattice();
    for (int i = 0; i < churn; ++i) {
      const NodeId n = lat.shard_members(ShardId{static_cast<std::uint32_t>(i % 2)})[4 + i / 2];
      out.crash.push_back(n);
      back.revive.push_back(n);
    }
    plan.epoch_churn.push_back(out);
    plan.epoch_churn.push_back(back);
  }
  injector.arm(plan);

  // Spread injection past the first drain window (50s..60s for a 60s
  // interval) so transactions genuinely cross a reshuffle boundary.
  const SimTime spacing = quick_mode() ? 3 * kSecond : 2 * kSecond;
  for (int i = 0; i < kTxs; ++i) {
    sim.run_until(sim.now() + spacing);
    auto tx = std::make_shared<ledger::Transaction>(gen.contract_tx(1'000'000, sim.now()));
    system.submit(tx);
  }
  sim.run_until(horizon());

  const TxStats& st = system.stats();
  const auto report = security::check_invariants(system, initial_balance);
  CellResult r;
  r.interval = interval;
  r.drop = drop;
  r.churn = churn;
  r.submitted = st.submitted;
  r.committed = st.committed;
  r.aborted = st.aborted;
  r.transitions = report.epoch_transitions;
  r.requeued = report.txs_requeued;
  r.tps = st.tps();
  const auto q = st.latency_quantiles_seconds({0.5, 0.99});
  r.p50_s = q[0];
  r.p99_s = q[1];
  r.invariants_ok = report.ok();
  if (!report.ok()) std::printf("%s\n", report.describe().c_str());
  return r;
}

std::string to_json(const std::vector<CellResult>& cells) {
  std::ostringstream out;
  out << "{\"bench\":\"reconfig\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"epoch_interval_s\":%lld,\"drop\":%.2f,\"churn\":%d,"
                  "\"submitted\":%llu,\"committed\":%llu,\"aborted\":%llu,"
                  "\"transitions\":%llu,\"requeued\":%llu,\"tps\":%.3f,"
                  "\"p50_s\":%.3f,\"p99_s\":%.3f,\"invariants_ok\":%s}",
                  static_cast<long long>(c.interval / jenga::kSecond), c.drop, c.churn,
                  static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.committed),
                  static_cast<unsigned long long>(c.aborted),
                  static_cast<unsigned long long>(c.transitions),
                  static_cast<unsigned long long>(c.requeued), c.tps, c.p50_s, c.p99_s,
                  c.invariants_ok ? "true" : "false");
    out << (i ? "," : "") << buf;
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main() {
  using namespace jenga::bench;

  header("Reconfiguration — live lattice reshuffles under traffic",
         "epoch interval x drop rate x boundary churn, paper SSV-D");
  ShapeReporter rep;

  std::vector<SimTime> intervals = {0, 60 * jenga::kSecond, 120 * jenga::kSecond};
  std::vector<double> drops = {0.0, 0.05};
  std::vector<int> churns = {0, 2};
  if (quick_mode()) {
    std::printf("(JENGA_RECONFIG_QUICK=1: clean + one reconfiguring column only)\n");
    intervals = {0, 60 * jenga::kSecond};
    drops = {0.0};
    churns = {0, 1};
  }

  std::vector<CellResult> cells;
  std::printf("%-10s %-6s %-6s %-10s %-8s %-7s %-9s %-8s %-8s %-8s %-10s\n", "interval",
              "drop", "churn", "committed", "aborted", "epochs", "requeued", "tps",
              "p50(s)", "p99(s)", "invariants");
  for (SimTime interval : intervals) {
    for (double drop : drops) {
      for (int churn : churns) {
        if (interval == 0 && churn > 0) continue;  // churn is boundary-only
        const CellResult r = run_cell(interval, drop, churn);
        std::printf("%-10lld %-6.2f %-6d %-10llu %-8llu %-7llu %-9llu %-8.2f %-8.2f %-8.2f %-10s\n",
                    static_cast<long long>(r.interval / jenga::kSecond), r.drop, r.churn,
                    static_cast<unsigned long long>(r.committed),
                    static_cast<unsigned long long>(r.aborted),
                    static_cast<unsigned long long>(r.transitions),
                    static_cast<unsigned long long>(r.requeued), r.tps, r.p50_s, r.p99_s,
                    r.invariants_ok ? "ok" : "VIOLATION");
        std::fflush(stdout);
        cells.push_back(r);
      }
    }
  }
  std::printf("\n");

  bool all_invariants = true;
  bool all_resolved = true;
  bool reconfig_ran = true;
  const CellResult* clean = nullptr;
  const CellResult* reconfig = nullptr;  // fault-free reconfiguring reference
  for (const CellResult& c : cells) {
    all_invariants = all_invariants && c.invariants_ok;
    all_resolved = all_resolved && (c.committed + c.aborted == c.submitted);
    if (c.interval > 0) reconfig_ran = reconfig_ran && c.transitions >= 2;
    if (c.interval == 0 && c.drop == 0.0) clean = &c;
    if (c.interval == 60 * jenga::kSecond && c.drop == 0.0 && c.churn == 0) reconfig = &c;
  }

  rep.check(all_invariants, "safety invariants hold in every cell (boundary audits included)");
  rep.check(all_resolved, "every transaction resolves across reconfigurations (no limbo)");
  rep.check(reconfig_ran, "every reconfiguring cell completed >= 2 epoch transitions");
  if (clean != nullptr && reconfig != nullptr) {
    // Reconfiguration costs bounded throughput: the drain window parks work
    // briefly, so a dip is expected, but the pipeline must not wedge.
    const double dip = clean->tps > 0 ? reconfig->tps / clean->tps : 0.0;
    std::printf("throughput dip, clean -> reconfiguring: %.2f tps -> %.2f tps (x%.2f)\n\n",
                clean->tps, reconfig->tps, dip);
    rep.check(dip >= 0.5, "reconfiguring throughput stays >= 0.5x the clean baseline");
    rep.check(reconfig->committed == reconfig->submitted || reconfig->aborted > 0,
              "reconfiguring cell resolves every submission");
  }

  const std::string json = to_json(cells);
  std::printf("\nJSON: %s\n", json.c_str());
  std::ofstream("bench_reconfig.json") << json << "\n";
  std::printf("wrote bench_reconfig.json\n");
  return rep.finish("bench_reconfig");
}
