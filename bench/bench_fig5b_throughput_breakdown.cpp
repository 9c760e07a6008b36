// Fig. 5b: throughput breakdown of Jenga's two design points.  The paper
// attributes up to ~2.1x of the gain to Network-Wide Logic Storage (removing
// multi-round cross-shard execution) and ~1.2x to the Orthogonal Lattice
// Structure (removing cross-shard state movement).
//
// The phase-share table (tracer-derived) explains the gains: the ablations
// spend a larger share of every transaction's lifetime outside execution
// (state movement / multi-round coordination), which is exactly the
// capacity the two designs reclaim.
#include <cstdio>
#include <map>

#include "bench_config.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace jenga;
  using namespace jenga::bench;
  using namespace jenga::harness;

  header("Fig. 5b — throughput breakdown (ablations of the two designs)",
         "paper Fig. 5b");
  const std::string trace_out = trace_out_from_args(argc, argv);
  ShapeReporter rep;

  const SystemKind systems[] = {SystemKind::kJengaNoGlobalLogic, SystemKind::kJengaNoLattice,
                                SystemKind::kJenga};
  std::map<std::pair<int, std::uint32_t>, double> tps;
  std::map<int, telemetry::PhaseBreakdown> bd12;
  std::printf("%-16s", "TPS");
  for (std::uint32_t s : kShardCounts) std::printf("  S=%-8u", s);
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-16s", system_name(systems[i]));
    for (std::uint32_t s : kShardCounts) {
      RunConfig cfg = perf_config(systems[i], s);
      cfg.contract_txs /= 4;  // ratios need less volume than absolutes
      cfg.max_inflight /= 4;
      if (s == 12 && systems[i] == SystemKind::kJenga) cfg.trace_out = trace_out;
      const auto r = run_experiment(cfg);
      tps[{i, s}] = r.tps;
      if (s == 12) bd12[i] = r.breakdown;
      std::printf("  %-10.1f", r.tps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Phase shares at 12 shards: fraction of the mean commit latency spent in
  // each tracer interval.  The ablations' lost throughput shows up as time
  // outside the execute phase.
  std::printf("\nphase share of commit latency at S=12 (%%, from the phase tracer)\n");
  std::printf("%-16s", "system");
  for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p)
    std::printf("  %-11s", telemetry::interval_name(p));
  std::printf("\n");
  std::map<int, double> exec_share;
  for (int i = 0; i < 3; ++i) {
    const auto& b = bd12[i];
    const double total = b.mean_total_seconds() > 0 ? b.mean_total_seconds() : 1.0;
    std::printf("%-16s", system_name(systems[i]));
    for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p) {
      const double share = 100.0 * b.mean_interval_seconds(p) / total;
      if (p == 2) exec_share[i] = share;  // "execute"
      std::printf("  %-11.1f", share);
    }
    std::printf("\n");
  }

  const double full12 = tps[{2, 12}];
  const double no_nwls12 = tps[{0, 12}];
  const double no_ols12 = tps[{1, 12}];
  std::printf("\nat 12 shards: NWLS gain %.2fx (full vs w/o NWLS), OLS gain %.2fx (full vs w/o OLS)\n\n",
              full12 / no_nwls12, full12 / no_ols12);

  rep.check(full12 > no_nwls12,
            "Fig.5b: Network-Wide Logic Storage contributes throughput gain");
  rep.check(full12 > no_ols12,
            "Fig.5b: Orthogonal Lattice Structure contributes throughput gain");
  rep.check(full12 / no_nwls12 > full12 / no_ols12,
            "Fig.5b: NWLS contributes MORE than OLS (paper: 2.1x vs 1.2x)");
  rep.check(bd12[2].committed > 0 && bd12[0].committed > 0 && bd12[1].committed > 0,
            "Fig.5b: tracer produced a phase breakdown for every design point");
  return rep.finish("bench_fig5b_throughput_breakdown");
}
