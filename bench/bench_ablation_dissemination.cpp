// Dissemination ablation (DESIGN.md §12): naive unicast-to-all vs gossip
// fanout tree vs push-pull rumor mongering, swept over group sizes
// N ∈ {250, 500, 1000, 2000}.  Two claims under test:
//
//  1. Scalability of the transport itself: the worst per-node egress under
//     rumor spreading stays nearly flat as the group grows (constant fanout
//     per round, log-bounded rounds), while naive unicast concentrates an
//     O(N) uplink on the origin.  Criterion: rumor per-node bytes at N=2000
//     within 3x of N=250; naive grows ~linearly.
//
//  2. Batched aggregate verification: on a full S=12 system, a receiving
//     engine parks the certs of relay batches arriving within one window —
//     from up to S concurrent source groups — and verifies them in ONE
//     aggregated pass, doing several-fold fewer signature verifications than
//     the verify-on-arrival path on the tree transport.  Criterion: >= 4x
//     fewer at S=12 (the factor is structural in S).
//
// Emits BENCH_dissemination.json.  JENGA_DISSEM_QUICK=1 shrinks the sweep
// (N ∈ {250, 1000}, smaller system) for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gossip/rumor.hpp"
#include "harness/runner.hpp"
#include "report.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace jenga;

bool quick_mode() {
  const char* env = std::getenv("JENGA_DISSEM_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

struct TagPayload : sim::Payload {
  explicit TagPayload(int v) : value(v) {}
  int value;
};

struct SweepCell {
  const char* mode = "";
  std::uint32_t n = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t total_msgs = 0;
  double node_msgs_mean = 0.0;
  std::uint64_t node_msgs_max = 0;
  double node_bytes_mean = 0.0;
  std::uint64_t node_bytes_max = 0;
  double delivery_p50_s = 0.0;  // broadcast start -> handler delivery
  double delivery_p99_s = 0.0;
  std::uint64_t rumor_pushes = 0;
  std::uint64_t rumor_pulls = 0;
  std::uint64_t rumor_dups_dropped = 0;
  double coverage_rounds_p99 = 0.0;
};

constexpr std::uint32_t kPayloadBytes = 2048;  // one certified relay batch

SweepCell run_sweep_cell(sim::Transport transport, std::uint32_t n, int rumors) {
  sim::Simulator sim;
  sim::NetConfig cfg;
  cfg.set_all_transports(transport);
  sim::Network net(sim, cfg, Rng(9));
  std::unique_ptr<gossip::RumorMesh> mesh;
  if (transport == sim::Transport::kRumor) {
    mesh = std::make_unique<gossip::RumorMesh>(net, gossip::RumorConfig{},
                                               Rng(9 ^ 0x52554D52ULL));
    net.set_rumor_mesh(mesh.get());
  }

  std::vector<NodeId> group;
  std::vector<SimTime> start_at(static_cast<std::size_t>(rumors), 0);
  telemetry::Histogram latency;
  std::uint64_t deliveries = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    group.push_back(NodeId{i});
    net.register_node(NodeId{i}, [&](const sim::Message& m) {
      const int tag = sim::payload_as<TagPayload>(m).value;
      latency.record(sim.now() - start_at[static_cast<std::size_t>(tag)]);
      ++deliveries;
    });
  }

  // `rumors` certified batches from origins spread around the group, one new
  // spread every 200 ms (decide cadence of co-located groups).
  for (int r = 0; r < rumors; ++r) {
    const SimTime at = static_cast<SimTime>(r) * 200 * kMillisecond;
    start_at[static_cast<std::size_t>(r)] = at;
    sim.schedule_at(at, [&net, &group, r, n] {
      const NodeId origin{static_cast<std::uint32_t>(r * 37) % n};
      const sim::Message msg = sim::make_message<TagPayload>(
          sim::MsgType::kStateGrant, origin, kPayloadBytes, r);
      net.broadcast(sim::BroadcastKind::kRelay, origin, group,
                    sim::rumor_id_mix(0xD1, static_cast<std::uint64_t>(r)), msg,
                    sim::TrafficClass::kIntraShard);
    });
  }
  sim.run_until_idle();

  SweepCell c;
  c.mode = sim::transport_name(transport);
  c.n = n;
  c.deliveries = deliveries;
  c.total_msgs = net.stats().total_messages();
  std::uint64_t msum = 0, bsum = 0;
  for (const std::uint64_t v : net.node_sent_msgs()) {
    msum += v;
    c.node_msgs_max = std::max(c.node_msgs_max, v);
  }
  for (const std::uint64_t v : net.node_sent_bytes()) {
    bsum += v;
    c.node_bytes_max = std::max(c.node_bytes_max, v);
  }
  c.node_msgs_mean = static_cast<double>(msum) / n;
  c.node_bytes_mean = static_cast<double>(bsum) / n;
  c.delivery_p50_s = latency.quantile(0.5) / static_cast<double>(kSecond);
  c.delivery_p99_s = latency.quantile(0.99) / static_cast<double>(kSecond);
  if (mesh) {
    const auto& rs = mesh->stats();
    c.rumor_pushes = rs.pushes_sent;
    c.rumor_pulls = rs.pull_requests;
    c.rumor_dups_dropped = rs.dups_dropped;
    telemetry::Histogram rounds;
    for (const std::uint32_t v : rs.coverage_rounds) rounds.record(v);
    c.coverage_rounds_p99 = rounds.quantile(0.99);
  }
  return c;
}

struct SigCell {
  const char* mode = "";
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t individual_checks = 0;
  std::uint64_t batch_passes = 0;
  std::uint64_t batch_certs = 0;
  std::uint64_t frames = 0;

  [[nodiscard]] std::uint64_t verify_ops() const {
    return individual_checks + batch_passes;
  }
};

SigCell run_sig_cell(sim::Transport transport, std::uint32_t num_shards,
                     std::size_t txs) {
  harness::RunConfig cfg;
  cfg.kind = harness::SystemKind::kJenga;
  cfg.num_shards = num_shards;
  // Subgroup(shard, channel) has nodes_per_shard / num_shards members; keep
  // it non-empty so the relay duty exists at every (shard, channel) pair.
  cfg.nodes_per_shard = std::max(8u, num_shards);
  cfg.contract_txs = txs;
  cfg.arrival.rate_tps = static_cast<double>(txs) / 30;  // arrivals over about 30 s
  cfg.max_sim_time = 1200 * kSecond;
  cfg.trace.num_contracts = 4000;
  cfg.trace.num_accounts = 8000;
  cfg.trace.max_steps = 8;
  cfg.trace.max_contracts_per_tx = 4;
  cfg.net.set_all_transports(transport);
  // Amortization needs load: with every shard backlogged, decides come a few
  // per second, and a window spanning several decide cadences coalesces the
  // consecutive heights' batches to one destination group into one frame
  // (one pooled pass); the price is up to one window of relay latency.
  cfg.net.batch_window = 500 * kMillisecond;
  const harness::RunResult r = harness::run_experiment(cfg);

  SigCell c;
  c.mode = sim::transport_name(transport);
  c.committed = r.stats.committed;
  c.aborted = r.stats.aborted;
  c.individual_checks = r.cert_checks.individual_checks;
  c.batch_passes = r.cert_checks.batch_passes;
  c.batch_certs = r.cert_checks.batch_certs;
  c.frames = r.relay_batches.frames_sent;
  return c;
}

std::string to_json(const std::vector<SweepCell>& sweep, const SigCell& tree,
                    const SigCell& rumor, double sig_ratio) {
  std::ostringstream out;
  out << "{\"bench\":\"dissemination\",\"sweep\":[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepCell& c = sweep[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"mode\":\"%s\",\"n\":%u,\"deliveries\":%llu,\"total_msgs\":%llu,"
                  "\"node_msgs_mean\":%.1f,\"node_msgs_max\":%llu,"
                  "\"node_bytes_mean\":%.0f,\"node_bytes_max\":%llu,"
                  "\"delivery_p50_s\":%.3f,\"delivery_p99_s\":%.3f,"
                  "\"rumor_pushes\":%llu,\"rumor_pulls\":%llu,"
                  "\"rumor_dups_dropped\":%llu,\"coverage_rounds_p99\":%.1f}",
                  c.mode, c.n, static_cast<unsigned long long>(c.deliveries),
                  static_cast<unsigned long long>(c.total_msgs), c.node_msgs_mean,
                  static_cast<unsigned long long>(c.node_msgs_max), c.node_bytes_mean,
                  static_cast<unsigned long long>(c.node_bytes_max), c.delivery_p50_s,
                  c.delivery_p99_s, static_cast<unsigned long long>(c.rumor_pushes),
                  static_cast<unsigned long long>(c.rumor_pulls),
                  static_cast<unsigned long long>(c.rumor_dups_dropped),
                  c.coverage_rounds_p99);
    out << (i ? "," : "") << buf;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "],\"sig_checks\":{\"tree_committed\":%llu,\"tree_aborted\":%llu,"
                "\"rumor_committed\":%llu,\"rumor_aborted\":%llu,"
                "\"tree_individual\":%llu,\"rumor_individual\":%llu,"
                "\"rumor_batch_passes\":%llu,\"rumor_batch_certs\":%llu,"
                "\"rumor_frames\":%llu,\"ratio\":%.2f}}",
                static_cast<unsigned long long>(tree.committed),
                static_cast<unsigned long long>(tree.aborted),
                static_cast<unsigned long long>(rumor.committed),
                static_cast<unsigned long long>(rumor.aborted),
                static_cast<unsigned long long>(tree.individual_checks),
                static_cast<unsigned long long>(rumor.individual_checks),
                static_cast<unsigned long long>(rumor.batch_passes),
                static_cast<unsigned long long>(rumor.batch_certs),
                static_cast<unsigned long long>(rumor.frames), sig_ratio);
  out << buf;
  return out.str();
}

}  // namespace

int main() {
  using namespace jenga::bench;
  ShapeReporter rep;
  const bool quick = quick_mode();

  header("Ablation — dissemination transport sweep + batched aggregate verification",
         "DESIGN.md SS12 design-choice ablation (not a paper figure)");
  if (quick) std::printf("(JENGA_DISSEM_QUICK=1: reduced sweep)\n");

  // --- Transport sweep over group sizes -----------------------------------
  std::vector<std::uint32_t> sizes = quick ? std::vector<std::uint32_t>{250, 1000}
                                           : std::vector<std::uint32_t>{250, 500, 1000, 2000};
  const int rumors = quick ? 8 : 20;
  constexpr sim::Transport kModes[] = {sim::Transport::kNaive, sim::Transport::kTree,
                                       sim::Transport::kRumor};

  std::printf("\n%-8s %-6s %-12s %-11s %-11s %-13s %-13s %-9s %-9s\n", "mode", "N",
              "deliveries", "msgs/node", "max msgs", "bytes/node", "max bytes", "p50(s)",
              "p99(s)");
  std::vector<SweepCell> sweep;
  for (const sim::Transport t : kModes) {
    for (const std::uint32_t n : sizes) {
      const SweepCell c = run_sweep_cell(t, n, rumors);
      std::printf("%-8s %-6u %-12llu %-11.1f %-11llu %-13.0f %-13llu %-9.3f %-9.3f\n",
                  c.mode, c.n, static_cast<unsigned long long>(c.deliveries),
                  c.node_msgs_mean, static_cast<unsigned long long>(c.node_msgs_max),
                  c.node_bytes_mean, static_cast<unsigned long long>(c.node_bytes_max),
                  c.delivery_p50_s, c.delivery_p99_s);
      std::fflush(stdout);
      sweep.push_back(c);
    }
  }
  std::printf("\n");

  const auto cell = [&](const char* mode, std::uint32_t n) -> const SweepCell* {
    for (const SweepCell& c : sweep)
      if (std::strcmp(c.mode, mode) == 0 && c.n == n) return &c;
    return nullptr;
  };
  const std::uint32_t n_lo = sizes.front();
  const std::uint32_t n_hi = sizes.back();
  const double growth = static_cast<double>(n_hi) / n_lo;

  bool full_coverage = true;
  for (const SweepCell& c : sweep) {
    full_coverage = full_coverage &&
                    c.deliveries == static_cast<std::uint64_t>(rumors) * (c.n - 1);
  }
  rep.check(full_coverage, "every transport delivers each batch to every member exactly once");

  const SweepCell* rum_lo = cell("rumor", n_lo);
  const SweepCell* rum_hi = cell("rumor", n_hi);
  const SweepCell* nai_lo = cell("naive", n_lo);
  const SweepCell* nai_hi = cell("naive", n_hi);
  if (rum_lo && rum_hi && nai_lo && nai_hi) {
    rep.check(static_cast<double>(rum_hi->node_bytes_max) <=
                  3.0 * static_cast<double>(rum_lo->node_bytes_max),
              "rumor worst per-node egress at N=" + std::to_string(n_hi) +
                  " within 3x of N=" + std::to_string(n_lo) + " (near-flat scaling)");
    rep.check(static_cast<double>(nai_hi->node_bytes_max) >=
                  0.5 * growth * static_cast<double>(nai_lo->node_bytes_max),
              "naive worst per-node egress grows ~linearly with the group");
    rep.check(static_cast<double>(rum_hi->node_bytes_max) <
                  static_cast<double>(nai_hi->node_bytes_max),
              "rumor beats naive on worst per-node egress at the largest group");
  } else {
    rep.check(false, "sweep produced all reference cells");
  }

  // --- Batched aggregate verification on a full system --------------------
  const std::uint32_t sig_shards = quick ? 6 : 12;
  const std::size_t sig_txs = quick ? 600 : 2400;
  std::printf("signature-verification ablation at S=%u (%zu txs):\n", sig_shards, sig_txs);
  const SigCell tree = run_sig_cell(sim::Transport::kTree, sig_shards, sig_txs);
  const SigCell rumor = run_sig_cell(sim::Transport::kRumor, sig_shards, sig_txs);
  const double sig_ratio = rumor.verify_ops() == 0
                               ? 0.0
                               : static_cast<double>(tree.verify_ops()) /
                                     static_cast<double>(rumor.verify_ops());
  std::printf("  tree : committed=%llu aborted=%llu individual sig checks=%llu\n",
              static_cast<unsigned long long>(tree.committed),
              static_cast<unsigned long long>(tree.aborted),
              static_cast<unsigned long long>(tree.individual_checks));
  std::printf("  rumor: committed=%llu aborted=%llu verify ops=%llu (batch passes=%llu covering %llu "
              "certs in %llu frames, individual=%llu)\n",
              static_cast<unsigned long long>(rumor.committed),
              static_cast<unsigned long long>(rumor.aborted),
              static_cast<unsigned long long>(rumor.verify_ops()),
              static_cast<unsigned long long>(rumor.batch_passes),
              static_cast<unsigned long long>(rumor.batch_certs),
              static_cast<unsigned long long>(rumor.frames),
              static_cast<unsigned long long>(rumor.individual_checks));
  std::printf("  ratio: %.2fx fewer verification operations on the batched path\n\n",
              sig_ratio);
  rep.check(tree.committed > 0 && rumor.committed > 0,
            "both transports complete the S-shard workload");
  // The aggregation factor is structural in S (a channel pools certs from up
  // to S granting shards per window), so the quick S=6 smoke gets a
  // proportionally lower bar than the full S=12 criterion.
  const double sig_bar = sig_shards >= 12 ? 4.0 : 2.0;
  char sig_claim[96];
  std::snprintf(sig_claim, sizeof(sig_claim),
                "batched aggregate verification does >=%.0fx fewer sig checks at S=%u",
                sig_bar, sig_shards);
  rep.check(sig_ratio >= sig_bar, sig_claim);

  const std::string json = to_json(sweep, tree, rumor, sig_ratio);
  std::printf("JSON: %s\n", json.c_str());
  std::ofstream("BENCH_dissemination.json") << json << "\n";
  std::printf("wrote BENCH_dissemination.json\n");
  return rep.finish("bench_ablation_dissemination");
}
