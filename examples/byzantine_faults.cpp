// Fault injection: silence Byzantine nodes (including group leaders) and
// watch Jenga's intra-shard BFT ride through with view changes, exactly as
// the liveness theorem (paper Theorem 2) promises while each group keeps
// more than 2/3 honest members.
#include <cstdio>
#include <memory>

#include "core/jenga_system.hpp"
#include "workload/trace.hpp"

using namespace jenga;

int main() {
  workload::TraceConfig tc;
  tc.num_contracts = 500;
  tc.num_accounts = 500;
  tc.max_contracts_per_tx = 3;
  tc.max_steps = 6;
  workload::TraceGenerator gen(tc, Rng(21));

  core::Genesis genesis;
  genesis.num_accounts = tc.num_accounts;
  genesis.initial_balance = tc.account_initial_balance;
  genesis.contracts = gen.contracts();
  for (std::size_t i = 0; i < genesis.contracts.size(); ++i)
    genesis.initial_states.push_back(gen.initial_state(i));

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(5));
  telemetry::Telemetry telemetry;  // counters and per-tx phase tracing
  core::JengaConfig config;
  config.num_shards = 2;
  config.nodes_per_shard = 8;  // quorum 6-of-8 per group: tolerates 2 silent
  config.view_timeout = 10 * kSecond;
  core::JengaSystem jenga(sim, net, telemetry, config, genesis);
  jenga.start();

  // Silence 2 nodes of shard 0 — below the 1/3 threshold of every group they
  // belong to.  One of them leads shard 0's first height, forcing a view
  // change before anything can commit.
  const auto& shard0 = jenga.lattice().shard_members(ShardId{0});
  jenga.set_node_silent(shard0[0]);
  jenga.set_node_silent(shard0[1]);
  std::printf("silenced nodes %u and %u (shard 0's first two members)\n",
              shard0[0].value, shard0[1].value);

  const int kTxs = 10;
  for (int i = 0; i < kTxs; ++i) {
    auto tx = std::make_shared<ledger::Transaction>(gen.contract_tx(1'000'000, sim.now()));
    jenga.submit(tx);
    sim.run_until(sim.now() + 2 * kSecond);
  }
  sim.run_until(sim.now() + 300 * kSecond);

  const auto& stats = jenga.stats();
  std::printf("submitted=%llu committed=%llu aborted=%llu avg latency=%.2fs\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted), stats.avg_latency_seconds());
  std::printf("locks left dangling: %zu\n", jenga.held_locks());
  const bool live = stats.committed + stats.aborted == kTxs && jenga.held_locks() == 0;
  std::printf("liveness under f < 1/3 silent nodes: %s\n", live ? "HELD" : "VIOLATED");
  return live ? 0 : 1;
}
