// The benchmark's workloads.  Each one stresses a different set of layers;
// README.md records why each was chosen and which metrics it should move.
//
// Every load enters through RunConfig::arrival (Poisson) and no workload pins
// net.transports.  Credit windows, key universes and contracts per tx are
// chosen so that every generated tx commits on every seed tried, except in
// leader-crash, whose point is the failure path.
#include "suite.hpp"

namespace jenga::suite {

namespace {

using harness::RunConfig;

RunConfig base(std::uint64_t seed, std::uint32_t shards, std::uint32_t nodes_per_shard) {
  RunConfig cfg;
  cfg.kind = harness::SystemKind::kJenga;
  cfg.seed = seed;
  cfg.num_shards = shards;
  cfg.nodes_per_shard = nodes_per_shard;
  cfg.max_block_items = 256;
  cfg.max_sim_time = 3600 * kSecond;
  cfg.arrival.mode = workload::ArrivalMode::kPoisson;
  return cfg;
}

/// At most two contracts per contract tx (1.8 on average) instead of the trace
/// generator's 3 to 4.8.  With more, two in-flight txs that share two
/// contracts homed on different shards can each lock one and wait for the
/// other until both run out of lock retries and abort; README.md has the rates.
void two_contracts_per_tx(RunConfig& cfg) {
  cfg.trace.contracts_start = 2;
  cfg.trace.contracts_end = 2;
  cfg.trace.max_contracts_per_tx = 2;
}

/// Paper Fig. 5a/6a at S = 12: 2000 tps offered, far above capacity.
RunConfig s12(std::uint64_t seed, std::uint32_t nodes_per_shard, std::size_t txs,
              std::size_t credit) {
  RunConfig cfg = base(seed, 12, nodes_per_shard);
  cfg.contract_txs = txs;
  cfg.trace.num_contracts = 30'000;
  cfg.trace.num_accounts = 30'000;
  cfg.arrival.rate_tps = 2000;
  cfg.max_inflight = credit;
  cfg.mempool.capacity = 1024;
  two_contracts_per_tx(cfg);
  return cfg;
}

/// Quarter-size committees; the credit window keeps a standing mempool backlog.
RunConfig s12_backlog(std::uint64_t seed) { return s12(seed, 60, 1800, 400); }

/// Paper-size committees.  Every tx is dispatched at once: a smaller window
/// stretches the simulated time, and idle consensus heights at k = 240 then
/// cost more host time than the txs themselves.
RunConfig s12_paper(std::uint64_t seed) { return s12(seed, 240, 1000, 1000); }

/// Ledger-heavy.  The small credit window avoids lock-retry aborts on the
/// 10k-contract universe; the long TTL keeps the backlog queued, not expired.
RunConfig fat_state(std::uint64_t seed) {
  RunConfig cfg = base(seed, 4, 8);
  cfg.contract_txs = 3000;
  cfg.trace.num_contracts = 10'000;
  cfg.trace.num_accounts = 10'000;
  cfg.trace.initial_state_entries_min = 64;
  cfg.trace.initial_state_entries_max = 256;
  cfg.trace.function_length_min = 150;
  cfg.trace.function_length_max = 400;
  cfg.arrival.rate_tps = 2000;
  cfg.max_inflight = 64;
  cfg.mempool.ttl = 3600 * kSecond;
  cfg.exec_workers = 4;
  two_contracts_per_tx(cfg);
  return cfg;
}

/// About half of capacity, so no backlog forms.
RunConfig mixed_steady(std::uint64_t seed) {
  RunConfig cfg = base(seed, 8, 16);
  cfg.contract_txs = 3000;
  cfg.transfer_txs = 3000;
  cfg.trace.num_contracts = 20'000;
  cfg.trace.num_accounts = 20'000;
  cfg.arrival.rate_tps = 120;
  cfg.mempool.capacity = 256;
  two_contracts_per_tx(cfg);
  return cfg;
}

/// The fault plan also arms the failure detector's actuation (self_healing
/// is on by default).  The long TTL keeps txs queued behind the stall.
RunConfig leader_crash(std::uint64_t seed) {
  RunConfig cfg = base(seed, 4, 44);
  cfg.contract_txs = 1800;
  cfg.transfer_txs = 600;
  cfg.trace.num_contracts = 20'000;
  cfg.trace.num_accounts = 20'000;
  cfg.arrival.rate_tps = 30;
  cfg.mempool.ttl = 3600 * kSecond;
  cfg.faults_plan.assassinations.push_back({ShardId{0}, 20 * kSecond, 50 * kSecond});
  return cfg;
}

}  // namespace

/// The workloads BENCHMARK.json gates run four input sets per invocation.
/// s12-paper runs one because a rep costs about 12 s of host time;
/// leader-crash runs one because its stall differs by seed from 2 s to 220 s
/// and a median would hide it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"s12-backlog", "S=12, k=60, 1800 contract txs offered at 2000 tps, credit window 400",
       s12_backlog, 4},
      {"s12-paper", "S=12, k=240 (paper size), 1000 contract txs dispatched at once", s12_paper,
       1},
      {"fat-state", "S=4, k=8, 3000 txs on 64-256-entry states, 150-400-instruction functions",
       fat_state, 4},
      {"mixed-steady", "S=8, k=16, 3000 contract + 3000 transfer txs at a fixed 120 tps",
       mixed_steady, 4},
      {"leader-crash", "S=4, k=44, 2400 txs at 30 tps; shard-0 leader down from 20 s to 50 s",
       leader_crash, 1},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace jenga::suite
