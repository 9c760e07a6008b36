// Shared experiment configuration for the figure benches.
//
// Scale model: committee sizes default to 1/4 of the paper's Table I (the
// simulator runs on one core; the protocol flows and therefore the *shapes*
// are scale-invariant).  Override with JENGA_BENCH_SCALE=1.0 for paper-size
// committees and JENGA_BENCH_TXS to change the per-shard transaction count.
#pragma once

#include "harness/runner.hpp"

namespace jenga::bench {

inline constexpr std::uint32_t kShardCounts[] = {4, 6, 8, 10, 12};

/// Bounded backlog (saturating): arrivals far above the service rate into
/// pools that hold the whole run and never expire it, so admission never
/// refuses and the credit window alone keeps `window` transactions in flight —
/// a closed loop of that size.
inline void credit_window(harness::RunConfig& cfg, std::size_t window) {
  cfg.max_inflight = window;
  cfg.arrival.rate_tps = 2000;
  cfg.mempool.capacity = cfg.contract_txs + cfg.transfer_txs;
  cfg.mempool.ttl = cfg.max_sim_time;
}

/// Standard throughput/latency experiment (Figs. 5 and 6).
inline harness::RunConfig perf_config(harness::SystemKind kind, std::uint32_t num_shards) {
  harness::RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = num_shards;
  cfg.scale = harness::bench_scale_from_env(0.25);
  cfg.contract_txs = harness::bench_txs_from_env(600) * num_shards;
  cfg.max_block_items = 256;  // scaled with the committees
  cfg.max_sim_time = 1800 * kSecond;
  cfg.trace.num_contracts = 100'000;
  cfg.trace.num_accounts = 100'000;
  credit_window(cfg, 250 * num_shards);
  return cfg;
}

/// Storage experiment (Fig. 7a): state-heavy contracts with compact code, so
/// the storage mix matches a mature chain (states/chain >> logic).
inline harness::RunConfig storage_config(harness::SystemKind kind, std::uint32_t num_shards) {
  harness::RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = num_shards;
  cfg.scale = harness::bench_scale_from_env(0.25);
  cfg.contract_txs = harness::bench_txs_from_env(200) * num_shards;
  cfg.max_block_items = 256;
  cfg.max_sim_time = 1800 * kSecond;
  credit_window(cfg, 100 * num_shards);
  cfg.trace.num_contracts = 5000;
  cfg.trace.num_accounts = 50'000;
  cfg.trace.initial_state_entries_min = 256;
  cfg.trace.initial_state_entries_max = 768;
  cfg.trace.function_length_min = 24;
  cfg.trace.function_length_max = 80;
  // Pyramid's merging degree scales with the system (its layered design):
  // every node carries half the shards' data, which is exactly the paper's
  // "storage grows / does not scale" curve.
  cfg.merge_span = std::max(2u, num_shards / 2);
  return cfg;
}

inline double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

}  // namespace jenga::bench
