// Property-based sweeps across systems and seeds: the invariants that must
// hold for ANY random workload on ANY of the four systems —
//   * completion: every submitted tx eventually commits or aborts,
//   * conservation: Σ balances == initial − fees charged,
//   * no dangling locks after quiescence,
//   * chains verify end-to-end,
//   * determinism: identical seeds give identical outcomes.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "baselines/cxfunc.hpp"
#include "baselines/pyramid.hpp"
#include "baselines/single_shard.hpp"
#include "core/jenga_system.hpp"
#include "harness/genesis.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga {
namespace {

enum class Sys { kJenga, kJengaNoLattice, kJengaNoGlobalLogic, kCxFunc, kSingleShard, kPyramid };

struct Outcome {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t fees = 0;
  std::uint64_t final_balance = 0;
  std::uint64_t initial_balance = 0;
  std::size_t locks = 0;
  bool chains_ok = true;
};

Outcome run_system(Sys sys, std::uint64_t seed, int num_txs) {
  workload::TraceConfig tc;
  tc.num_contracts = 1200;
  tc.num_accounts = 500;
  tc.max_contracts_per_tx = 5;
  tc.max_steps = 10;
  workload::TraceGenerator gen(tc, Rng(seed));

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(seed ^ 0xF00));
  const auto genesis = harness::make_genesis(gen);

  telemetry::Telemetry telemetry;
  std::unique_ptr<core::JengaSystem> jenga;
  std::unique_ptr<baselines::BaselineSystem> baseline;
  const std::uint32_t num_shards = 3;
  if (sys == Sys::kJenga || sys == Sys::kJengaNoLattice || sys == Sys::kJengaNoGlobalLogic) {
    core::JengaConfig cfg;
    cfg.num_shards = num_shards;
    cfg.nodes_per_shard = 6;
    cfg.seed = seed;
    cfg.pipeline = sys == Sys::kJenga ? core::Pipeline::kFull
                   : sys == Sys::kJengaNoLattice ? core::Pipeline::kNoLattice
                                                 : core::Pipeline::kNoGlobalLogic;
    jenga = std::make_unique<core::JengaSystem>(sim, net, telemetry, cfg, genesis);
    jenga->start();
  } else {
    baselines::BaselineConfig cfg;
    cfg.num_shards = num_shards;
    cfg.nodes_per_shard = 6;
    cfg.seed = seed;
    cfg.merge_span = 2;
    if (sys == Sys::kCxFunc) {
      baseline = std::make_unique<baselines::CxFuncSystem>(sim, net, telemetry, cfg, genesis);
    } else if (sys == Sys::kSingleShard) {
      baseline =
          std::make_unique<baselines::SingleShardSystem>(sim, net, telemetry, cfg, genesis);
    } else {
      baseline = std::make_unique<baselines::PyramidSystem>(sim, net, telemetry, cfg, genesis);
    }
    baseline->start();
  }

  Outcome out;
  out.initial_balance = tc.num_accounts * tc.account_initial_balance;

  Rng pick(seed ^ 0xAB);
  for (int i = 0; i < num_txs; ++i) {
    sim.run_until(sim.now() + static_cast<SimTime>(pick.uniform(2000) + 200) * kMillisecond);
    auto tx = std::make_shared<ledger::Transaction>(
        pick.chance(0.25) ? gen.transfer_tx(sim.now())
                          : gen.contract_tx(pick.uniform(1'000'000), sim.now()));
    if (jenga) {
      jenga->submit(tx);
    } else {
      baseline->submit(tx);
    }
  }
  sim.run_until(sim.now() + 900 * kSecond);

  const TxStats& st = jenga ? jenga->stats() : baseline->stats();
  out.committed = st.committed;
  out.aborted = st.aborted;
  out.fees = st.fees_charged;
  out.final_balance = jenga ? jenga->total_account_balance() : baseline->total_account_balance();
  out.locks = jenga ? jenga->held_locks() : baseline->held_locks();
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const auto& chain = jenga ? jenga->shard_chain(ShardId{s}) : baseline->shard_chain(ShardId{s});
    out.chains_ok = out.chains_ok && chain.verify();
  }
  return out;
}

class PropertyTest : public ::testing::TestWithParam<std::tuple<Sys, std::uint64_t>> {};

TEST_P(PropertyTest, InvariantsHold) {
  const auto [sys, seed] = GetParam();
  const int n = 25;
  const Outcome out = run_system(sys, seed, n);
  EXPECT_EQ(out.committed + out.aborted, static_cast<std::uint64_t>(n))
      << "committed=" << out.committed << " aborted=" << out.aborted;
  EXPECT_EQ(out.final_balance, out.initial_balance - out.fees);
  EXPECT_EQ(out.locks, 0u);
  EXPECT_TRUE(out.chains_ok);
  EXPECT_GT(out.committed, static_cast<std::uint64_t>(n) / 2);
}

std::string sweep_name(const ::testing::TestParamInfo<std::tuple<Sys, std::uint64_t>>& info) {
  static const char* const kNames[] = {"Jenga",  "JengaNoOLS",  "JengaNoNWLS",
                                       "CxFunc", "SingleShard", "Pyramid"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertyTest,
    ::testing::Combine(::testing::Values(Sys::kJenga, Sys::kJengaNoLattice,
                                         Sys::kJengaNoGlobalLogic, Sys::kCxFunc,
                                         Sys::kSingleShard, Sys::kPyramid),
                       ::testing::Values(11u, 42u, 1234u)),
    sweep_name);

TEST(PropertyDeterminism, IdenticalSeedsIdenticalOutcomes) {
  for (Sys sys : {Sys::kJenga, Sys::kCxFunc, Sys::kPyramid}) {
    const Outcome a = run_system(sys, 77, 15);
    const Outcome b = run_system(sys, 77, 15);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.fees, b.fees);
    EXPECT_EQ(a.final_balance, b.final_balance);
  }
}

TEST(PropertyDeterminism, DifferentSeedsUsuallyDiffer) {
  const Outcome a = run_system(Sys::kJenga, 1, 15);
  const Outcome b = run_system(Sys::kJenga, 2, 15);
  // Different workloads: fee totals almost surely differ.
  EXPECT_NE(a.fees + a.final_balance == b.fees + b.final_balance &&
                a.committed == b.committed && a.fees == b.fees,
            true)
      << "two different seeds produced identical runs (suspicious)";
}

}  // namespace
}  // namespace jenga
