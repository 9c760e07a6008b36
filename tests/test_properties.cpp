// Property-based sweeps across systems and seeds: the invariants that must
// hold for ANY random workload on ANY of the six systems —
//   * completion: every submitted tx eventually commits or aborts,
//   * conservation: Σ balances == initial − fees charged,
//   * no dangling locks after quiescence,
//   * chains verify end-to-end,
//   * determinism: identical seeds give identical outcomes.
// The sparse sweep spreads 25 txs over 500 accounts; the contended sweep
// puts 150 txs on 12 accounts and 60 contracts, so txs of one block touch
// the same balances while others are in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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

/// The account and contract universe a run draws from, how far apart its
/// txs arrive and which share of them are transfers.
struct Load {
  std::uint64_t accounts = 500;
  std::uint64_t contracts = 1200;
  std::uint32_t max_contracts_per_tx = 5;
  std::uint32_t max_steps = 10;
  std::uint64_t gap_min_ms = 200;   // arrival spacing: min + uniform [0, span)
  std::uint64_t gap_span_ms = 2000;
  double transfer_share = 0.25;
};

Outcome run_system(Sys sys, std::uint64_t seed, int num_txs, const Load& load = {}) {
  workload::TraceConfig tc;
  tc.num_contracts = load.contracts;
  tc.num_accounts = load.accounts;
  tc.max_contracts_per_tx = load.max_contracts_per_tx;
  tc.max_steps = load.max_steps;
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
    sim.run_until(sim.now() +
                  static_cast<SimTime>(pick.uniform(load.gap_span_ms) + load.gap_min_ms) *
                      kMillisecond);
    auto tx = std::make_shared<ledger::Transaction>(
        pick.chance(load.transfer_share) ? gen.transfer_tx(sim.now())
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

const char* sys_name(Sys sys) {
  static const char* const kNames[] = {"Jenga",  "JengaNoOLS",  "JengaNoNWLS",
                                       "CxFunc", "SingleShard", "Pyramid"};
  return kNames[static_cast<int>(sys)];
}

std::string sweep_name(const ::testing::TestParamInfo<std::tuple<Sys, std::uint64_t>>& info) {
  return std::string(sys_name(std::get<0>(info.param))) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertyTest,
    ::testing::Combine(::testing::Values(Sys::kJenga, Sys::kJengaNoLattice,
                                         Sys::kJengaNoGlobalLogic, Sys::kCxFunc,
                                         Sys::kSingleShard, Sys::kPyramid),
                       ::testing::Values(11u, 42u, 1234u)),
    sweep_name);

// Contended sweep: 150 txs 10-110 ms apart over 12 accounts and 60 contracts,
// at most 3 contracts and 6 steps per tx, either half transfers or contracts
// only.  Blocks then hold several txs on one balance, and fees, transfers and
// contract write-backs land on it while other txs that declare it are in
// flight.  No commit floor: lock-retry aborts are legitimate here (contended
// Jenga commits 8-14 of 150 contract-only txs at these seeds).
enum class Mix { kHalfTransfers, kContractsOnly };

class ContendedPropertyTest
    : public ::testing::TestWithParam<std::tuple<Sys, Mix, std::uint64_t>> {};

TEST_P(ContendedPropertyTest, CompletesConservesAndReleasesLocks) {
  const auto [sys, mix, seed] = GetParam();
  Load load;
  load.accounts = 12;
  load.contracts = 60;
  load.max_contracts_per_tx = 3;
  load.max_steps = 6;
  load.gap_min_ms = 10;
  load.gap_span_ms = 100;
  load.transfer_share = mix == Mix::kHalfTransfers ? 0.5 : 0.0;
  const int n = 150;
  const Outcome out = run_system(sys, seed, n, load);
  EXPECT_EQ(out.committed + out.aborted, static_cast<std::uint64_t>(n))
      << "committed=" << out.committed << " aborted=" << out.aborted;
  EXPECT_EQ(static_cast<std::int64_t>(out.final_balance - (out.initial_balance - out.fees)), 0)
      << "balance error (final - (initial - fees))";
  EXPECT_EQ(out.locks, 0u);
  EXPECT_TRUE(out.chains_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Contended, ContendedPropertyTest,
    ::testing::Combine(::testing::Values(Sys::kJenga, Sys::kJengaNoLattice,
                                         Sys::kJengaNoGlobalLogic, Sys::kCxFunc,
                                         Sys::kSingleShard, Sys::kPyramid),
                       ::testing::Values(Mix::kHalfTransfers, Mix::kContractsOnly),
                       ::testing::Values(11u, 42u, 1234u, 2024u)),
    [](const ::testing::TestParamInfo<std::tuple<Sys, Mix, std::uint64_t>>& info) {
      return std::string(sys_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == Mix::kHalfTransfers ? "_halfTransfers"
                                                             : "_contractsOnly") +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

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
