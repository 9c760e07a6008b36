// Baseline systems (Single Shard, CX Func, Pyramid): end-to-end commits,
// abort paths, conservation, storage shapes, and cross-shard transport modes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "baselines/cxfunc.hpp"
#include "baselines/pyramid.hpp"
#include "baselines/single_shard.hpp"
#include "harness/genesis.hpp"
#include "ledger/placement.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga::baselines {
namespace {

using ledger::Transaction;

enum class Kind { kSingleShard, kCxFunc, kPyramid };

struct Fixture {
  explicit Fixture(Kind kind, BaselineConfig cfg, std::uint64_t workload_seed = 7) {
    workload::TraceConfig tc;
    tc.num_contracts = 150;
    tc.num_accounts = 200;
    tc.max_contracts_per_tx = 4;
    tc.max_steps = 8;
    gen = std::make_unique<workload::TraceGenerator>(tc, Rng(workload_seed));
    net = std::make_unique<sim::Network>(sim, sim::NetConfig{}, Rng(cfg.seed));
    const auto genesis = harness::make_genesis(*gen);
    switch (kind) {
      case Kind::kSingleShard:
        system = std::make_unique<SingleShardSystem>(sim, *net, telemetry, cfg, genesis);
        break;
      case Kind::kCxFunc:
        system = std::make_unique<CxFuncSystem>(sim, *net, telemetry, cfg, genesis);
        break;
      case Kind::kPyramid:
        system = std::make_unique<PyramidSystem>(sim, *net, telemetry, cfg, genesis);
        break;
    }
    initial_balance = system->total_account_balance();
    system->start();
  }

  TxPtr submit_contract_tx(std::uint64_t height = 1'000'000) {
    auto tx = std::make_shared<Transaction>(gen->contract_tx(height, sim.now()));
    system->submit(tx);
    return tx;
  }

  sim::Simulator sim;
  telemetry::Telemetry telemetry;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<BaselineSystem> system;
  std::uint64_t initial_balance = 0;
};

BaselineConfig small_config() {
  BaselineConfig cfg;
  cfg.num_shards = 3;
  cfg.nodes_per_shard = 4;
  cfg.merge_span = 2;
  return cfg;
}

class BaselineKindTest : public ::testing::TestWithParam<Kind> {};

TEST_P(BaselineKindTest, SingleTransactionCommits) {
  Fixture f(GetParam(), small_config());
  auto tx = f.submit_contract_tx();
  f.sim.run_until(300 * kSecond);
  EXPECT_EQ(f.system->stats().committed, 1u);
  EXPECT_EQ(f.system->stats().aborted, 0u);
  EXPECT_EQ(f.system->held_locks(), 0u);
  EXPECT_EQ(f.system->stats().fees_charged, tx->fee);
  EXPECT_EQ(f.system->total_account_balance(), f.initial_balance - tx->fee);
}

TEST_P(BaselineKindTest, WorkloadCompletesAndConserves) {
  Fixture f(GetParam(), small_config());
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    f.sim.run_until(f.sim.now() + 2 * kSecond);
    f.submit_contract_tx();
  }
  f.sim.run_until(1200 * kSecond);
  const auto& st = f.system->stats();
  EXPECT_EQ(st.committed + st.aborted, static_cast<std::uint64_t>(n))
      << "committed=" << st.committed << " aborted=" << st.aborted;
  EXPECT_GT(st.committed, static_cast<std::uint64_t>(n) / 2);
  EXPECT_EQ(f.system->held_locks(), 0u);
  EXPECT_EQ(f.system->total_account_balance(), f.initial_balance - st.fees_charged);
}

TEST_P(BaselineKindTest, ContractStateUpdated) {
  Fixture f(GetParam(), small_config());
  auto tx = f.submit_contract_tx();
  f.sim.run_until(300 * kSecond);
  ASSERT_EQ(f.system->stats().committed, 1u);
  // Locate the contract's store (shard 0 in SingleShard, home shard else).
  const ContractId c = tx->contracts[0];
  const ShardId home = GetParam() == Kind::kSingleShard
                           ? ShardId{0}
                           : ledger::shard_of_contract(c, 3);
  const auto* after = f.system->shard_store(home).contract_state(c);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(*after, f.gen->initial_state(c.value));
}

TEST_P(BaselineKindTest, LockContentionAborts) {
  Fixture f(GetParam(), small_config());
  auto tx1 = std::make_shared<Transaction>(f.gen->contract_tx(0, 0));
  auto tx2 = std::make_shared<Transaction>(*tx1);
  tx2->fee += 1;
  tx2->finalize();
  f.system->submit(tx1);
  f.system->submit(tx2);
  f.sim.run_until(600 * kSecond);
  const auto& st = f.system->stats();
  EXPECT_EQ(st.committed + st.aborted, 2u);
  EXPECT_GE(st.committed, 1u);
  EXPECT_EQ(f.system->held_locks(), 0u);
}

TEST_P(BaselineKindTest, TransfersWork) {
  Fixture f(GetParam(), small_config());
  auto t = std::make_shared<Transaction>(
      ledger::make_transfer(AccountId{0}, AccountId{1}, 50, 1, 0));
  f.system->submit(t);
  f.sim.run_until(120 * kSecond);
  EXPECT_EQ(f.system->stats().committed, 1u);
  EXPECT_EQ(f.system->total_account_balance(), f.initial_balance);
}

TEST_P(BaselineKindTest, DeterministicAcrossRuns) {
  std::uint64_t committed[2];
  for (int round = 0; round < 2; ++round) {
    Fixture f(GetParam(), small_config());
    for (int i = 0; i < 8; ++i) {
      f.sim.run_until(f.sim.now() + 2 * kSecond);
      f.submit_contract_tx();
    }
    f.sim.run_until(900 * kSecond);
    committed[round] = f.system->stats().committed;
  }
  EXPECT_EQ(committed[0], committed[1]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BaselineKindTest,
                         ::testing::Values(Kind::kSingleShard, Kind::kCxFunc, Kind::kPyramid),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kSingleShard: return "SingleShard";
                             case Kind::kCxFunc: return "CxFunc";
                             case Kind::kPyramid: return "Pyramid";
                           }
                           return "?";
                         });

TEST(CxFunc, MultiStepTxTouchesMultipleShards) {
  Fixture f(Kind::kCxFunc, small_config());
  // Find a generated tx spanning at least 2 home shards.
  TxPtr tx;
  for (int i = 0; i < 50; ++i) {
    auto candidate = std::make_shared<Transaction>(f.gen->contract_tx(1'000'000, 0));
    std::set<std::uint32_t> homes;
    for (auto c : candidate->contracts)
      homes.insert(ledger::shard_of_contract(c, 3).value);
    if (homes.size() >= 2) {
      tx = candidate;
      break;
    }
  }
  ASSERT_NE(tx, nullptr);
  f.system->submit(tx);
  f.sim.run_until(600 * kSecond);
  EXPECT_EQ(f.system->stats().committed, 1u);
  // Cross-shard traffic must exist (hand-offs + commit fan-out).
  EXPECT_GT(f.net->stats().messages[static_cast<int>(sim::TrafficClass::kCrossShard)], 0u);
}

TEST(CxFunc, QuorumBroadcastCostsMoreCrossTraffic) {
  std::uint64_t cross[2];
  for (int mode = 0; mode < 2; ++mode) {
    BaselineConfig cfg = small_config();
    cfg.cross_mode = mode == 0 ? CrossShardMode::kClientRelay : CrossShardMode::kQuorumBroadcast;
    Fixture f(Kind::kCxFunc, cfg);
    for (int i = 0; i < 5; ++i) {
      f.sim.run_until(f.sim.now() + 2 * kSecond);
      f.submit_contract_tx();
    }
    f.sim.run_until(600 * kSecond);
    EXPECT_GT(f.system->stats().committed, 0u);
    cross[mode] = f.net->stats().messages[static_cast<int>(sim::TrafficClass::kCrossShard)];
  }
  EXPECT_GT(cross[1], cross[0] * 3);
}

TEST(SingleShard, ContractShardHoldsAllState) {
  Fixture f(Kind::kSingleShard, small_config());
  EXPECT_EQ(f.system->shard_store(ShardId{0}).contract_count(), 150u);
  EXPECT_EQ(f.system->shard_store(ShardId{1}).contract_count(), 0u);
  const auto r = f.system->storage_report();
  EXPECT_GT(r.state_bytes_per_node, 0u);
}

TEST(Pyramid, StorageIncludesMergeOverhead) {
  Fixture fp(Kind::kPyramid, small_config());
  Fixture fc(Kind::kCxFunc, small_config());
  EXPECT_GT(fp.system->storage_report().extra_bytes_per_node, 0u);
  EXPECT_GT(fp.system->storage_report().total(), fc.system->storage_report().total());
}

TEST(Pyramid, InSpanTxSkipsStepChain) {
  // A tx whose contracts all live inside one merge span commits with less
  // cross-shard traffic than the same tx on CX Func.
  BaselineConfig cfg = small_config();
  cfg.num_shards = 4;
  cfg.merge_span = 2;

  // Build a tx over two contracts homed on shards 0 and 1 (same span).
  auto find_contract_on = [&](std::uint32_t shard, std::uint64_t start) {
    for (std::uint64_t c = start; c < 150; ++c)
      if (ledger::shard_of_contract(ContractId{c}, 4).value == shard) return c;
    return std::uint64_t{0};
  };
  const std::uint64_t c0 = find_contract_on(0, 0);
  const std::uint64_t c1 = find_contract_on(1, 0);

  auto make_tx = [&] {
    auto tx = std::make_shared<Transaction>();
    tx->kind = ledger::TxKind::kContractCall;
    tx->sender = AccountId{1};
    tx->fee = 5;
    tx->contracts = {ContractId{c0}, ContractId{c1}};
    tx->accounts = {AccountId{1}};
    tx->steps = {{0, 0, {1}}, {1, 0, {2}}, {0, 0, {3}}};
    tx->finalize();
    return tx;
  };

  std::uint64_t cross[2];
  for (int which = 0; which < 2; ++which) {
    Fixture f(which == 0 ? Kind::kPyramid : Kind::kCxFunc, cfg);
    // No drawn tx named these contracts, so their bodies are built here.
    f.gen->contract(c0);
    f.gen->contract(c1);
    f.system->submit(make_tx());
    f.sim.run_until(600 * kSecond);
    EXPECT_EQ(f.system->stats().committed, 1u) << "which=" << which;
    cross[which] = f.net->stats().messages[static_cast<int>(sim::TrafficClass::kCrossShard)];
  }
  EXPECT_LT(cross[0], cross[1]);
}

}  // namespace
}  // namespace jenga::baselines
