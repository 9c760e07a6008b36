// Deterministic parallel execution engine (src/exec/): conflict analysis over
// declared read/write sets, engine semantics (results in input order, each
// task on its own input), batch-size telemetry, and the headline acceptance
// property — same-seed runs of Jenga and every baseline are bit-identical
// (ledger digest AND metrics snapshot) across exec worker counts 1, 2 and 8.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/conflict.hpp"
#include "exec/engine.hpp"
#include "harness/runner.hpp"
#include "telemetry/metrics.hpp"
#include "vm/assembler.hpp"
#include "workload/trace.hpp"

namespace jenga::exec {
namespace {

using ledger::PortableState;

// ---------------------------------------------------------------------------
// Conflict analysis
// ---------------------------------------------------------------------------

TEST(Conflict, NormalizeSortsDedupsAndShadowsReads) {
  AccessSet s;
  s.writes = {5, 3, 5};
  s.reads = {7, 3, 7, 9};
  s.normalize();
  EXPECT_EQ(s.writes, (std::vector<ResourceKey>{3, 5}));
  // 3 is written too, so it behaves as a write and leaves the read set.
  EXPECT_EQ(s.reads, (std::vector<ResourceKey>{7, 9}));
}

TEST(Conflict, WriteWriteAndReadWriteConflictReadReadDoesNot) {
  AccessSet wx, wx2, rx, rx2, wy;
  wx.writes = {1};
  wx2.writes = {1};
  rx.reads = {1};
  rx2.reads = {1};
  wy.writes = {2};
  for (AccessSet* s : {&wx, &wx2, &rx, &rx2, &wy}) s->normalize();

  EXPECT_TRUE(conflicts(wx, wx2));   // write-write
  EXPECT_TRUE(conflicts(wx, rx));    // write-read
  EXPECT_TRUE(conflicts(rx, wx));    // read-write
  EXPECT_FALSE(conflicts(rx, rx2));  // read-read shares fine
  EXPECT_FALSE(conflicts(wx, wy));   // disjoint
}

TEST(Conflict, DeclaredAccessCoversContractsAccountsAndSender) {
  ledger::Transaction tx;
  tx.contracts = {ContractId{2}, ContractId{5}};
  tx.accounts = {AccountId{7}};
  tx.sender = AccountId{9};
  const AccessSet s = declared_access(tx);
  EXPECT_TRUE(s.reads.empty());  // conservative: everything declared may be written
  const std::vector<ResourceKey> want{account_key(AccountId{7}), account_key(AccountId{9}),
                                      contract_key(ContractId{2}), contract_key(ContractId{5})};
  auto sorted = want;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(s.writes, sorted);
}

TEST(Conflict, ResourceKeyCategoriesNeverCollide) {
  EXPECT_NE(contract_key(ContractId{42}), account_key(AccountId{42}));
  Hash256 h{};
  h.bytes[0] = 42;
  EXPECT_NE(tx_key(h), contract_key(ContractId{42}));
  EXPECT_NE(tx_key(h), account_key(AccountId{42}));
}

// ---------------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------------

/// A contract whose single function adds `arg0` into its own state[0].
std::shared_ptr<const vm::ContractLogic> add_contract(ContractId id) {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = id;
  auto code = vm::assemble(R"(
    PUSH 0      ; store key
    PUSH 0
    SLOAD       ; current value
    PUSH 0
    ARG         ; arg[0]
    ADD
    SSTORE
    RETURN
  )");
  EXPECT_TRUE(code.ok());
  logic->functions.push_back({"add", code.value()});
  return logic;
}

/// One task calling `logic` once with `arg`, over a private bundle holding the
/// contract's state (initially {0: start}) and the sender's balance.
Task make_add_task(const std::shared_ptr<const vm::ContractLogic>& logic, std::uint64_t arg,
                   std::uint64_t start, std::uint8_t tag) {
  Task t;
  t.id.bytes[0] = tag;
  t.sender = AccountId{100u + tag};  // distinct: tasks share at most the contract
  t.logic = {logic.get()};
  t.own_steps.push_back(vm::CallStep{0, 0, {arg}});
  t.input.contracts[logic->id] = ledger::ContractState{{0, start}};
  t.input.balances[t.sender] = 1000;
  return t;
}

TEST(Engine, ResultsComeBackInInputOrderForEveryWorkerCount) {
  auto batch_for = [](std::size_t n) {
    std::vector<std::shared_ptr<const vm::ContractLogic>> logics;
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      logics.push_back(add_contract(ContractId{i}));
      tasks.push_back(make_add_task(logics.back(), i + 1, 10, static_cast<std::uint8_t>(i)));
    }
    return std::pair(std::move(logics), std::move(tasks));
  };
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    auto [logics, tasks] = batch_for(16);
    tasks[5].limits.gas_limit = 1;  // fails in its own slot only
    EngineOptions eo;
    eo.workers = workers;
    Engine engine(eo);
    const auto results = engine.run_batch(std::move(tasks));
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == 5) {
        EXPECT_FALSE(results[i].vm.ok());
        continue;
      }
      ASSERT_TRUE(results[i].vm.ok());
      // Slot i really holds task i's effect: state[0] = 10 + (i + 1).
      EXPECT_EQ(results[i].output.contracts.at(ContractId{i}).at(0), 10 + i + 1);
    }
  }
}

TEST(Engine, TasksSharingAContractEachRunOnTheirOwnInput) {
  // Three tasks on ONE contract, each adding its arg to state[0] (start 100).
  // No task sees another's output, so each ends at 100 + its own arg.  Several
  // workers may read the one ContractLogic at once.
  auto logic = add_contract(ContractId{7});
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    std::vector<Task> tasks;
    for (std::uint64_t arg = 1; arg <= 3; ++arg)
      tasks.push_back(make_add_task(logic, arg, 100, static_cast<std::uint8_t>(arg)));
    EngineOptions eo;
    eo.workers = workers;
    Engine engine(eo);
    const auto results = engine.run_batch(std::move(tasks));
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].vm.ok());
      EXPECT_EQ(results[i].output.contracts.at(ContractId{7}).at(0), 100 + i + 1);
    }
  }
}

TEST(Engine, TelemetrySnapshotIdenticalAcrossWorkerCounts) {
  auto run_with = [](std::uint32_t workers) {
    telemetry::MetricsRegistry reg;
    auto logic = add_contract(ContractId{5});
    std::vector<Task> tasks;
    for (std::uint64_t i = 0; i < 6; ++i)
      tasks.push_back(make_add_task(logic, i + 1, 0, static_cast<std::uint8_t>(i)));
    EngineOptions eo;
    eo.workers = workers;
    Engine engine(eo);
    engine.set_metrics(&reg);
    (void)engine.run_batch(std::move(tasks));
    return reg.to_json();
  };
  const std::string serial = run_with(1);
  EXPECT_EQ(run_with(2), serial);
  EXPECT_EQ(run_with(8), serial);
  EXPECT_NE(serial.find("exec.batch.tasks"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Workload skew knob
// ---------------------------------------------------------------------------

TEST(Workload, ZipfSkewConcentratesContractDraws) {
  auto hot_share = [](double skew) {
    workload::TraceConfig tc;
    tc.num_contracts = 100;
    tc.num_accounts = 1000;
    tc.zipf_skew = skew;
    workload::TraceGenerator gen(tc, Rng(42));
    std::uint64_t hot = 0, total = 0;
    for (int i = 0; i < 1500; ++i) {
      const auto tx = gen.contract_tx(0, 0);
      for (auto c : tx.contracts) {
        total += 1;
        if (c.value < 10) hot += 1;  // the 10 hottest ranks
      }
    }
    return static_cast<double>(hot) / static_cast<double>(total);
  };
  const double uniform = hot_share(0.0);
  const double skewed = hot_share(1.2);
  EXPECT_NEAR(uniform, 0.10, 0.03);  // 10% of contracts, ~10% of draws
  EXPECT_GT(skewed, 0.45);           // hot ranks dominate under Zipf(1.2)
}

TEST(Workload, SkewedTraceIsDeterministicPerSeed) {
  auto trace_sig = [] {
    workload::TraceConfig tc;
    tc.num_contracts = 60;
    tc.zipf_skew = 0.9;
    workload::TraceGenerator gen(tc, Rng(7));
    std::vector<std::uint64_t> sig;
    for (int i = 0; i < 50; ++i)
      for (auto c : gen.contract_tx(0, 0).contracts) sig.push_back(c.value);
    return sig;
  };
  EXPECT_EQ(trace_sig(), trace_sig());
}

// ---------------------------------------------------------------------------
// End-to-end determinism: bit-identical across worker counts
// ---------------------------------------------------------------------------

harness::RunConfig small_run(harness::SystemKind kind, std::uint32_t workers) {
  harness::RunConfig rc;
  rc.kind = kind;
  rc.num_shards = 2;
  rc.nodes_per_shard = 4;
  rc.seed = 11;
  rc.contract_txs = 90;
  rc.transfer_txs = 20;
  // Closed loop: arrivals far above the service rate, pools that hold every
  // tx until dispatch, and a credit window of 24 in flight.
  rc.arrival.rate_tps = 2000;
  rc.mempool.capacity = rc.contract_txs + rc.transfer_txs;
  rc.mempool.ttl = rc.max_sim_time;
  rc.max_inflight = 24;
  rc.exec_workers = workers;
  rc.trace.num_contracts = 60;
  rc.trace.num_accounts = 400;
  rc.trace.max_contracts_per_tx = 4;
  rc.trace.max_steps = 8;
  rc.trace.zipf_skew = 0.8;  // hot contracts exercise lock retries and segment splits
  return rc;
}

TEST(Determinism, LedgerAndTelemetryBitIdenticalAcrossWorkerCounts) {
  using harness::SystemKind;
  for (const SystemKind kind :
       {SystemKind::kJenga, SystemKind::kJengaNoLattice, SystemKind::kCxFunc,
        SystemKind::kSingleShard, SystemKind::kPyramid}) {
    SCOPED_TRACE(harness::system_name(kind));
    const auto serial = harness::run_experiment(small_run(kind, 1));
    ASSERT_GT(serial.stats.committed, 0u);
    for (const std::uint32_t workers : {2u, 8u}) {
      SCOPED_TRACE(workers);
      const auto parallel = harness::run_experiment(small_run(kind, workers));
      EXPECT_EQ(parallel.ledger_digest, serial.ledger_digest);
      EXPECT_EQ(parallel.stats.committed, serial.stats.committed);
      EXPECT_EQ(parallel.stats.aborted, serial.stats.aborted);
      EXPECT_EQ(parallel.sim_events, serial.sim_events);
      EXPECT_EQ(parallel.telemetry->registry.to_json(), serial.telemetry->registry.to_json());
    }
  }
}

}  // namespace
}  // namespace jenga::exec
