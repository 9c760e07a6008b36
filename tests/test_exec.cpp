// Deterministic parallel execution engine (src/exec/): conflict analysis over
// declared read/write sets, canonical greedy level scheduling, engine commit
// semantics (canonical order, conflict chaining), schedule-derived telemetry,
// and the headline acceptance property — same-seed runs of Jenga and every
// baseline are bit-identical (ledger digest AND metrics snapshot) across
// exec worker counts 1, 2 and 8.
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

TEST(Conflict, ScheduleAssignsCanonicalGreedyLevels) {
  // T0 w{x}  T1 w{x}  T2 r{x}  T3 r{x}  T4 w{x}  T5 w{y}
  auto mk = [](std::vector<ResourceKey> w, std::vector<ResourceKey> r) {
    AccessSet s;
    s.writes = std::move(w);
    s.reads = std::move(r);
    s.normalize();
    return s;
  };
  const std::vector<AccessSet> batch{mk({1}, {}), mk({1}, {}), mk({}, {1}),
                                     mk({}, {1}), mk({1}, {}), mk({2}, {})};
  const Schedule sched = build_schedule(batch);
  EXPECT_EQ(sched.level, (std::vector<std::uint32_t>{0, 1, 2, 2, 3, 0}));
  ASSERT_EQ(sched.depth(), 4u);
  EXPECT_EQ(sched.levels[0], (std::vector<std::uint32_t>{0, 5}));
  EXPECT_EQ(sched.levels[2], (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(sched.max_width, 2u);
  // Spanning predecessor subset: T1 after the writer T0; both readers hang
  // off T1; the next writer T4 clears the write (T1) and the last reader (T3).
  EXPECT_EQ(sched.preds[1], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(sched.preds[2], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sched.preds[3], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sched.preds[4], (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(sched.dep_edges, 5u);
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
  t.sender = AccountId{100u + tag};  // distinct: only the contract can conflict
  t.logic = {logic.get()};
  t.own_steps.push_back(vm::CallStep{0, 0, {arg}});
  t.input.contracts[logic->id] = ledger::ContractState{{0, start}};
  t.input.balances[t.sender] = 1000;
  t.access.writes = {contract_key(logic->id), account_key(t.sender)};
  t.access.normalize();
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
    EngineOptions eo;
    eo.workers = workers;
    Engine engine(eo);
    const auto results = engine.run_batch(std::move(tasks));
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].vm.ok());
      // Slot i really holds task i's effect: state[0] = 10 + (i + 1).
      EXPECT_EQ(results[i].output.contracts.at(ContractId{i}).at(0), 10 + i + 1);
    }
    EXPECT_EQ(engine.last_batch().tasks, 16u);
    EXPECT_EQ(engine.last_batch().levels, 1u);  // disjoint: all parallel
    EXPECT_EQ(engine.last_batch().max_width, 16u);
  }
}

TEST(Engine, ChainConflictsAppliesPredecessorOutputsInCanonicalOrder) {
  // Three tasks on ONE contract, each adding its arg to state[0] (start 100).
  // With chaining the batch is serially equivalent: 100+1+2+3 after the last.
  auto logic = add_contract(ContractId{7});
  for (const std::uint32_t workers : {1u, 4u}) {
    std::vector<Task> tasks;
    for (std::uint64_t arg = 1; arg <= 3; ++arg)
      tasks.push_back(make_add_task(logic, arg, 100, static_cast<std::uint8_t>(arg)));
    EngineOptions eo;
    eo.workers = workers;
    eo.chain_conflicts = true;
    Engine engine(eo);
    const auto results = engine.run_batch(std::move(tasks));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].output.contracts.at(ContractId{7}).at(0), 101u);
    EXPECT_EQ(results[1].output.contracts.at(ContractId{7}).at(0), 103u);
    EXPECT_EQ(results[2].output.contracts.at(ContractId{7}).at(0), 106u);
    EXPECT_EQ(engine.last_batch().levels, 3u);  // fully serialized chain
    EXPECT_EQ(engine.last_batch().max_width, 1u);
  }
}

TEST(Engine, ChainingSkipsFailedPredecessorsAndForeignEntries) {
  auto logic = add_contract(ContractId{3});
  std::vector<Task> tasks;
  // Task 0 fails (gas limit 1); task 1 must then run against its own input,
  // not the failed predecessor's bundle.
  tasks.push_back(make_add_task(logic, 5, 50, 0));
  tasks[0].limits.gas_limit = 1;
  tasks.push_back(make_add_task(logic, 5, 50, 1));
  // Predecessor carries a balance the successor never declared: it must NOT
  // leak into the successor's output bundle.
  tasks[0].input.balances[AccountId{99}] = 7;
  tasks[0].access.writes.push_back(account_key(AccountId{99}));
  tasks[0].access.normalize();
  EngineOptions eo;
  eo.chain_conflicts = true;
  Engine engine(eo);
  const auto results = engine.run_batch(std::move(tasks));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].vm.ok());
  ASSERT_TRUE(results[1].vm.ok());
  EXPECT_EQ(results[1].output.contracts.at(ContractId{3}).at(0), 55u);
  EXPECT_FALSE(results[1].output.balances.contains(AccountId{99}));
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
    eo.chain_conflicts = true;
    Engine engine(eo);
    engine.set_metrics(&reg);
    (void)engine.run_batch(std::move(tasks));
    return reg.to_json();
  };
  const std::string serial = run_with(1);
  EXPECT_EQ(run_with(2), serial);
  EXPECT_EQ(run_with(8), serial);
  EXPECT_NE(serial.find("exec.batch.levels"), std::string::npos);
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
  rc.trace.zipf_skew = 0.8;  // some hot-key contention so batches really conflict
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
