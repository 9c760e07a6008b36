// Micro-benchmarks (google-benchmark) for the hot primitives underneath the
// experiment harness: hashing, curve arithmetic, signatures, the VM, the
// trace generator, the Merkle tree, the state trie, the simulator's event
// queue, a full simulated consensus round, and building a consensus group.
#include <benchmark/benchmark.h>

#include "consensus/bft.hpp"
#include "consensus/messages.hpp"
#include "crypto/fastcrypto.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "ledger/portable_state.hpp"
#include "ledger/trie.hpp"
#include "simnet/simulator.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"
#include "workload/trace.hpp"

namespace {

using namespace jenga;

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// The input sizes the hot paths hash: 24 B is a state path (15-byte tag plus
// 9-byte key), 79 B a trie leaf frame, 528 B a trie inner frame.  The
// dispatched hasher runs the SHA-extension kernel where the CPU has it; the
// portable reference runs only the C++ kernel, also at 1 KiB beside the row
// above.
void BM_Sha256_Dispatched(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256_Dispatched)->Arg(24)->Arg(79)->Arg(528);

void BM_Sha256_Portable(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256_kernel::sha256_portable(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256_Portable)->Arg(24)->Arg(79)->Arg(528)->Arg(1024);

void BM_Secp256k1_ScalarMulG(benchmark::State& state) {
  const crypto::U256 k = crypto::U256::from_hex("deadbeefcafebabe1234567890");
  for (auto _ : state) benchmark::DoNotOptimize(crypto::point_mul_g(k));
}
BENCHMARK(BM_Secp256k1_ScalarMulG);

void BM_Schnorr_Sign(benchmark::State& state) {
  const auto kp = crypto::keypair_from_seed(1);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sign(kp, msg));
}
BENCHMARK(BM_Schnorr_Sign);

void BM_Schnorr_Verify(benchmark::State& state) {
  const auto kp = crypto::keypair_from_seed(1);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  const auto sig = crypto::sign(kp, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_Schnorr_Verify);

void BM_FastCrypto_AggregateVerify64(benchmark::State& state) {
  std::vector<crypto::FastKey> keys;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(crypto::fast_keypair(i));
    ids.push_back(keys.back().public_id);
  }
  const Hash256 msg = crypto::sha256("m");
  std::vector<bool> part(64, true);
  const auto agg = crypto::fast_aggregate(keys, part, msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::fast_verify_multisig(ids, msg, agg));
}
BENCHMARK(BM_FastCrypto_AggregateVerify64);

void BM_Merkle_Root4096(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < 4096; ++i) leaves.push_back(crypto::sha256("leaf" + std::to_string(i)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::merkle_root(leaves));
}
BENCHMARK(BM_Merkle_Root4096);

/// `n` (path, value hash) pairs for a state trie.
std::vector<std::pair<Hash256, Hash256>> trie_entries(std::size_t n) {
  std::vector<std::pair<Hash256, Hash256>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "key" + std::to_string(i);
    entries.emplace_back(crypto::sha256(key), crypto::sha256("value" + key));
  }
  return entries;
}

// A trie's whole life: the puts, the first root and the destructor.  5,000
// keys is one s12-backlog shard's genesis state.
void BM_Trie_Build(benchmark::State& state) {
  const auto entries = trie_entries(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ledger::MerkleTrie trie;
    for (const auto& [path, value] : entries) trie.put(path, value);
    benchmark::DoNotOptimize(trie.root());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Trie_Build)->Arg(5'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

// One re-put of a random key with a new value, then root(): the trie's share
// of a commit write-back.
void BM_Trie_PutRoot(benchmark::State& state) {
  const auto entries = trie_entries(static_cast<std::size_t>(state.range(0)));
  ledger::MerkleTrie trie;
  for (const auto& [path, value] : entries) trie.put(path, value);
  benchmark::DoNotOptimize(trie.root());
  std::vector<Hash256> values;
  for (int i = 0; i < 1024; ++i) values.push_back(crypto::sha256("new" + std::to_string(i)));
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    trie.put(entries[rng.uniform(entries.size())].first, values[i++ % values.size()]);
    benchmark::DoNotOptimize(trie.root());
  }
}
BENCHMARK(BM_Trie_PutRoot)->Arg(5'000);

void BM_Vm_GeneratedContractTx(benchmark::State& state) {
  workload::TraceConfig cfg;
  cfg.num_contracts = 64;
  workload::TraceGenerator gen(cfg, Rng(3));
  const auto tx = gen.contract_tx(1'000'000, 0);
  for (auto _ : state) {
    ledger::PortableState st;
    for (std::size_t s = 0; s < tx.contracts.size(); ++s)
      st.contracts[tx.contracts[s]] = gen.initial_state(tx.contracts[s].value);
    st.balances[tx.sender] = 1'000'000;
    ledger::PortableStateView view(std::move(st));
    std::vector<const vm::ContractLogic*> logic;
    for (auto c : tx.contracts) logic.push_back(gen.contracts()[c.value].get());
    vm::ExecLimits limits;
    limits.gas_limit = 100'000'000;
    vm::Interpreter interp(logic, view, limits);
    benchmark::DoNotOptimize(interp.run(tx.sender, tx.steps));
  }
}
BENCHMARK(BM_Vm_GeneratedContractTx);

// Constructing and destroying a trace generator with s12-backlog's contract
// shape: the contract universe a run draws before genesis (30,000 contracts
// in s12-backlog, 10,000 in fat-state).
void BM_Trace_Generate(benchmark::State& state) {
  workload::TraceConfig cfg;
  cfg.num_contracts = static_cast<std::uint64_t>(state.range(0));
  cfg.num_accounts = 30'000;
  for (auto _ : state) {
    workload::TraceGenerator gen(cfg, Rng(4));
    benchmark::DoNotOptimize(gen.contracts().back().get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Trace_Generate)->Arg(10'000)->Arg(30'000)->Unit(benchmark::kMillisecond);

// Queueing n events at pseudo-random times within a second and then
// draining them: the event loop's own cost per push and pop, without a
// handler behind it.  65,536 events is about s12-backlog's mid-run queue.
void BM_Sim_ScheduleStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<SimTime> whens(n);
  Rng rng(5);
  for (auto& w : whens)
    w = static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(kSecond)));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (const SimTime w : whens) sim.schedule_at(w, [&fired] { ++fired; });
    sim.run_until_idle();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sim_ScheduleStep)->Arg(4'096)->Arg(65'536);

// s12-backlog's 1,440 BFT replicas each re-arm their view timer at every
// height: 25 rounds 100 ms apart, each re-arming every timer 120 s ahead,
// then the queue drains and each timer fires once.
void BM_Sim_TimerRearm(benchmark::State& state) {
  constexpr std::size_t kTimers = 1'440;
  constexpr int kRounds = 25;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::Simulator::Timer>> timers;
    timers.reserve(kTimers);
    for (std::size_t i = 0; i < kTimers; ++i)
      timers.push_back(std::make_unique<sim::Simulator::Timer>(sim, [&fired] { ++fired; }));
    for (int r = 0; r < kRounds; ++r) {
      sim.schedule_at(r * 100 * kMillisecond, [&timers] {
        for (auto& t : timers) t->arm_after(120 * kSecond);
      });
    }
    sim.run_until_idle();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTimers * kRounds);
}
BENCHMARK(BM_Sim_TimerRearm)->Unit(benchmark::kMillisecond);

/// One full simulated BFT height over a 32-node group (the building block of
/// every experiment): measures simulator + consensus machinery overhead.
void BM_Simulated_ConsensusRound(benchmark::State& state) {
  using namespace jenga::consensus;
  struct App : BftApp {
    std::uint64_t decided = 0;
    std::optional<ConsensusValue> propose(std::uint64_t height) override {
      if (height > 0) return std::nullopt;
      ConsensusValue v;
      v.digest = crypto::sha256("v");
      v.size_bytes = 4096;
      return v;
    }
    bool validate(std::uint64_t, const ConsensusValue&) override { return true; }
    void on_decide(std::uint64_t, const ConsensusValue&, const QuorumCert&) override {
      ++decided;
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net(sim, sim::NetConfig{}, Rng(1));
    auto cfg = std::make_shared<BftConfig>();
    for (std::uint32_t i = 0; i < 32; ++i) cfg->members.push_back(NodeId{i});
    std::vector<std::unique_ptr<App>> apps;
    std::vector<std::unique_ptr<Replica>> replicas;
    for (std::uint32_t i = 0; i < 32; ++i) {
      apps.push_back(std::make_unique<App>());
      replicas.push_back(std::make_unique<Replica>(net, NodeId{i}, cfg, *apps.back()));
    }
    for (std::uint32_t i = 0; i < 32; ++i) {
      Replica* r = replicas[i].get();
      net.register_node(NodeId{i}, [r](const sim::Message& m) { r->on_message(m); });
    }
    for (auto& r : replicas) r->start();
    sim.run_until(5 * kSecond);
    benchmark::DoNotOptimize(apps[0]->decided);
  }
}
BENCHMARK(BM_Simulated_ConsensusRound)->Unit(benchmark::kMillisecond);

/// Building one group's k replicas over one config, then freeing them: what
/// a system pays per group when it builds its replicas (k = 60 at quarter
/// scale, 240 at the paper's).
void BM_Bft_GroupBuild(benchmark::State& state) {
  using namespace jenga::consensus;
  struct App : BftApp {
    std::optional<ConsensusValue> propose(std::uint64_t) override { return std::nullopt; }
    bool validate(std::uint64_t, const ConsensusValue&) override { return true; }
    void on_decide(std::uint64_t, const ConsensusValue&, const QuorumCert&) override {}
  };
  const auto k = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(1));
  App app;
  std::vector<std::unique_ptr<Replica>> replicas;
  replicas.reserve(k);
  for (auto _ : state) {
    auto cfg = std::make_shared<BftConfig>();
    for (std::uint32_t i = 0; i < k; ++i) cfg->members.push_back(NodeId{i});
    for (std::uint32_t i = 0; i < k; ++i)
      replicas.push_back(std::make_unique<Replica>(net, NodeId{i}, cfg, app));
    benchmark::DoNotOptimize(replicas.back().get());
    replicas.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_Bft_GroupBuild)->Arg(60)->Arg(240);

}  // namespace

BENCHMARK_MAIN();
