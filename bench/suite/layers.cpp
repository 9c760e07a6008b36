// Per-layer microbenchmarks.  Each one times a public entry point of one src/
// module from outside and reports the host cost of one operation as the
// median over several timed batches, so a single preempted batch does not
// move the number.  Inputs come from the run's seed.
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "consensus/bft.hpp"
#include "crypto/fastcrypto.hpp"
#include "crypto/sha256.hpp"
#include "exec/engine.hpp"
#include "gossip/rumor.hpp"
#include "ledger/portable_state.hpp"
#include "ledger/state_store.hpp"
#include "ledger/trie.hpp"
#include "mempool/ingress.hpp"
#include "security/detector.hpp"
#include "simnet/network.hpp"
#include "suite.hpp"
#include "vm/interpreter.hpp"
#include "workload/trace.hpp"

namespace jenga::suite {

namespace {

constexpr int kBatches = 7;

/// Keeps `value` alive so the timed call cannot be optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Deterministic 256-bit key from two integers.
Hash256 hash_of(std::uint64_t a, std::uint64_t b) {
  std::uint8_t bytes[16];
  std::memcpy(bytes, &a, 8);
  std::memcpy(bytes + 8, &b, 8);
  return crypto::sha256(std::span<const std::uint8_t>(bytes, sizeof(bytes)));
}

/// Median over kBatches batches of `ops` calls of body(i), in ns per call.
template <typename F>
double ns_per_op(std::size_t ops, F&& body) {
  std::vector<double> per_op;
  std::uint64_t i = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < ops; ++j) body(i++);
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(std::move(per_op));
}

/// Simulator::schedule_at + step with a one-million-event heap.
double simnet_step_ns(std::uint64_t seed) {
  constexpr SimTime kHorizon = 1'000'000 * kSecond;
  sim::Simulator sim;
  Rng rng(seed);
  std::uint64_t fired = 0;
  for (int i = 0; i < 1'000'000; ++i)
    sim.schedule_at(static_cast<SimTime>(rng.uniform(kHorizon)), [&fired] { ++fired; });
  const double ns = ns_per_op(20'000, [&](std::uint64_t) {
    sim.schedule_after(static_cast<SimTime>(rng.uniform(kHorizon)) + 1, [&fired] { ++fired; });
    sim.step();
  });
  keep(fired);
  return ns;
}

/// Network::broadcast of one 4 KiB proposal to a 240-member group, run until
/// every copy was delivered; cost per delivered message.
double simnet_deliver_ns_k240(std::uint64_t seed) {
  constexpr std::uint32_t kMembers = 240;
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(seed));
  std::vector<NodeId> group;
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    group.push_back(NodeId{i});
    net.register_node(NodeId{i}, [&delivered](const sim::Message&) { ++delivered; });
  }
  const sim::Message msg =
      sim::make_message<sim::Payload>(sim::MsgType::kBftPrePrepare, NodeId{0}, 4096);
  std::vector<double> per_msg;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t before = delivered;
    const auto t0 = Clock::now();
    for (int r = 0; r < 20; ++r) {
      net.broadcast(sim::BroadcastKind::kProposal, NodeId{0}, group,
                    sim::rumor_id_mix(seed, static_cast<std::uint64_t>(b), r), msg,
                    sim::TrafficClass::kIntraShard);
      sim.run_until_idle();
    }
    per_msg.push_back(seconds_since(t0) * 1e9 / static_cast<double>(delivered - before));
  }
  return median(std::move(per_msg));
}

/// One BFT height of a k-member group (fresh group per batch, construction
/// excluded), in ms of host time per decided height.
double consensus_height_ms(std::uint32_t k, std::uint64_t seed) {
  using namespace consensus;
  constexpr std::uint64_t kHeights = 8;
  struct App : BftApp {
    std::uint64_t decided = 0;
    std::optional<ConsensusValue> propose(std::uint64_t height) override {
      if (height >= kHeights) return std::nullopt;
      ConsensusValue v;
      v.digest = hash_of(kHeights, height);
      v.size_bytes = 4096;
      return v;
    }
    bool validate(std::uint64_t, const ConsensusValue&) override { return true; }
    void on_decide(std::uint64_t, const ConsensusValue&, const QuorumCert&) override {
      ++decided;
    }
  };
  std::vector<double> per_height;
  for (int b = 0; b < 3; ++b) {
    sim::Simulator sim;
    sim::Network net(sim, sim::NetConfig{}, Rng(seed + static_cast<std::uint64_t>(b)));
    auto cfg = std::make_shared<BftConfig>();
    cfg->crypto_seed = seed;
    for (std::uint32_t i = 0; i < k; ++i) cfg->members.push_back(NodeId{i});
    std::vector<std::unique_ptr<App>> apps;
    std::vector<std::unique_ptr<Replica>> replicas;
    for (std::uint32_t i = 0; i < k; ++i) {
      apps.push_back(std::make_unique<App>());
      replicas.push_back(std::make_unique<Replica>(net, NodeId{i}, cfg, *apps.back()));
      Replica* r = replicas.back().get();
      net.register_node(NodeId{i}, [r](const sim::Message& m) { r->on_message(m); });
    }
    const auto t0 = Clock::now();
    for (auto& r : replicas) r->start();
    while (apps[0]->decided < kHeights && sim.now() < 600 * kSecond)
      sim.run_until(sim.now() + kSecond);
    per_height.push_back(seconds_since(t0) * 1e3 / static_cast<double>(kHeights));
  }
  return median(std::move(per_height));
}

double multisig_verify_us(std::size_t signers, std::uint64_t seed) {
  std::vector<crypto::FastKey> keys;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < signers; ++i) {
    keys.push_back(crypto::fast_keypair(seed * 1000 + i));
    ids.push_back(keys.back().public_id);
  }
  const Hash256 msg = hash_of(signers, seed);
  const crypto::FastMultiSig sig =
      crypto::fast_aggregate(keys, std::vector<bool>(signers, true), msg);
  return ns_per_op(2000, [&](std::uint64_t) {
           keep(crypto::fast_verify_multisig(ids, msg, sig));
         }) / 1e3;
}

double sha256_1k_ns(std::uint64_t seed) {
  std::vector<std::uint8_t> data(1024, static_cast<std::uint8_t>(seed));
  return ns_per_op(2000, [&](std::uint64_t i) {
    data[0] = static_cast<std::uint8_t>(i);
    keep(crypto::sha256(data));
  });
}

/// MerkleTrie::put into a 100k-key trie followed by root().
double trie_put_us(std::uint64_t seed) {
  constexpr std::size_t kKeys = 100'000;
  std::vector<Hash256> paths;
  paths.reserve(kKeys);
  ledger::MerkleTrie trie;
  for (std::size_t i = 0; i < kKeys; ++i) {
    paths.push_back(hash_of(seed, i));
    trie.put(paths.back(), hash_of(~seed, i));
  }
  keep(trie.root());
  Rng rng(seed);
  return ns_per_op(500, [&](std::uint64_t i) {
           trie.put(paths[rng.uniform(kKeys)], hash_of(seed + 1, i));
           keep(trie.root());
         }) / 1e3;
}

/// StateStore::set_contract_state of a 256-entry contract plus digest().
double contract_write_us(std::uint64_t seed) {
  constexpr std::uint64_t kContracts = 1000;
  constexpr std::uint64_t kEntries = 256;
  ledger::StateStore store;
  Rng rng(seed);
  for (std::uint64_t c = 0; c < kContracts; ++c) {
    ledger::ContractState st;
    for (std::uint64_t k = 0; k < kEntries; ++k) st[k] = rng.next();
    store.create_contract_state(ContractId{c}, std::move(st));
  }
  keep(store.digest());
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    // Updated states are built before the clock starts: only the write and
    // the root update are timed.
    std::vector<std::pair<ContractId, ledger::ContractState>> updates;
    for (int u = 0; u < 200; ++u) {
      const ContractId id{rng.uniform(kContracts)};
      ledger::ContractState st = *store.contract_state(id);
      st[rng.uniform(kEntries)] = rng.next();
      updates.emplace_back(id, std::move(st));
    }
    const auto t0 = Clock::now();
    for (auto& [id, st] : updates) {
      store.set_contract_state(id, std::move(st));
      keep(store.digest());
    }
    per_op.push_back(seconds_since(t0) * 1e6 / static_cast<double>(updates.size()));
  }
  return median(std::move(per_op));
}

/// Contracts shaped like the fat-state workload's.
workload::TraceConfig fat_contracts() {
  workload::TraceConfig tc;
  tc.num_contracts = 1024;
  tc.num_accounts = 10'000;
  tc.initial_state_entries_min = 64;
  tc.initial_state_entries_max = 256;
  tc.function_length_min = 150;
  tc.function_length_max = 400;
  return tc;
}

/// exec::Engine::run_batch over 64 fat-state-shaped contract txs.
double exec_batch_ms(std::uint32_t workers, std::uint64_t seed) {
  workload::TraceGenerator gen(fat_contracts(), Rng(seed));
  std::vector<ledger::Transaction> txs;
  for (int i = 0; i < 64; ++i) txs.push_back(gen.contract_tx(1'000'000, 0));
  auto make_tasks = [&] {
    std::vector<exec::Task> tasks;
    for (const auto& tx : txs) {
      exec::Task t;
      t.id = tx.hash;
      t.sender = tx.sender;
      for (const ContractId c : tx.contracts) {
        t.logic.push_back(gen.contracts()[c.value].get());
        t.input.contracts[c] = gen.initial_state(c.value);
      }
      t.steps_view = tx.steps;
      t.input.balances[tx.sender] = 1'000'000;
      for (const AccountId a : tx.accounts) t.input.balances[a] = 1'000'000;
      t.limits.gas_limit = tx.gas_limit;
      t.access = exec::declared_access(tx);
      tasks.push_back(std::move(t));
    }
    return tasks;
  };
  exec::EngineOptions opts;
  opts.workers = workers;
  exec::Engine engine(opts);
  std::vector<double> per_batch;
  for (int b = 0; b < kBatches; ++b) {
    auto tasks = make_tasks();
    const auto t0 = Clock::now();
    const auto results = engine.run_batch(std::move(tasks));
    per_batch.push_back(seconds_since(t0) * 1e3);
    keep(results);
  }
  return median(std::move(per_batch));
}

/// vm::Interpreter::run of one fat-state-shaped contract tx.
double vm_contract_tx_us(std::uint64_t seed) {
  workload::TraceGenerator gen(fat_contracts(), Rng(seed));
  std::vector<ledger::Transaction> txs;
  for (int i = 0; i < 32; ++i) txs.push_back(gen.contract_tx(1'000'000, 0));
  std::vector<double> per_tx;
  for (int b = 0; b < kBatches; ++b) {
    double total = 0;
    for (const auto& tx : txs) {
      ledger::PortableState st;
      for (const ContractId c : tx.contracts) st.contracts[c] = gen.initial_state(c.value);
      st.balances[tx.sender] = 1'000'000;
      for (const AccountId a : tx.accounts) st.balances[a] = 1'000'000;
      ledger::PortableStateView view(std::move(st));
      std::vector<const vm::ContractLogic*> logic;
      for (const ContractId c : tx.contracts) logic.push_back(gen.contracts()[c.value].get());
      vm::ExecLimits limits;
      limits.gas_limit = tx.gas_limit;
      vm::Interpreter interp(logic, view, limits);
      const auto t0 = Clock::now();
      const vm::ExecResult r = interp.run(tx.sender, tx.steps);
      total += seconds_since(t0);
      keep(r);
    }
    per_tx.push_back(total * 1e6 / static_cast<double>(txs.size()));
  }
  return median(std::move(per_tx));
}

/// mempool::IngressSet::offer of every tx, then one dispatch of all of them.
double offer_dispatch_us(std::uint64_t seed) {
  workload::TraceConfig tc;
  tc.num_accounts = 50'000;
  workload::TraceGenerator gen(tc, Rng(seed));
  std::vector<core::TxPtr> txs;
  for (int i = 0; i < 2000; ++i)
    txs.push_back(std::make_shared<const ledger::Transaction>(gen.transfer_tx(0)));
  mempool::IngressConfig ic;
  ic.num_shards = 12;
  ic.pool.capacity = 1024;
  std::vector<double> per_tx;
  for (int b = 0; b < kBatches; ++b) {
    mempool::IngressSet ingress(ic);
    std::size_t submitted = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < txs.size(); ++i)
      ingress.offer(txs[i], static_cast<SimTime>(i), static_cast<std::uint8_t>(i % 3));
    ingress.dispatch(static_cast<SimTime>(txs.size()), txs.size(),
                     [&submitted](core::TxPtr) { ++submitted; });
    per_tx.push_back(seconds_since(t0) * 1e6 / static_cast<double>(txs.size()));
    keep(submitted);
  }
  return median(std::move(per_tx));
}

/// One rumor spread through a 240-member RumorMesh until the mesh is idle;
/// host cost per simulated push round.
double rumor_round_us_n240(std::uint64_t seed) {
  constexpr std::uint32_t kMembers = 240;
  std::vector<double> per_round;
  for (int b = 0; b < 3; ++b) {
    sim::Simulator sim;
    sim::Network net(sim, sim::NetConfig{}, Rng(seed + static_cast<std::uint64_t>(b)));
    gossip::RumorMesh mesh(net, gossip::RumorConfig{}, Rng(seed ^ 0x52554D52ULL));
    net.set_rumor_mesh(&mesh);
    std::vector<NodeId> group;
    std::uint64_t delivered = 0;
    for (std::uint32_t i = 0; i < kMembers; ++i) {
      group.push_back(NodeId{i});
      net.register_node(NodeId{i}, [&delivered](const sim::Message&) { ++delivered; });
    }
    const sim::Message msg =
        sim::make_message<sim::Payload>(sim::MsgType::kClientTx, NodeId{0}, 600);
    const auto t0 = Clock::now();
    mesh.broadcast(NodeId{0}, group, sim::rumor_id_mix(seed, static_cast<std::uint64_t>(b)),
                   msg, sim::TrafficClass::kIntraShard);
    sim.run_until_idle();
    const double rounds = static_cast<double>(sim.now()) /
                          static_cast<double>(mesh.config().round_interval);
    per_round.push_back(seconds_since(t0) * 1e6 / rounds);
    keep(delivered);
  }
  return median(std::move(per_round));
}

/// FailureDetector::on_arrival with `pairs` directed pairs already sampled.
double detector_arrival_ns(std::size_t pairs, std::uint64_t seed) {
  constexpr std::uint32_t kPeers = 1000;
  sim::Simulator sim;
  security::FailureDetector detector(sim);
  SimTime now = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < pairs; ++p) {
      now += 1;
      detector.on_arrival(NodeId{static_cast<std::uint32_t>(p % kPeers)},
                          NodeId{static_cast<std::uint32_t>(p / kPeers)}, now);
    }
  }
  Rng rng(seed);
  return ns_per_op(100'000, [&](std::uint64_t) {
    const std::uint64_t p = rng.uniform(pairs);
    now += 1000;
    detector.on_arrival(NodeId{static_cast<std::uint32_t>(p % kPeers)},
                        NodeId{static_cast<std::uint32_t>(p / kPeers)}, now);
  });
}

}  // namespace

std::vector<Metric> run_layer_micros(std::uint64_t seed) {
  return {
      {"simnet.step_ns", simnet_step_ns(seed), "ns"},
      {"simnet.deliver_ns_k240", simnet_deliver_ns_k240(seed), "ns"},
      {"consensus.height_ms_k60", consensus_height_ms(60, seed), "ms"},
      {"consensus.height_ms_k240", consensus_height_ms(240, seed), "ms"},
      {"crypto.multisig_verify_us_k60", multisig_verify_us(60, seed), "us"},
      {"crypto.multisig_verify_us_k240", multisig_verify_us(240, seed), "us"},
      {"crypto.sha256_1k_ns", sha256_1k_ns(seed), "ns"},
      {"ledger.trie_put_us", trie_put_us(seed), "us"},
      {"ledger.contract_write_us", contract_write_us(seed), "us"},
      {"exec.batch_ms_w1", exec_batch_ms(1, seed), "ms"},
      {"exec.batch_ms_w4", exec_batch_ms(4, seed), "ms"},
      {"vm.contract_tx_us", vm_contract_tx_us(seed), "us"},
      {"mempool.offer_dispatch_us", offer_dispatch_us(seed), "us"},
      {"gossip.rumor_round_us_n240", rumor_round_us_n240(seed), "us"},
      {"security.detector_arrival_ns_30k", detector_arrival_ns(30'000, seed), "ns"},
      {"security.detector_arrival_ns_700k", detector_arrival_ns(700'000, seed), "ns"},
  };
}

}  // namespace jenga::suite
