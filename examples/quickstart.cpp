// Quickstart: stand up a small Jenga lattice, deploy a counter contract,
// submit a contract transaction, and watch the three-phase cross-shard
// protocol commit it.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "common/hex.hpp"
#include "core/jenga_system.hpp"
#include "ledger/placement.hpp"
#include "vm/assembler.hpp"

using namespace jenga;

int main() {
  // --- 1. A contract, written in the VM's assembly -------------------------
  // counter.increment(): state[0] += args[0]
  auto counter = std::make_shared<vm::ContractLogic>();
  counter->id = ContractId{0};
  {
    auto code = vm::assemble(R"(
      PUSH 0      ; key
      PUSH 0
      SLOAD       ; current value
      PUSH 0
      ARG         ; args[0]
      ADD
      SSTORE      ; state[0] += args[0]
      RETURN
    )");
    if (!code.ok()) {
      std::fprintf(stderr, "assembler error: %s\n", code.error().c_str());
      return 1;
    }
    counter->functions.push_back({"increment", code.value()});
  }

  // --- 2. Genesis: accounts + the deployed contract ------------------------
  core::Genesis genesis;
  genesis.num_accounts = 100;
  genesis.initial_balance = 1'000'000;
  genesis.contracts = {counter};
  genesis.initial_states = {{{0, 0}}};  // counter starts at 0

  // --- 3. A 2x2 lattice: 2 state shards x 2 execution channels, 8 nodes ----
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(7));
  telemetry::Telemetry telemetry;  // counters and per-tx phase tracing
  core::JengaConfig config;
  config.num_shards = 2;
  config.nodes_per_shard = 4;
  core::JengaSystem jenga(sim, net, telemetry, config, genesis);
  jenga.start();

  std::printf("lattice: %u state shards x %u channels, %u nodes, subgroups of %u\n",
              jenga.lattice().num_shards(), jenga.lattice().num_shards(),
              jenga.lattice().total_nodes(), jenga.lattice().subgroup_size());

  // --- 4. A contract transaction: increment by 42 --------------------------
  auto tx = std::make_shared<ledger::Transaction>();
  tx->kind = ledger::TxKind::kContractCall;
  tx->sender = AccountId{5};
  tx->fee = 10;
  tx->contracts = {ContractId{0}};  // declared access set
  tx->accounts = {AccountId{5}};
  tx->steps = {{0, 0, {42}}};       // slot 0, function 0, args {42}
  tx->finalize();

  const ChannelId channel = ledger::channel_of_tx(tx->hash, config.num_shards);
  const ShardId home = ledger::shard_of_contract(ContractId{0}, config.num_shards);
  std::printf("tx %.8s...: state on shard %u, executed by channel %u\n",
              to_hex(tx->hash).c_str(), home.value, channel.value);

  jenga.submit(tx);
  sim.run_until(60 * kSecond);

  // --- 5. Inspect the result ----------------------------------------------
  const auto& stats = jenga.stats();
  std::printf("committed=%llu aborted=%llu, avg latency %.2fs (simulated)\n",
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted), stats.avg_latency_seconds());
  const auto* state = jenga.shard_store(home).contract_state(ContractId{0});
  std::printf("counter value on shard %u: %llu (expected 42)\n", home.value,
              static_cast<unsigned long long>(state ? state->at(0) : 0));
  std::printf("sender balance: %llu (fee of 10 deducted)\n",
              static_cast<unsigned long long>(
                  jenga.shard_store(ledger::shard_of_account(AccountId{5}, 2))
                      .balance(AccountId{5})
                      .value_or(0)));
  return stats.committed == 1 ? 0 : 1;
}
