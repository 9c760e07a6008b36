// A miniature DeFi scenario (the paper's §I motivation): a constant-product
// AMM pool contract plus two token contracts.  A swap transaction touches
// all three contracts — exactly the multi-contract, multi-step workload that
// cripples per-shard isolation and that Jenga executes in a single round.
#include <cstdio>
#include <memory>

#include "core/jenga_system.hpp"
#include "ledger/placement.hpp"
#include "vm/assembler.hpp"

using namespace jenga;

namespace {

constexpr std::uint64_t kTokenA = 0;
constexpr std::uint64_t kTokenB = 1;
constexpr std::uint64_t kPool = 2;

// Token contract: balances keyed by account id.
// transfer_in(args: account, amount): state[account] -= amount (to the pool)
std::shared_ptr<vm::ContractLogic> make_token(ContractId id) {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = id;
  auto debit = vm::assemble(R"(
    PUSH 0
    ARG           ; key = holder account
    PUSH 0
    ARG
    SLOAD         ; holder balance
    PUSH 1
    ARG           ; amount
    SUB
    SSTORE        ; balance' = balance - amount
    RETURN
  )");
  auto credit = vm::assemble(R"(
    PUSH 0
    ARG           ; account
    PUSH 0
    ARG
    SLOAD
    PUSH 1
    ARG
    ADD
    SSTORE
    RETURN
  )");
  if (!debit.ok() || !credit.ok()) std::exit(1);
  logic->functions.push_back({"debit", debit.value()});
  logic->functions.push_back({"credit", credit.value()});
  return logic;
}

// Pool contract state: key 0 = reserve A, key 1 = reserve B, key 2 = swaps.
// swap_a_for_b(args: amount_in): reserves update by a simplified constant-
// product rule computed in integer math: out = reserveB * in / (reserveA + in).
std::shared_ptr<vm::ContractLogic> make_pool() {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = ContractId{kPool};
  auto swap = vm::assemble(R"(
    ; out = rB * in / (rA + in)
    PUSH 1
    SLOAD         ; rB
    PUSH 0
    ARG           ; in
    MUL
    PUSH 0
    SLOAD         ; rA
    PUSH 0
    ARG
    ADD
    DIV           ; out
    ; rB' = rB - out   (out is on stack)
    PUSH 1
    SWAP          ; key under value? stack: out, 1 -> swap -> 1, out  (key then value needed)
    PUSH 1
    SLOAD
    SWAP
    SUB           ; rB - out
    SSTORE        ; state[1] = rB - out
    ; rA' = rA + in
    PUSH 0
    PUSH 0
    SLOAD
    PUSH 0
    ARG
    ADD
    SSTORE
    ; swaps += 1
    PUSH 2
    PUSH 2
    SLOAD
    PUSH 1
    ADD
    SSTORE
    RETURN
  )");
  if (!swap.ok()) {
    std::fprintf(stderr, "%s\n", swap.error().c_str());
    std::exit(1);
  }
  logic->functions.push_back({"swap_a_for_b", swap.value()});
  return logic;
}

}  // namespace

int main() {
  core::Genesis genesis;
  genesis.num_accounts = 64;
  genesis.initial_balance = 100'000;
  genesis.contracts = {make_token(ContractId{kTokenA}), make_token(ContractId{kTokenB}),
                       make_pool()};
  // Token ledgers: trader accounts 1..8 hold 1000 A each; pool reserves.
  ledger::ContractState token_a, token_b;
  for (std::uint64_t acct = 1; acct <= 8; ++acct) token_a[acct] = 1000;
  genesis.initial_states = {token_a, token_b, {{0, 50'000}, {1, 50'000}, {2, 0}}};

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(3));
  telemetry::Telemetry telemetry;  // counters and per-tx phase tracing
  core::JengaConfig config;
  config.num_shards = 3;
  config.nodes_per_shard = 6;
  core::JengaSystem jenga(sim, net, telemetry, config, genesis);
  jenga.start();

  std::printf("token A on shard %u, token B on shard %u, pool on shard %u\n",
              ledger::shard_of_contract(ContractId{kTokenA}, 3).value,
              ledger::shard_of_contract(ContractId{kTokenB}, 3).value,
              ledger::shard_of_contract(ContractId{kPool}, 3).value);

  // Each swap: debit trader's A, run the pool swap, credit trader's B —
  // three contracts, three steps, one atomic transaction.
  for (std::uint64_t trader = 1; trader <= 8; ++trader) {
    auto tx = std::make_shared<ledger::Transaction>();
    tx->kind = ledger::TxKind::kContractCall;
    tx->sender = AccountId{trader};
    tx->fee = 3;
    tx->created_at = sim.now();
    tx->contracts = {ContractId{kTokenA}, ContractId{kPool}, ContractId{kTokenB}};
    tx->accounts = {AccountId{trader}};
    const std::uint64_t amount = 100 * trader;
    tx->steps = {
        {0, 0, {trader, amount}},  // tokenA.debit(trader, amount)
        {1, 0, {amount}},          // pool.swap_a_for_b(amount)
        {2, 1, {trader, amount}},  // tokenB.credit(trader, ~out) [simplified]
    };
    tx->finalize();
    jenga.submit(tx);
    sim.run_until(sim.now() + 15 * kSecond);
  }
  sim.run_until(sim.now() + 60 * kSecond);

  const auto& stats = jenga.stats();
  const auto& pool =
      *jenga.shard_store(ledger::shard_of_contract(ContractId{kPool}, 3)).contract_state(
          ContractId{kPool});
  std::printf("\nswaps committed: %llu (aborted %llu)\n",
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted));
  std::printf("pool reserves: A=%llu B=%llu, swap count=%llu\n",
              static_cast<unsigned long long>(pool.at(0)),
              static_cast<unsigned long long>(pool.at(1)),
              static_cast<unsigned long long>(pool.at(2)));
  const bool invariant = pool.at(0) > 50'000 && pool.at(1) < 50'000 && pool.at(2) == 8;
  std::printf("AMM direction invariant (A grew, B shrank, 8 swaps): %s\n",
              invariant ? "HELD" : "VIOLATED");
  return (stats.committed == 8 && invariant) ? 0 : 1;
}
