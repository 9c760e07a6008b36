// The train-and-hotel problem (paper §II-D): one transaction books a train
// ticket on one contract and a hotel room on another — atomically.  The two
// contracts live on different state shards; a single Jenga transaction
// executes both in one round on an execution channel.  When the hotel is
// sold out the whole trip aborts: the train booking rolls back too, and the
// client only loses the fee.
#include <cstdio>
#include <memory>

#include "core/jenga_system.hpp"
#include "ledger/placement.hpp"
#include "vm/assembler.hpp"

using namespace jenga;

namespace {

std::shared_ptr<vm::ContractLogic> make_booking_contract(ContractId id) {
  // State: key 0 = seats remaining, key 1 = bookings made.
  // book(): if seats == 0 -> ABORT; seats -= 1; bookings += 1.
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = id;
  auto code = vm::assemble(R"(
    PUSH 0
    SLOAD         ; seats
    JZ soldout
    PUSH 0        ; key: seats
    PUSH 0
    SLOAD
    PUSH 1
    SUB
    SSTORE        ; seats -= 1
    PUSH 1        ; key: bookings
    PUSH 1
    SLOAD
    PUSH 1
    ADD
    SSTORE        ; bookings += 1
    RETURN
  soldout:
    ABORT
  )");
  if (!code.ok()) {
    std::fprintf(stderr, "assembler error: %s\n", code.error().c_str());
    std::exit(1);
  }
  logic->functions.push_back({"book", code.value()});
  return logic;
}

std::shared_ptr<ledger::Transaction> make_trip(AccountId traveller, SimTime now) {
  auto tx = std::make_shared<ledger::Transaction>();
  tx->kind = ledger::TxKind::kContractCall;
  tx->sender = traveller;
  tx->fee = 5;
  tx->created_at = now;
  tx->contracts = {ContractId{0}, ContractId{1}};  // train, hotel
  tx->accounts = {traveller};
  tx->steps = {{0, 0, {}}, {1, 0, {}}};  // book train, then hotel — atomically
  tx->finalize();
  return tx;
}

}  // namespace

int main() {
  auto train = make_booking_contract(ContractId{0});
  auto hotel = make_booking_contract(ContractId{1});

  core::Genesis genesis;
  genesis.num_accounts = 100;
  genesis.initial_balance = 10'000;
  genesis.contracts = {train, hotel};
  genesis.initial_states = {
      {{0, 10}, {1, 0}},  // train: 10 seats
      {{0, 2}, {1, 0}},   // hotel: only 2 rooms!
  };

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(11));
  telemetry::Telemetry telemetry;  // counters and per-tx phase tracing
  core::JengaConfig config;
  config.num_shards = 2;
  config.nodes_per_shard = 4;
  core::JengaSystem jenga(sim, net, telemetry, config, genesis);
  jenga.start();

  const ShardId train_shard = ledger::shard_of_contract(ContractId{0}, 2);
  const ShardId hotel_shard = ledger::shard_of_contract(ContractId{1}, 2);
  std::printf("train contract lives on shard %u, hotel contract on shard %u\n",
              train_shard.value, hotel_shard.value);

  // Three travellers want the trip; the hotel only has two rooms.  Each trip
  // is one atomic transaction across both contracts.
  for (std::uint64_t t = 0; t < 3; ++t) {
    jenga.submit(make_trip(AccountId{t}, sim.now()));
    sim.run_until(sim.now() + 30 * kSecond);  // let each trip settle
  }
  sim.run_until(sim.now() + 60 * kSecond);

  const auto& stats = jenga.stats();
  const auto& train_state = *jenga.shard_store(train_shard).contract_state(ContractId{0});
  const auto& hotel_state = *jenga.shard_store(hotel_shard).contract_state(ContractId{1});

  std::printf("\ntrips committed: %llu, trips aborted: %llu\n",
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted));
  std::printf("train: %llu seats left, %llu bookings\n",
              static_cast<unsigned long long>(train_state.at(0)),
              static_cast<unsigned long long>(train_state.at(1)));
  std::printf("hotel: %llu rooms left, %llu bookings\n",
              static_cast<unsigned long long>(hotel_state.at(0)),
              static_cast<unsigned long long>(hotel_state.at(1)));

  // Atomicity: the third traveller's train seat must NOT have been consumed
  // even though the train booking step succeeded before the hotel aborted.
  const bool atomic = train_state.at(1) == hotel_state.at(1);
  std::printf("atomicity across shards: %s (train bookings == hotel bookings)\n",
              atomic ? "HELD" : "VIOLATED");
  std::printf("the aborted traveller still paid the fee (paper, Transaction Fee): "
              "fees charged = %llu\n",
              static_cast<unsigned long long>(stats.fees_charged));
  return (stats.committed == 2 && stats.aborted == 1 && atomic) ? 0 : 1;
}
