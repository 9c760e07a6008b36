// Ledger: state store, locks, blocks/chains, transactions, portable state,
// and placement rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/block.hpp"
#include "ledger/locks.hpp"
#include "ledger/placement.hpp"
#include "ledger/portable_state.hpp"
#include "ledger/state_store.hpp"
#include "ledger/transaction.hpp"
#include "ledger/wal.hpp"

namespace jenga::ledger {
namespace {

TEST(StateStore, AccountLifecycle) {
  StateStore store;
  EXPECT_FALSE(store.has_account(AccountId{1}));
  store.create_account(AccountId{1}, 500);
  EXPECT_TRUE(store.has_account(AccountId{1}));
  EXPECT_EQ(store.balance(AccountId{1}), 500u);
  EXPECT_TRUE(store.set_balance(AccountId{1}, 300));
  EXPECT_EQ(store.balance(AccountId{1}), 300u);
  EXPECT_FALSE(store.set_balance(AccountId{2}, 1));  // unknown account
  EXPECT_FALSE(store.balance(AccountId{2}).has_value());
}

TEST(StateStore, TotalBalanceSums) {
  StateStore store;
  store.create_account(AccountId{1}, 100);
  store.create_account(AccountId{2}, 250);
  EXPECT_EQ(store.total_balance(), 350u);
}

TEST(StateStore, ContractStateLifecycle) {
  StateStore store;
  EXPECT_EQ(store.contract_state(ContractId{9}), nullptr);
  store.create_contract_state(ContractId{9}, {{1, 10}, {2, 20}});
  ASSERT_NE(store.contract_state(ContractId{9}), nullptr);
  EXPECT_EQ(store.contract_state(ContractId{9})->at(2), 20u);
  EXPECT_TRUE(store.set_contract_state(ContractId{9}, {{1, 11}}));
  EXPECT_EQ(store.contract_state(ContractId{9})->at(1), 11u);
  EXPECT_FALSE(store.set_contract_state(ContractId{8}, {}));
}

// --- ContractState against a std::map model ----------------------------------

using MapModel = std::map<std::uint64_t, std::uint64_t>;

/// The bytes encode_contract_value writes for a std::map holding `m`: the
/// count, then the entries in key order.
std::vector<std::uint8_t> encode_model(const MapModel& m) {
  Writer w;
  w.u64(m.size());
  for (const auto& [k, v] : m) {
    w.u64(k);
    w.u64(v);
  }
  return w.take();
}

void expect_same(const ContractState& st, const MapModel& model) {
  ASSERT_EQ(st.size(), model.size());
  EXPECT_EQ(st.empty(), model.empty());
  EXPECT_TRUE(std::equal(st.begin(), st.end(), model.begin(), model.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  EXPECT_EQ(encode_contract_value(st), encode_model(model));
}

/// find and at on every key up to just past the largest, present or absent.
void expect_same_lookups(const ContractState& st, const MapModel& model) {
  const std::uint64_t last = model.empty() ? 0 : model.rbegin()->first;
  for (std::uint64_t key = 0; key <= last + 1; ++key) {
    const auto it = st.find(key);
    const auto want = model.find(key);
    ASSERT_EQ(it == st.end(), want == model.end()) << "key " << key;
    if (want == model.end()) {
      EXPECT_THROW((void)st.at(key), std::out_of_range);
    } else {
      EXPECT_EQ(it->first, key);
      EXPECT_EQ(it->second, want->second);
      EXPECT_EQ(st.at(key), want->second);
    }
  }
}

enum class WriteOrder { kAscending, kDescending, kRandom };

TEST(ContractState, MatchesStdMapModel) {
  Rng rng(0x5EED'0015);
  for (const WriteOrder order :
       {WriteOrder::kAscending, WriteOrder::kDescending, WriteOrder::kRandom}) {
    for (int round = 0; round < 12; ++round) {
      ContractState st;
      MapModel model;
      const std::uint64_t n = 1 + rng.uniform(160);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t key = 0;
        switch (order) {
          case WriteOrder::kAscending: key = 3 * i + rng.uniform(3); break;
          case WriteOrder::kDescending: key = 3 * (n - i) + rng.uniform(3); break;
          case WriteOrder::kRandom: key = rng.uniform(2 * n); break;  // many overwrites
        }
        if (rng.uniform(8) == 0) {
          // A read through operator[] inserts 0 when the key is absent.
          EXPECT_EQ(st[key], model[key]);
        } else {
          const std::uint64_t value = rng.next();
          st[key] = value;
          model[key] = value;
        }
        expect_same(st, model);
      }
      // Overwrite present keys in random order.
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto it = std::next(model.begin(),
                                  static_cast<std::ptrdiff_t>(rng.uniform(model.size())));
        const std::uint64_t value = rng.next();
        st[it->first] = value;
        it->second = value;
      }
      expect_same(st, model);
      expect_same_lookups(st, model);

      ContractState copy = st;
      EXPECT_TRUE(copy == st);
      copy[model.begin()->first] += 1;
      EXPECT_FALSE(copy == st);
      ContractState longer = st;
      longer[model.rbegin()->first + 1] = 0;
      EXPECT_FALSE(longer == st);
    }
  }
}

TEST(ContractState, EmptyAndInitializerList) {
  expect_same(ContractState{}, MapModel{});
  expect_same_lookups(ContractState{}, MapModel{});
  // Unsorted, with a repeated key: the first value is kept, as in std::map.
  const ContractState st{{5, 1}, {3, 2}, {5, 9}, {0, 4}};
  const MapModel model{{5, 1}, {3, 2}, {5, 9}, {0, 4}};
  expect_same(st, model);
  expect_same_lookups(st, model);
  EXPECT_TRUE(st == (ContractState{{0, 4}, {3, 2}, {5, 1}}));
}

TEST(StateStore, StorageAccounting) {
  StateStore store;
  EXPECT_EQ(store.state_storage_bytes(), 0u);
  store.create_account(AccountId{1}, 0);
  EXPECT_EQ(store.state_storage_bytes(), kAccountStateBytes);
  store.create_contract_state(ContractId{1}, {{1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(store.state_storage_bytes(),
            kAccountStateBytes + kContractStateOverheadBytes + 3 * kStateEntryBytes);
}

TEST(StateStore, DigestIsIncrementalAndOrderIndependent) {
  // The digest is the trie's cached incremental root; it must be a pure
  // function of the key→value mapping.  Two stores reaching the same state
  // through different mutation orders (including deletes-by-overwrite) agree,
  // and the cached root always matches a from-scratch recompute.
  StateStore a;
  StateStore b;
  for (std::uint64_t i = 0; i < 50; ++i) a.create_account(AccountId{i}, i * 7);
  for (std::uint64_t i = 50; i-- > 0;) b.create_account(AccountId{i}, 1);
  for (std::uint64_t i = 0; i < 50; ++i) b.set_balance(AccountId{i}, i * 7);
  a.create_contract_state(ContractId{3}, {{1, 10}});
  b.create_contract_state(ContractId{3}, {{1, 99}});
  b.set_contract_state(ContractId{3}, {{1, 10}});
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), a.trie().recompute_root());

  // Any divergence in content diverges the digest.
  b.set_balance(AccountId{49}, 0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(StateStore, DigestChangesWithEveryMutation) {
  StateStore store;
  const Hash256 empty = store.digest();
  store.create_account(AccountId{1}, 5);
  const Hash256 one = store.digest();
  EXPECT_NE(one, empty);
  store.set_balance(AccountId{1}, 6);
  EXPECT_NE(store.digest(), one);
  store.set_balance(AccountId{1}, 5);
  EXPECT_EQ(store.digest(), one);  // same content, same root
}

TEST(LogicStore, DeduplicatesAndAccounts) {
  LogicStore store;
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = ContractId{5};
  logic->functions.push_back({"f", {{vm::Op::kReturn, 0}}});
  store.add(logic);
  store.add(logic);  // duplicate add must not double-count
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.logic_storage_bytes(), logic->code_size_bytes());
  EXPECT_TRUE(store.has(ContractId{5}));
  EXPECT_FALSE(store.has(ContractId{6}));
}

TEST(LockManager, ExclusiveOwnership) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  const Hash256 tx2 = crypto::sha256("tx2");
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx1));   // re-entrant for owner
  EXPECT_FALSE(locks.lock_contract(ContractId{1}, tx2));  // contended
  EXPECT_TRUE(locks.contract_locked(ContractId{1}));
  EXPECT_FALSE(locks.unlock_contract(ContractId{1}, tx2));  // non-owner release
  EXPECT_TRUE(locks.unlock_contract(ContractId{1}, tx1));
  EXPECT_FALSE(locks.contract_locked(ContractId{1}));
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx2));  // now free
}

TEST(LockManager, AccountLocksIndependent) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  EXPECT_TRUE(locks.lock_account(AccountId{7}, tx1));
  EXPECT_TRUE(locks.lock_contract(ContractId{7}, tx1));  // distinct namespaces
  EXPECT_EQ(locks.held_locks(), 2u);
}

TEST(Chain, AppendsLinkedBlocks) {
  Chain chain(ShardId{0});
  const auto b0 = build_block(ShardId{0}, 0, chain.tip_hash(),
                              {crypto::sha256("t1"), crypto::sha256("t2")}, 1024, 100);
  ASSERT_TRUE(chain.append(b0));
  const auto b1 = build_block(ShardId{0}, 1, chain.tip_hash(), {crypto::sha256("t3")}, 512, 200);
  ASSERT_TRUE(chain.append(b1));
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.total_txs(), 3u);
  EXPECT_EQ(chain.total_bytes(), 1024 + 512 + 2 * Block::kHeaderBytes);
  EXPECT_TRUE(chain.verify());
}

TEST(Chain, RejectsWrongHeight) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{0}, 5, chain.tip_hash(), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsWrongParent) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{0}, 0, crypto::sha256("bogus"), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsWrongShard) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{1}, 0, chain.tip_hash(), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsTamperedRoot) {
  Chain chain(ShardId{0});
  auto b = build_block(ShardId{0}, 0, chain.tip_hash(), {crypto::sha256("t")}, 512, 0);
  b.tx_hashes.push_back(crypto::sha256("sneaky"));
  EXPECT_FALSE(chain.append(b));
}

TEST(Transaction, HashStableAndDistinct) {
  auto t1 = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  auto t2 = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  auto t3 = make_transfer(AccountId{1}, AccountId{2}, 101, 1, 0);
  EXPECT_EQ(t1.hash, t2.hash);
  EXPECT_NE(t1.hash, t3.hash);
}

TEST(Transaction, WireSizeFloorsAtPaperSetting) {
  auto t = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  EXPECT_EQ(t.wire_size(), kTxWireBytes);
}

TEST(Transaction, ContractCallCountsStepsAndContracts) {
  Transaction tx;
  tx.kind = TxKind::kContractCall;
  tx.sender = AccountId{1};
  tx.contracts = {ContractId{10}, ContractId{11}, ContractId{12}};
  tx.accounts = {AccountId{1}};
  for (int i = 0; i < 7; ++i) tx.steps.push_back({static_cast<std::uint16_t>(i % 3), 0, {}});
  tx.finalize();
  EXPECT_EQ(tx.step_count(), 7u);
  EXPECT_EQ(tx.distinct_contracts(), 3u);
  EXPECT_FALSE(tx.hash.is_zero());
}

TEST(Transaction, DeployCarriesLogicSize) {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = ContractId{1};
  logic->functions.push_back({"f", std::vector<vm::Instruction>(200, {vm::Op::kPush, 1})});
  auto tx = make_deploy(AccountId{1}, logic, 10, 5, 0);
  EXPECT_GT(tx.wire_size(), kTxWireBytes);  // code dominates
}

TEST(PortableState, MergeAndWireSize) {
  PortableState a, b;
  a.contracts[ContractId{1}] = {{1, 1}};
  a.balances[AccountId{1}] = 10;
  b.contracts[ContractId{2}] = {{2, 2}, {3, 3}};
  b.balances[AccountId{2}] = 20;
  a.merge(b);
  EXPECT_EQ(a.contracts.size(), 2u);
  EXPECT_EQ(a.balances.size(), 2u);
  EXPECT_EQ(a.total_balance(), 30u);
  EXPECT_GT(a.wire_size(), 16u);
}

TEST(PortableState, MergeOverwritesWithNewer) {
  PortableState a, b;
  a.contracts[ContractId{1}] = {{1, 1}};
  b.contracts[ContractId{1}] = {{1, 99}};
  a.merge(b);
  EXPECT_EQ(a.contracts.at(ContractId{1}).at(1), 99u);
}

PortableState sample_portable() {
  PortableState state;
  state.contracts[ContractId{1}] = {{1, 10}, {2, 20}};
  state.contracts[ContractId{7}] = {};
  state.balances[AccountId{3}] = 300;
  state.balances[AccountId{4}] = 400;
  return state;
}

TEST(PortableState, EncodeDecodeRoundTrip) {
  const PortableState state = sample_portable();
  const auto wire = state.encode();
  auto decoded = PortableState::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().contracts, state.contracts);
  EXPECT_EQ(decoded.value().balances, state.balances);
  EXPECT_EQ(decoded.value().total_balance(), 700u);

  // Empty bundles round-trip too.
  auto empty = PortableState::decode(PortableState{}.encode());
  ASSERT_TRUE(empty.ok()) << empty.error();
  EXPECT_TRUE(empty.value().empty());
}

TEST(PortableState, DecodeRejectsTruncation) {
  const auto wire = sample_portable().encode();
  // Every proper prefix must fail cleanly — no crash, no partial bundle.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto r = PortableState::decode(std::span(wire).first(cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage is rejected as a length mismatch.
  auto padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(PortableState::decode(padded).ok());
}

TEST(PortableState, DecodeRejectsBitFlips) {
  const auto wire = sample_portable().encode();
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    auto bent = wire;
    bent[byte] ^= 0x10;
    auto r = PortableState::decode(bent);
    EXPECT_FALSE(r.ok()) << "flip in byte " << byte << " decoded";
  }
}

/// Frames `payload` as encode() frames its own (magic, length, CRC-32C), so
/// only the payload's content can make decode() refuse it.
std::vector<std::uint8_t> framed(const Writer& payload) {
  Writer out;
  out.u32(kPortableStateMagic);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32c(payload.data()));
  out.bytes(payload.data());
  return out.take();
}

/// A bundle with the contracts, their state keys and the accounts written in
/// the given order.  Every contract holds `keys`; key k holds k + 100.
std::vector<std::uint8_t> bundle_with(std::initializer_list<std::uint64_t> contracts,
                                      std::initializer_list<std::uint64_t> keys,
                                      std::initializer_list<std::uint64_t> accounts) {
  Writer payload;
  payload.u64(contracts.size());
  for (const std::uint64_t c : contracts) {
    payload.u64(c);
    payload.u64(keys.size());
    for (const std::uint64_t k : keys) {
      payload.u64(k);
      payload.u64(k + 100);
    }
  }
  payload.u64(accounts.size());
  for (const std::uint64_t a : accounts) {
    payload.u64(a);
    payload.u64(50);
  }
  return framed(payload);
}

// encode() writes ids and state keys in increasing order, and that is the
// only order decode() takes.  Any other would decode to a bundle that
// re-encodes to different bytes.
TEST(PortableState, DecodeRefusesKeysAndIdsOutOfOrder) {
  const auto canonical = bundle_with({1, 2}, {3, 5}, {4, 6});
  const auto decoded = PortableState::decode(canonical);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().encode(), canonical);

  EXPECT_FALSE(PortableState::decode(bundle_with({1}, {5, 3}, {})).ok());
  EXPECT_FALSE(PortableState::decode(bundle_with({1}, {3, 3}, {})).ok());
  EXPECT_FALSE(PortableState::decode(bundle_with({2, 1}, {3}, {})).ok());
  EXPECT_FALSE(PortableState::decode(bundle_with({1, 1}, {3}, {})).ok());
  EXPECT_FALSE(PortableState::decode(bundle_with({}, {}, {6, 4})).ok());
  EXPECT_FALSE(PortableState::decode(bundle_with({}, {}, {4, 4})).ok());
}

TEST(Placement, DeterministicAndInRange) {
  for (std::uint32_t s : {4u, 6u, 8u, 10u, 12u}) {
    for (std::uint64_t id = 0; id < 100; ++id) {
      const auto shard = shard_of_contract(ContractId{id}, s);
      EXPECT_LT(shard.value, s);
      EXPECT_EQ(shard, shard_of_contract(ContractId{id}, s));
      EXPECT_LT(shard_of_account(AccountId{id}, s).value, s);
    }
  }
}

TEST(Placement, RoughlyBalanced) {
  const std::uint32_t s = 8;
  std::vector<int> counts(s, 0);
  for (std::uint64_t id = 0; id < 8000; ++id)
    counts[shard_of_contract(ContractId{id}, s).value]++;
  for (auto c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Placement, ChannelOfTxUsesHash) {
  auto t1 = make_transfer(AccountId{1}, AccountId{2}, 1, 1, 0);
  auto t2 = make_transfer(AccountId{3}, AccountId{4}, 2, 1, 0);
  const auto c1 = channel_of_tx(t1.hash, 12);
  const auto c2 = channel_of_tx(t2.hash, 12);
  EXPECT_LT(c1.value, 12u);
  EXPECT_LT(c2.value, 12u);
  // Determinism.
  EXPECT_EQ(c1, channel_of_tx(t1.hash, 12));
}

}  // namespace
}  // namespace jenga::ledger
