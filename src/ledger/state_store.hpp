// Per-shard state storage: account balances and contract key-value states,
// plus the logic store (which, in Jenga, every node replicates).
//
// The flat maps are the read path; every mutation also feeds an authenticated
// Merkle trie (trie.hpp) keyed by hashed state keys, so digest() is the
// trie's incrementally-maintained root instead of a whole-store rehash.  An
// optional StorageBackend receives the raw key/value bytes write-through —
// in-memory for the bit-identity oracle, WAL+snapshot for crash durability —
// and StateStore::open() rebuilds a store from whatever a backend recovered,
// refusing state whose rebuilt root does not match the committed root.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "ledger/storage_backend.hpp"
#include "ledger/trie.hpp"
#include "vm/bytecode.hpp"

namespace jenga::ledger {

/// One contract's full state: the unit that Phase 1 locks and ships.  A
/// key -> value map held as one vector of (key, value) pairs, sorted by key
/// with unique keys: 16 bytes of heap per entry, where a node-based map
/// spends about 62.  Iteration is in key order, the order every encoding and
/// digest of a state is defined by (encode_contract_value).
class ContractState {
 public:
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  using const_iterator = std::vector<Entry>::const_iterator;

  ContractState() = default;
  /// Like std::map's: a repeated key keeps its first value.
  ContractState(std::initializer_list<Entry> entries);

  /// The value under `key`, inserted as 0 if absent.  A key past the last
  /// one appends; any other new key shifts the entries after it.  The
  /// reference is invalidated by the next insert.
  std::uint64_t& operator[](std::uint64_t key) {
    if (entries_.empty() || entries_.back().first < key)
      return entries_.emplace_back(key, 0).second;
    const std::size_t i = lower_bound(key);  // < size(): the last key is >= key
    if (entries_[i].first != key) entries_.insert(entries_.begin() + i, Entry{key, 0});
    return entries_[i].second;
  }

  [[nodiscard]] const_iterator find(std::uint64_t key) const {
    const std::size_t i = lower_bound(key);
    return i < entries_.size() && entries_[i].first == key ? begin() + i : end();
  }
  /// Throws std::out_of_range when `key` is absent, as std::map::at does.
  [[nodiscard]] std::uint64_t at(std::uint64_t key) const;

  void reserve(std::size_t n) { entries_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  friend bool operator==(const ContractState&, const ContractState&) = default;

 private:
  /// Index of the first entry whose key is not less than `key`.  Each
  /// halving step is a conditional move, not a branch: its direction depends
  /// on the data, and a branch on it is mispredicted about half the time.
  [[nodiscard]] std::size_t lower_bound(std::uint64_t key) const {
    std::size_t n = entries_.size();
    if (n == 0) return 0;
    std::size_t lo = 0;
    while (n > 1) {
      const std::size_t half = n / 2;
      lo = entries_[lo + half].first < key ? lo + half : lo;
      n -= half;
    }
    return lo + (entries_[lo].first < key ? 1 : 0);
  }

  std::vector<Entry> entries_;
};

/// Storage model constants (DESIGN.md §5).
inline constexpr std::uint64_t kAccountStateBytes = 128;
inline constexpr std::uint64_t kStateEntryBytes = 64;
inline constexpr std::uint64_t kContractStateOverheadBytes = 256;

[[nodiscard]] inline std::uint64_t contract_state_bytes(const ContractState& st) {
  return kContractStateOverheadBytes + kStateEntryBytes * st.size();
}

// --- state key/value encoding ------------------------------------------------
// StateStore owns the byte encoding shared by the trie, the storage backends
// and proof-verified state sync.  Keys are a one-byte keyspace tag plus the
// u64 id (little-endian); trie paths are the tagged SHA-256 of the key bytes.

inline constexpr std::uint8_t kKeyspaceAccount = 0;
inline constexpr std::uint8_t kKeyspaceContract = 1;

[[nodiscard]] std::vector<std::uint8_t> state_key_account(AccountId id);
[[nodiscard]] std::vector<std::uint8_t> state_key_contract(ContractId id);
[[nodiscard]] Hash256 state_path(std::span<const std::uint8_t> key_bytes);
[[nodiscard]] Hash256 state_value_hash(std::span<const std::uint8_t> value_bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_account_value(std::uint64_t balance);
[[nodiscard]] std::vector<std::uint8_t> encode_contract_value(const ContractState& st);
/// Reads what encode_contract_value writes: the entry count, then the
/// (key, value) pairs.  Their keys must strictly increase, the one order
/// encode_contract_value writes, so every state has exactly one encoding.
/// Keys out of order or repeated are refused, not sorted or merged, as is a
/// count the remaining bytes cannot hold: nullopt.
[[nodiscard]] std::optional<ContractState> decode_contract_value(Reader& r);

class StateStore {
 public:
  /// Backend-less store: trie-authenticated, nothing persisted.
  StateStore() = default;

  StateStore(StateStore&&) noexcept = default;
  StateStore& operator=(StateStore&&) noexcept = default;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Recovers a store from `backend->load()`: applies every recovered entry,
  /// then checks the rebuilt trie root against the root the backend's last
  /// commit promised.  A mismatch (or a backend-load error — torn snapshot,
  /// corrupt WAL) returns the error instead of a store: corrupted durable
  /// state is refused, never silently half-loaded.  A fresh backend recovers
  /// to an empty store ready for genesis writes.
  [[nodiscard]] static Result<StateStore> open(std::unique_ptr<StorageBackend> backend);

  // --- accounts ---
  void create_account(AccountId id, std::uint64_t balance);
  [[nodiscard]] bool has_account(AccountId id) const;
  [[nodiscard]] std::optional<std::uint64_t> balance(AccountId id) const;
  bool set_balance(AccountId id, std::uint64_t balance);
  [[nodiscard]] std::size_t account_count() const { return balances_.size(); }
  /// Sum of all balances (conservation checks in tests).
  [[nodiscard]] std::uint64_t total_balance() const;

  // --- contract state ---
  void create_contract_state(ContractId id, ContractState initial);
  [[nodiscard]] bool has_contract_state(ContractId id) const;
  [[nodiscard]] const ContractState* contract_state(ContractId id) const;
  bool set_contract_state(ContractId id, ContractState state);
  [[nodiscard]] std::size_t contract_count() const { return contract_states_.size(); }

  // --- storage accounting ---
  [[nodiscard]] std::uint64_t state_storage_bytes() const;

  /// Authenticated state root: the Merkle trie's cached incremental root.
  /// Structure is insertion-order independent, so any execution worker count
  /// and any arrival order land on the same digest.  Debug builds assert the
  /// incremental root against a from-scratch recompute.
  [[nodiscard]] Hash256 digest() const;

  /// Durability barrier: tells the backend the current root is decided (the
  /// WAL commit record + fsync on the durable backend).  No-op without one.
  void commit();

  /// Merkle inclusion proof for one state entry under digest().  Returns
  /// false if the key is absent.
  [[nodiscard]] bool prove(std::span<const std::uint8_t> key_bytes, TrieProof& out) const;

  /// Read views for state sync and tests.
  [[nodiscard]] const std::unordered_map<AccountId, std::uint64_t>& balances() const {
    return balances_;
  }
  [[nodiscard]] const std::unordered_map<ContractId, ContractState>& contracts() const {
    return contract_states_;
  }

  [[nodiscard]] const StorageBackend* backend() const { return backend_.get(); }
  [[nodiscard]] const MerkleTrie& trie() const { return trie_; }

 private:
  void write_through(std::span<const std::uint8_t> key_bytes,
                     std::span<const std::uint8_t> value_bytes);

  std::unordered_map<AccountId, std::uint64_t> balances_;
  std::unordered_map<ContractId, ContractState> contract_states_;
  MerkleTrie trie_;
  std::unique_ptr<StorageBackend> backend_;
};

/// Contract logic store.  In Jenga every node holds all logic; in CX Func a
/// node only holds its shard's share; in Pyramid the merged span.
class LogicStore {
 public:
  void add(std::shared_ptr<const vm::ContractLogic> logic);
  [[nodiscard]] const vm::ContractLogic* get(ContractId id) const;
  [[nodiscard]] bool has(ContractId id) const { return get(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return logics_.size(); }
  [[nodiscard]] std::uint64_t logic_storage_bytes() const { return logic_bytes_; }

 private:
  std::unordered_map<ContractId, std::shared_ptr<const vm::ContractLogic>> logics_;
  std::uint64_t logic_bytes_ = 0;
};

}  // namespace jenga::ledger
