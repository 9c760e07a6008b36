#include "ledger/state_store.hpp"

#include <cassert>
#include <stdexcept>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace jenga::ledger {

namespace {

std::vector<std::uint8_t> make_key(std::uint8_t keyspace, std::uint64_t id) {
  Writer w;
  w.u8(keyspace);
  w.u64(id);
  return w.take();
}

}  // namespace

ContractState::ContractState(std::initializer_list<Entry> entries) {
  entries_.reserve(entries.size());
  for (const auto& [k, v] : entries)
    if (find(k) == end()) (*this)[k] = v;
}

std::uint64_t ContractState::at(std::uint64_t key) const {
  const auto it = find(key);
  if (it == end()) throw std::out_of_range("ContractState::at: absent key");
  return it->second;
}

std::vector<std::uint8_t> state_key_account(AccountId id) {
  return make_key(kKeyspaceAccount, id.value);
}

std::vector<std::uint8_t> state_key_contract(ContractId id) {
  return make_key(kKeyspaceContract, id.value);
}

Hash256 state_path(std::span<const std::uint8_t> key_bytes) {
  return crypto::sha256_tagged("jenga/state-key", key_bytes);
}

Hash256 state_value_hash(std::span<const std::uint8_t> value_bytes) {
  return crypto::sha256_tagged("jenga/state-val", value_bytes);
}

std::vector<std::uint8_t> encode_account_value(std::uint64_t balance) {
  Writer w;
  w.u64(balance);
  return w.take();
}

std::vector<std::uint8_t> encode_contract_value(const ContractState& st) {
  Writer w;
  w.u64(st.size());
  for (const auto& [k, v] : st) {  // key order: canonical
    w.u64(k);
    w.u64(v);
  }
  return w.take();
}

std::optional<ContractState> decode_contract_value(Reader& r) {
  const std::uint64_t count = r.u64();
  if (r.failed() || count > r.remaining() / 16) return std::nullopt;
  ContractState st;
  st.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t k = r.u64();
    const std::uint64_t v = r.u64();
    if (i > 0 && k <= prev) return std::nullopt;
    st[k] = v;  // past the last key: an append
    prev = k;
  }
  return st;
}

Result<StateStore> StateStore::open(std::unique_ptr<StorageBackend> backend) {
  auto recovered = backend->load();
  if (!recovered.ok()) return Err(std::string("state: ") + recovered.error());
  const RecoveredState& rec = recovered.value();

  StateStore store;
  for (const auto& [key, value] : rec.entries) {
    Reader kr(key);
    const std::uint8_t keyspace = kr.u8();
    const std::uint64_t id = kr.u64();
    if (kr.failed() || !kr.exhausted())
      return Err(std::string("state: undecodable recovered key"));
    Reader vr(value);
    if (keyspace == kKeyspaceAccount) {
      const std::uint64_t bal = vr.u64();
      if (vr.failed() || !vr.exhausted())
        return Err(std::string("state: undecodable account value"));
      store.balances_[AccountId{id}] = bal;
    } else if (keyspace == kKeyspaceContract) {
      auto st = decode_contract_value(vr);
      if (!st || !vr.exhausted()) return Err(std::string("state: undecodable contract value"));
      store.contract_states_[ContractId{id}] = std::move(*st);
    } else {
      return Err(std::string("state: unknown keyspace ") + std::to_string(keyspace));
    }
    store.trie_.put(state_path(key), state_value_hash(value));
  }

  // The rebuilt root must be the root the last durable commit promised —
  // otherwise the backend handed back state that was never decided (e.g. a
  // replayed log that diverged) and the only safe answer is refusal.
  if (rec.has_commit && !(store.trie_.root() == rec.committed_root))
    return Err(std::string("state: recovered root does not match committed root"));

  store.backend_ = std::move(backend);
  return store;
}

void StateStore::write_through(std::span<const std::uint8_t> key_bytes,
                               std::span<const std::uint8_t> value_bytes) {
  trie_.put(state_path(key_bytes), state_value_hash(value_bytes));
  if (backend_) backend_->put(key_bytes, value_bytes);
}

void StateStore::create_account(AccountId id, std::uint64_t balance) {
  balances_[id] = balance;
  write_through(state_key_account(id), encode_account_value(balance));
}

bool StateStore::has_account(AccountId id) const { return balances_.contains(id); }

std::optional<std::uint64_t> StateStore::balance(AccountId id) const {
  const auto it = balances_.find(id);
  if (it == balances_.end()) return std::nullopt;
  return it->second;
}

bool StateStore::set_balance(AccountId id, std::uint64_t balance) {
  const auto it = balances_.find(id);
  if (it == balances_.end()) return false;
  it->second = balance;
  write_through(state_key_account(id), encode_account_value(balance));
  return true;
}

std::uint64_t StateStore::total_balance() const {
  std::uint64_t sum = 0;
  for (const auto& [id, bal] : balances_) sum += bal;
  return sum;
}

void StateStore::create_contract_state(ContractId id, ContractState initial) {
  write_through(state_key_contract(id), encode_contract_value(initial));
  contract_states_[id] = std::move(initial);
}

bool StateStore::has_contract_state(ContractId id) const {
  return contract_states_.contains(id);
}

const ContractState* StateStore::contract_state(ContractId id) const {
  const auto it = contract_states_.find(id);
  return it == contract_states_.end() ? nullptr : &it->second;
}

bool StateStore::set_contract_state(ContractId id, ContractState state) {
  const auto it = contract_states_.find(id);
  if (it == contract_states_.end()) return false;
  write_through(state_key_contract(id), encode_contract_value(state));
  it->second = std::move(state);
  return true;
}

Hash256 StateStore::digest() const {
  const Hash256 root = trie_.root();
#ifndef NDEBUG
  assert(root == trie_.recompute_root() &&
         "incremental trie root diverged from full recompute");
#endif
  return root;
}

void StateStore::commit() {
  if (backend_) backend_->commit(digest());
}

bool StateStore::prove(std::span<const std::uint8_t> key_bytes, TrieProof& out) const {
  return trie_.prove(state_path(key_bytes), out);
}

std::uint64_t StateStore::state_storage_bytes() const {
  std::uint64_t n = kAccountStateBytes * balances_.size();
  for (const auto& [id, st] : contract_states_) n += contract_state_bytes(st);
  return n;
}

void LogicStore::add(std::shared_ptr<const vm::ContractLogic> logic) {
  if (!logic) return;
  const auto [it, inserted] = logics_.try_emplace(logic->id, logic);
  if (inserted) logic_bytes_ += logic->code_size_bytes();
}

const vm::ContractLogic* LogicStore::get(ContractId id) const {
  const auto it = logics_.find(id);
  return it == logics_.end() ? nullptr : it->second.get();
}

}  // namespace jenga::ledger
