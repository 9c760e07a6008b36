#include "ledger/state_sync.hpp"

#include <algorithm>

#include "common/codec.hpp"

namespace jenga::ledger {

namespace {

std::uint64_t entry_wire_size(const SyncEntry& e) {
  return 8 + e.key.size() + e.value.size() + e.proof.wire_size();
}

/// Decodes one (key, value) state entry into `dst` through its normal
/// mutation path, so the receiver's trie and backend stay authoritative.
bool apply_entry(StateStore& dst, const std::vector<std::uint8_t>& key,
                 const std::vector<std::uint8_t>& value) {
  Reader kr(key);
  const std::uint8_t keyspace = kr.u8();
  const std::uint64_t id = kr.u64();
  if (kr.failed() || !kr.exhausted()) return false;
  Reader vr(value);
  if (keyspace == kKeyspaceAccount) {
    const std::uint64_t bal = vr.u64();
    if (vr.failed() || !vr.exhausted()) return false;
    dst.create_account(AccountId{id}, bal);
    return true;
  }
  if (keyspace == kKeyspaceContract) {
    auto st = decode_contract_value(vr);
    if (!st || !vr.exhausted()) return false;
    dst.create_contract_state(ContractId{id}, std::move(*st));
    return true;
  }
  return false;
}

}  // namespace

std::uint64_t SyncSnapshot::wire_size() const {
  std::uint64_t n = 32 + 8;
  for (const SyncEntry& e : entries) n += entry_wire_size(e);
  return n;
}

SyncSnapshot build_sync_snapshot(const StateStore& src) {
  SyncSnapshot snap;
  snap.root = src.digest();

  std::vector<AccountId> accounts;
  accounts.reserve(src.balances().size());
  for (const auto& [id, bal] : src.balances()) accounts.push_back(id);
  std::sort(accounts.begin(), accounts.end());
  std::vector<ContractId> contracts;
  contracts.reserve(src.contracts().size());
  for (const auto& [id, st] : src.contracts()) contracts.push_back(id);
  std::sort(contracts.begin(), contracts.end());

  snap.entries.reserve(accounts.size() + contracts.size());
  for (AccountId id : accounts) {
    SyncEntry e;
    e.key = state_key_account(id);
    e.value = encode_account_value(*src.balance(id));
    const bool proved = src.prove(e.key, e.proof);
    (void)proved;  // every enumerated key is present by construction
    snap.entries.push_back(std::move(e));
  }
  for (ContractId id : contracts) {
    SyncEntry e;
    e.key = state_key_contract(id);
    e.value = encode_contract_value(*src.contract_state(id));
    const bool proved = src.prove(e.key, e.proof);
    (void)proved;
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

SyncOutcome apply_sync_snapshot(const SyncSnapshot& snapshot, StateStore& dst) {
  SyncOutcome out;
  for (const SyncEntry& e : snapshot.entries) {
    const bool proof_ok = MerkleTrie::verify(snapshot.root, state_path(e.key),
                                             state_value_hash(e.value), e.proof);
    if (!proof_ok || !apply_entry(dst, e.key, e.value)) {
      ++out.proof_rejections;
      return out;  // the serving peer lied; abort, caller tries elsewhere
    }
    ++out.keys_verified;
    out.bytes += entry_wire_size(e);
  }
  out.ok = dst.digest() == snapshot.root;
  return out;
}

std::uint64_t full_copy_sync(const StateStore& src, StateStore& dst) {
  std::uint64_t bytes = 0;
  for (const auto& [id, bal] : src.balances()) {
    dst.create_account(id, bal);
    bytes += kAccountStateBytes;
  }
  for (const auto& [id, st] : src.contracts()) {
    dst.create_contract_state(id, st);
    bytes += contract_state_bytes(st);
  }
  return bytes;
}

void tamper_sync_snapshot(SyncSnapshot& snapshot, std::uint64_t index) {
  if (snapshot.entries.empty()) return;
  SyncEntry& e = snapshot.entries[index % snapshot.entries.size()];
  if (e.value.empty()) e.value.push_back(0);
  e.value[0] ^= 0x01;  // a single flipped bit is enough to break the proof
}

}  // namespace jenga::ledger
