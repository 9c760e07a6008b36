#include "ledger/portable_state.hpp"

#include "common/codec.hpp"
#include "ledger/wal.hpp"

namespace jenga::ledger {

void PortableState::merge(const PortableState& other) {
  for (const auto& [id, st] : other.contracts) contracts[id] = st;
  for (const auto& [id, bal] : other.balances) balances[id] = bal;
}

std::uint32_t PortableState::wire_size() const {
  std::uint64_t n = 16;
  for (const auto& [id, st] : contracts) n += 16 + 16 * st.size();
  n += 16 * balances.size();
  return static_cast<std::uint32_t>(n);
}

std::uint64_t PortableState::total_balance() const {
  std::uint64_t sum = 0;
  for (const auto& [id, bal] : balances) sum += bal;
  return sum;
}

std::vector<std::uint8_t> PortableState::encode() const {
  Writer payload;
  payload.u64(contracts.size());
  for (const auto& [id, st] : contracts) {
    payload.u64(id.value);
    payload.bytes(encode_contract_value(st));
  }
  payload.u64(balances.size());
  for (const auto& [id, bal] : balances) {
    payload.u64(id.value);
    payload.u64(bal);
  }
  Writer out;
  out.u32(kPortableStateMagic);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32c(payload.data()));
  out.bytes(payload.data());
  return out.take();
}

Result<PortableState> PortableState::decode(std::span<const std::uint8_t> data) {
  Reader header(data);
  const std::uint32_t magic = header.u32();
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (header.failed()) return Err(std::string("portable-state: truncated header"));
  if (magic != kPortableStateMagic) return Err(std::string("portable-state: bad magic"));
  if (len != header.remaining()) return Err(std::string("portable-state: length mismatch"));
  const auto payload = data.subspan(data.size() - len);
  if (crc32c(payload) != crc)
    return Err(std::string("portable-state: checksum mismatch (corruption)"));

  // encode() writes ids and state keys in increasing order; any other order
  // would decode to a bundle that re-encodes to different bytes.
  Reader r(payload);
  PortableState out;
  const auto undecodable = [] { return Err(std::string("portable-state: undecodable payload")); };
  const std::uint64_t contract_count = r.u64();
  for (std::uint64_t i = 0; i < contract_count && !r.failed(); ++i) {
    const ContractId id{r.u64()};
    if (!out.contracts.empty() && !(out.contracts.rbegin()->first < id)) return undecodable();
    auto st = decode_contract_value(r);
    if (!st) return undecodable();
    out.contracts.emplace_hint(out.contracts.end(), id, std::move(*st));
  }
  const std::uint64_t balance_count = r.u64();
  for (std::uint64_t i = 0; i < balance_count && !r.failed(); ++i) {
    const AccountId id{r.u64()};
    if (!out.balances.empty() && !(out.balances.rbegin()->first < id)) return undecodable();
    out.balances.emplace_hint(out.balances.end(), id, r.u64());
  }
  if (r.failed() || !r.exhausted()) return undecodable();
  return out;
}

std::optional<std::uint64_t> PortableStateView::sload(ContractId contract, std::uint64_t key) {
  const auto it = state_.contracts.find(contract);
  if (it == state_.contracts.end()) return std::nullopt;  // undeclared contract
  const auto kv = it->second.find(key);
  return kv == it->second.end() ? 0 : kv->second;  // absent key reads as 0
}

bool PortableStateView::sstore(ContractId contract, std::uint64_t key, std::uint64_t value) {
  const auto it = state_.contracts.find(contract);
  if (it == state_.contracts.end()) return false;
  it->second[key] = value;
  return true;
}

std::optional<std::uint64_t> PortableStateView::balance(AccountId account) {
  const auto it = state_.balances.find(account);
  if (it == state_.balances.end()) return std::nullopt;
  return it->second;
}

bool PortableStateView::credit(AccountId account, std::uint64_t amount) {
  const auto it = state_.balances.find(account);
  if (it == state_.balances.end()) return false;
  it->second += amount;
  return true;
}

bool PortableStateView::debit(AccountId account, std::uint64_t amount) {
  const auto it = state_.balances.find(account);
  if (it == state_.balances.end() || it->second < amount) return false;
  it->second -= amount;
  return true;
}

}  // namespace jenga::ledger
