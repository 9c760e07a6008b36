#include "ledger/wal.hpp"

#include <array>

#include "common/codec.hpp"

namespace jenga::ledger {

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const auto table = make_crc32c_table();
  return table;
}

std::vector<std::uint8_t> encode_record(const WalRecord& record) {
  Writer payload;
  payload.u64(record.seq);
  payload.u8(static_cast<std::uint8_t>(record.op));
  switch (record.op) {
    case WalOp::kPut:
      payload.blob(record.key);
      payload.blob(record.value);
      break;
    case WalOp::kGeneration:
      payload.blob(record.key);
      break;
    case WalOp::kCommit:
      payload.hash(record.root);
      break;
  }
  Writer framed;
  framed.u32(kWalMagic);
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.u32(crc32c(payload.data()));
  framed.bytes(payload.data());
  return framed.take();
}

/// Parses one CRC-valid payload.  Failure here means the writer emitted
/// garbage, which replay reports as corruption.
bool decode_payload(std::span<const std::uint8_t> payload, WalRecord& out) {
  Reader r(payload);
  out.seq = r.u64();
  const std::uint8_t op = r.u8();
  if (r.failed()) return false;
  switch (static_cast<WalOp>(op)) {
    case WalOp::kPut:
      out.op = WalOp::kPut;
      out.key = r.blob();
      out.value = r.blob();
      break;
    case WalOp::kGeneration:
      out.op = WalOp::kGeneration;
      out.key = r.blob();
      break;
    case WalOp::kCommit:
      out.op = WalOp::kCommit;
      out.root = r.hash();
      break;
    default:
      return false;
  }
  return !r.failed() && r.exhausted();
}

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Attempts to frame-decode one record at `pos`; returns the record span
/// length on success (header + payload), 0 if the bytes at `pos` do not form
/// an intact record.
std::size_t intact_record_at(std::span<const std::uint8_t> data, std::size_t pos) {
  if (pos + kWalHeaderBytes > data.size()) return 0;
  if (read_u32_le(data.data() + pos) != kWalMagic) return 0;
  const std::uint32_t len = read_u32_le(data.data() + pos + 4);
  const std::uint32_t crc = read_u32_le(data.data() + pos + 8);
  if (len > data.size() - pos - kWalHeaderBytes) return 0;
  const auto payload = data.subspan(pos + kWalHeaderBytes, len);
  if (crc32c(payload) != crc) return 0;
  return kWalHeaderBytes + len;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  const auto& table = crc32c_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

void WalWriter::append(const WalRecord& record) {
  const auto framed = encode_record(record);
  file_->append(framed);
  bytes_appended_ += framed.size();
  ++records_appended_;
}

Result<WalReplay> wal_replay(const StorageFile* file) {
  std::vector<std::uint8_t> data(file->size());
  if (!data.empty() && !file->read(0, data)) return Err(std::string("wal: read failed"));

  WalReplay replay;
  std::size_t pos = 0;
  std::uint64_t expect_seq = 1;
  while (pos < data.size()) {
    const std::size_t span_len = intact_record_at(data, pos);
    if (span_len == 0) break;
    WalRecord record;
    if (!decode_payload(std::span(data).subspan(pos + kWalHeaderBytes,
                                                span_len - kWalHeaderBytes),
                        record))
      return Err(std::string("wal: undecodable record (corruption) at offset ") +
                 std::to_string(pos));
    if (record.seq != expect_seq)
      return Err(std::string("wal: sequence break (corruption) at offset ") +
                 std::to_string(pos));
    ++expect_seq;
    replay.records.push_back(std::move(record));
    pos += span_len;
    replay.record_ends.push_back(pos);
  }
  replay.valid_end = pos;

  if (pos < data.size()) {
    // Broken bytes from `pos` on.  If ANY intact record lies beyond them the
    // damage is interior — a flipped bit, not a torn tail — and the log is
    // untrustworthy as a whole.
    for (std::size_t probe = pos + 1; probe + kWalHeaderBytes <= data.size(); ++probe) {
      if (intact_record_at(data, probe) != 0)
        return Err(std::string("wal: interior corruption at offset ") + std::to_string(pos) +
                   " (intact record found at " + std::to_string(probe) + ")");
    }
    replay.torn_tail_bytes = data.size() - pos;
  }
  return replay;
}

}  // namespace jenga::ledger
