// SHA-256 against FIPS 180-4 / NIST CAVS vectors, independent known
// answers, and the hardware kernel against the portable one.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"

namespace jenga::crypto {
namespace {

std::string digest_hex(std::string_view msg) { return to_hex(sha256(msg)); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  std::string msg(1000000, 'a');
  EXPECT_EQ(digest_hex(msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the path with no leftover buffer.
  std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  const auto one_shot = h.finish();
  // Same data split awkwardly across updates must agree.
  Sha256 h2;
  h2.update(msg.substr(0, 1));
  h2.update(msg.substr(1, 62));
  h2.update(msg.substr(63));
  EXPECT_EQ(one_shot, h2.finish());
}

TEST(Sha256, IncrementalMatchesOneShotManySplits) {
  std::string msg;
  for (int i = 0; i < 300; ++i) msg += static_cast<char>('a' + i % 26);
  const auto expect = sha256(msg);
  for (std::size_t split = 1; split < msg.size(); split += 17) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), expect) << "split=" << split;
  }
}

TEST(Sha256, ResetReusable) {
  Sha256 h;
  h.update("abc");
  const auto first = h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), first);
}

TEST(Sha256, UpdateU64LittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::uint8_t raw[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 b;
  b.update(std::span<const std::uint8_t>(raw, 8));
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, TaggedHashesAreDomainSeparated) {
  const std::uint8_t data[3] = {1, 2, 3};
  const auto a = sha256_tagged("tag-a", std::span<const std::uint8_t>(data, 3));
  const auto b = sha256_tagged("tag-b", std::span<const std::uint8_t>(data, 3));
  EXPECT_NE(a, b);
}

// 55/56/57 bytes straddle the padding boundary (56 leaves no room for the
// 8-byte length in the same block).
TEST(Sha256, PaddingBoundaryLengths) {
  EXPECT_EQ(digest_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(digest_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(digest_hex(std::string(57, 'a')),
            "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
}

// Digests of the bytes i % 251 for i in [0, length), computed with Python's
// hashlib: an implementation that shares none of this module's padding.
struct KnownAnswer {
  std::size_t length;
  const char* hex;
};
constexpr KnownAnswer kPatternDigests[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
    {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
    {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
    {57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f"},
    {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
    {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
    {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
    {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
    {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
    {128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
    {1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d"},
};

std::vector<std::uint8_t> pattern(std::size_t length) {
  std::vector<std::uint8_t> out(length);
  for (std::size_t i = 0; i < length; ++i) out[i] = static_cast<std::uint8_t>(i % 251);
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(length);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(Sha256, KnownAnswersOneShotAndSplitAtEveryOffset) {
  for (const KnownAnswer& ka : kPatternDigests) {
    const std::vector<std::uint8_t> msg = pattern(ka.length);
    const std::span<const std::uint8_t> all(msg);
    EXPECT_EQ(to_hex(sha256(all)), ka.hex) << "length " << ka.length;
    EXPECT_EQ(to_hex(sha256_kernel::sha256_portable(all)), ka.hex) << "length " << ka.length;
    for (std::size_t split = 0; split <= ka.length; ++split) {
      Sha256 h;
      h.update(all.first(split));
      h.update(all.subspan(split));
      EXPECT_EQ(to_hex(h.finish()), ka.hex) << "length " << ka.length << " split " << split;
    }
  }
}

// The dispatched hasher (the SHA-extension kernel where the CPU has one)
// against the portable-only hash, across every padding case up to 1 KiB and
// two long messages.
TEST(Sha256, DispatchedMatchesPortableAtEveryLength) {
  const std::vector<std::uint8_t> data = random_bytes(64 * 1024, 11);
  const std::span<const std::uint8_t> all(data);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(4 * 1024);
  lengths.push_back(64 * 1024);
  for (const std::size_t n : lengths) {
    EXPECT_EQ(sha256(all.first(n)), sha256_kernel::sha256_portable(all.first(n)))
        << "length " << n;
  }
}

TEST(Sha256Kernel, SupportedHardwareMatchesPortable) {
  const sha256_kernel::Compress hw = sha256_kernel::sha_extensions();
  if (hw == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU or build: only the portable kernel runs";
  }
  // One extra byte so every run reads its blocks from an odd address too.
  const std::vector<std::uint8_t> data = random_bytes(64 * 64 + 1, 23);
  Rng rng(29);
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    std::array<std::uint32_t, 8> expect{};
    for (auto& word : expect) word = static_cast<std::uint32_t>(rng.next());
    std::array<std::uint32_t, 8> got = expect;
    const std::uint8_t* in = data.data() + blocks % 2;
    sha256_kernel::compress_portable(expect.data(), in, blocks);
    hw(got.data(), in, blocks);
    EXPECT_EQ(got, expect) << blocks << " blocks";
  }
}

}  // namespace
}  // namespace jenga::crypto
