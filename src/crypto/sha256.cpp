#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define JENGA_SHA256_X86 1
#endif

namespace jenga::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef JENGA_SHA256_X86
/// The same compression as compress_portable on the SHA extensions.  The
/// state lives in two registers as (A, B, E, F) and (C, D, G, H); each
/// sha256rnds2 runs two rounds, and msg1/msg2 extend the schedule four words
/// at a time.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ext(std::uint32_t* state,
                                                                   const std::uint8_t* data,
                                                                   std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j] holds schedule words 4q..4q+3 for the q with q % 4 == j.
    __m128i w[4] = {};
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& cur = w[q % 4];
      if (q < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)), byte_swap);
      }
      __m128i wk =
          _mm_add_epi32(cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (q >= 3 && q < 15) {  // finish the words of quad q + 1
        __m128i& next = w[(q + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(q + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (q >= 1 && q < 13) {  // start the words of quad q + 3
        __m128i& prev = w[(q + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}
#endif

/// The kernel Sha256 runs.
sha256_kernel::Compress kernel() {
  const sha256_kernel::Compress hw = sha256_kernel::sha_extensions();
  return hw != nullptr ? hw : &sha256_kernel::compress_portable;
}

/// Pads the `len` < 64 buffered bytes in place (FIPS 180-4 §5.1.1), appends
/// the message length `bits` and compresses the last one or two blocks.
void pad_and_compress(sha256_kernel::Compress compress, std::uint32_t* state,
                      std::uint8_t* buffer, std::size_t len, std::uint64_t bits) {
  buffer[len++] = 0x80;
  if (len > 56) {
    std::memset(buffer + len, 0, 64 - len);
    compress(state, buffer, 1);
    len = 0;
  }
  std::memset(buffer + len, 0, 56 - len);
  for (int i = 0; i < 8; ++i) buffer[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  compress(state, buffer, 1);
}

Hash256 digest_of(const std::uint32_t* state) {
  Hash256 out;
  for (std::size_t i = 0; i < 8; ++i) {
    out.bytes[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

namespace sha256_kernel {

void compress_portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Compress sha_extensions() {
#ifdef JENGA_SHA256_X86
  static const bool supported = cpu_has_sha_extensions();
  return supported ? &compress_sha_ext : nullptr;
#else
  return nullptr;
#endif
}

Hash256 sha256_portable(std::span<const std::uint8_t> data) {
  std::uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  const std::size_t whole = data.size() / 64;
  compress_portable(state, data.data(), whole);
  std::uint8_t buffer[64]{};
  const std::size_t tail = data.size() % 64;
  if (tail > 0) std::memcpy(buffer, data.data() + whole * 64, tail);
  pad_and_compress(&compress_portable, state, buffer, tail,
                   static_cast<std::uint64_t>(data.size()) * 8);
  return digest_of(state);
}

}  // namespace sha256_kernel

void Sha256::reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return *this;
    kernel()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) kernel()(state_, data.data() + offset, whole);
  offset += whole * 64;
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256& Sha256::update_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return update(std::span<const std::uint8_t>(b, 8));
}

Hash256 Sha256::finish() {
  pad_and_compress(kernel(), state_, buffer_, buffer_len_, bit_count_);
  buffer_len_ = 0;
  return digest_of(state_);
}

Hash256 sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Hash256 sha256_tagged(std::string_view tag, std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(tag);
  h.update(data);
  return h.finish();
}

}  // namespace jenga::crypto
