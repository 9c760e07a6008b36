// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Every content hash in the system (transaction ids, block ids, contract
// placement, Merkle trees, Schnorr challenges) goes through this module.
//
// The block compression has two kernels (crypto/sha256_kernel.hpp).  On x86
// CPUs whose CPUID reports the SHA extensions (with SSSE3 and SSE4.1), Sha256
// runs one built on them, compiled with a function-level target attribute;
// everywhere else it runs the portable C++ one, which the tests also use as
// the reference.  The choice is read once from CPUID and nothing else
// selects it.  Both compute the same function, so every digest is the same
// on every host.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace jenga::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view s) {
    return update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  Sha256& update(const Hash256& h) { return update(std::span(h.bytes)); }
  Sha256& update_u64(std::uint64_t v);

  /// Finalizes and returns the digest.  The hasher must be reset before reuse.
  [[nodiscard]] Hash256 finish();

 private:
  std::uint32_t state_[8]{};
  std::uint64_t bit_count_ = 0;
  std::uint8_t buffer_[64]{};
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience hash.
[[nodiscard]] Hash256 sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Hash256 sha256(std::string_view s);

/// Domain-separated hash: H(tag || data).  Protocol objects use distinct tags
/// so that hashes from different contexts can never collide by construction.
[[nodiscard]] Hash256 sha256_tagged(std::string_view tag, std::span<const std::uint8_t> data);

}  // namespace jenga::crypto
