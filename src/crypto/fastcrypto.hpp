// FastCrypto: cheap keyed-hash "signatures" for large-scale simulation.
//
// Running 2880 nodes through real aggregate signatures (the paper's BLS)
// would turn a discrete-event simulation into a crypto benchmark.
// FastCrypto swaps the math for keyed 64-bit hashes while keeping the
// interface semantics of an aggregate scheme (sign/verify/aggregate with a
// signer bitmap) and — crucially — its *wire sizes*: message size
// accounting in simnet always charges for full-size BLS-equivalent
// signatures.  Every replica, relay verifier, test and example uses
// FastCrypto, and the repository has no real aggregate scheme:
// crypto/schnorr.hpp is single-signer Schnorr, which only the beacon's VRF
// keys use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace jenga::crypto {

/// Wire size charged for an (aggregated) signature regardless of provider.
inline constexpr std::uint32_t kSignatureWireBytes = 64;
/// Wire size of a compressed public key.
inline constexpr std::uint32_t kPublicKeyWireBytes = 33;

struct FastKey {
  std::uint64_t secret = 0;
  std::uint64_t public_id = 0;  // splitmix(secret): stands in for the public key
};

[[nodiscard]] FastKey fast_keypair(std::uint64_t seed);

/// 64-bit tag binding (message, signer secret).
[[nodiscard]] std::uint64_t fast_sign(const FastKey& key, const Hash256& msg);
[[nodiscard]] bool fast_verify(std::uint64_t public_id, const Hash256& msg, std::uint64_t sig);

/// Aggregate: XOR of member tags + bitmap; verification recomputes each
/// member tag from its public id (the verifier knows the group's key list —
/// mirroring BLS verification against known public keys).
struct FastMultiSig {
  std::uint64_t aggregate = 0;
  std::vector<bool> signers;

  [[nodiscard]] std::size_t signer_count() const {
    std::size_t n = 0;
    for (bool b : signers) n += b;
    return n;
  }
};

[[nodiscard]] FastMultiSig fast_aggregate(std::span<const FastKey> group,
                                          const std::vector<bool>& participating,
                                          const Hash256& msg);
[[nodiscard]] bool fast_verify_multisig(std::span<const std::uint64_t> group_public_ids,
                                        const Hash256& msg, const FastMultiSig& sig);

/// One certificate inside a batched verification (gossip batch frames carry
/// many quorum certs from different groups over different messages).
struct FastBatchEntry {
  std::span<const std::uint64_t> group_public_ids;
  Hash256 msg;
  const FastMultiSig* sig = nullptr;
};

/// Verifies every entry in one aggregated pass: per-entry residuals are
/// combined under seed-derived random weights and checked against zero —
/// the small-group analogue of BLS/Schnorr random-linear-combination batch
/// verification.  Accepts iff (w.h.p.) every entry verifies individually;
/// on failure the caller falls back to per-entry checks to find the culprit.
[[nodiscard]] bool fast_verify_multisig_batch(std::span<const FastBatchEntry> entries,
                                              std::uint64_t seed);

}  // namespace jenga::crypto
