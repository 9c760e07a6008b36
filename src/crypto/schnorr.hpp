// Schnorr signatures over secp256k1.
//
// Single-signer keys, signing and verification.  The beacon's VRF keys
// (crypto/vrf.hpp) are these keypairs.  BFT votes and quorum certificates
// use the simulation scheme in crypto/fastcrypto.hpp instead (see DESIGN.md
// §2).
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "crypto/secp256k1.hpp"

namespace jenga::crypto {

struct KeyPair {
  U256 secret;
  Point public_key;
};

/// Deterministically derives a keypair from a seed (test/simulation use).
[[nodiscard]] KeyPair keypair_from_seed(std::uint64_t seed);

struct Signature {
  Point r;   // commitment R = kG
  U256 s;    // response s = k + e·x (mod n)
};

/// Plain single-signer Schnorr.
[[nodiscard]] Signature sign(const KeyPair& key, std::span<const std::uint8_t> msg);
[[nodiscard]] bool verify(const Point& public_key, std::span<const std::uint8_t> msg,
                          const Signature& sig);

}  // namespace jenga::crypto
