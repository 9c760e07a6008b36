#include "crypto/schnorr.hpp"

#include "crypto/sha256.hpp"

namespace jenga::crypto {
namespace {

U256 scalar_from_hash(const Hash256& h) {
  U256 v = U256::from_be_bytes(h);
  if (v >= kOrderN) v = mod(U512{v, U256{}}, kOrderN);
  if (v.is_zero()) v = U256(1);  // zero scalars are degenerate; nudge deterministically
  return v;
}

U256 challenge_hash(const Point& r, const Hash256& key_context,
                    std::span<const std::uint8_t> msg) {
  Sha256 h;
  h.update("jenga/schnorr-challenge");
  const auto rc = compress(r);
  h.update(std::span<const std::uint8_t>(rc.data(), rc.size()));
  h.update(key_context);
  h.update(msg);
  return scalar_from_hash(h.finish());
}

}  // namespace

KeyPair keypair_from_seed(std::uint64_t seed) {
  Sha256 h;
  h.update("jenga/keygen");
  h.update_u64(seed);
  KeyPair kp;
  kp.secret = scalar_from_hash(h.finish());
  kp.public_key = point_mul_g(kp.secret);
  return kp;
}

Signature sign(const KeyPair& key, std::span<const std::uint8_t> msg) {
  // Derandomized nonce (RFC6979-flavoured): k = H(secret || msg).
  Sha256 nh;
  nh.update("jenga/schnorr-nonce");
  nh.update(key.secret.to_be_bytes());
  nh.update(msg);
  const U256 k = scalar_from_hash(nh.finish());

  Signature sig;
  sig.r = point_mul_g(k);
  const auto pk = compress(key.public_key);
  const Hash256 key_ctx = sha256(std::span<const std::uint8_t>(pk.data(), pk.size()));
  const U256 e = challenge_hash(sig.r, key_ctx, msg);
  sig.s = addmod(k, mulmod(e, key.secret, kOrderN), kOrderN);
  return sig;
}

bool verify(const Point& public_key, std::span<const std::uint8_t> msg, const Signature& sig) {
  if (sig.r.infinity || sig.s.is_zero() || sig.s >= kOrderN) return false;
  if (!is_on_curve(public_key) || public_key.infinity) return false;
  const auto pk = compress(public_key);
  const Hash256 key_ctx = sha256(std::span<const std::uint8_t>(pk.data(), pk.size()));
  const U256 e = challenge_hash(sig.r, key_ctx, msg);
  // s·G == R + e·P
  const Point lhs = point_mul_g(sig.s);
  const Point rhs = point_add(sig.r, point_mul(e, public_key));
  return lhs == rhs;
}

}  // namespace jenga::crypto
