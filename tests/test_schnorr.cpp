// Schnorr single signatures: round trip, rejection of a wrong message, key or
// response, and deterministic signatures and keys.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "crypto/schnorr.hpp"

namespace jenga::crypto {
namespace {

std::vector<std::uint8_t> msg_bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = keypair_from_seed(1);
  const auto msg = msg_bytes("hello jenga");
  const Signature sig = sign(kp, msg);
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
}

TEST(Schnorr, WrongMessageRejected) {
  const KeyPair kp = keypair_from_seed(2);
  const Signature sig = sign(kp, msg_bytes("msg-a"));
  EXPECT_FALSE(verify(kp.public_key, msg_bytes("msg-b"), sig));
}

TEST(Schnorr, WrongKeyRejected) {
  const KeyPair kp1 = keypair_from_seed(3);
  const KeyPair kp2 = keypair_from_seed(4);
  const auto msg = msg_bytes("msg");
  const Signature sig = sign(kp1, msg);
  EXPECT_FALSE(verify(kp2.public_key, msg, sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  const KeyPair kp = keypair_from_seed(5);
  const auto msg = msg_bytes("msg");
  Signature sig = sign(kp, msg);
  sig.s = addmod(sig.s, U256(1), kOrderN);
  EXPECT_FALSE(verify(kp.public_key, msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
  const KeyPair kp = keypair_from_seed(6);
  const auto msg = msg_bytes("msg");
  const Signature a = sign(kp, msg);
  const Signature b = sign(kp, msg);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.s, b.s);
}

TEST(Schnorr, KeypairDeterministicFromSeed) {
  EXPECT_EQ(keypair_from_seed(7).public_key, keypair_from_seed(7).public_key);
  EXPECT_NE(keypair_from_seed(7).public_key, keypair_from_seed(8).public_key);
}

}  // namespace
}  // namespace jenga::crypto
