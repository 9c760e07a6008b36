// Durable authenticated state: Merkle trie properties, WAL recovery
// semantics, the in-memory crash/corruption model, backend bit-identity,
// kill-point crash recovery against a never-crashed oracle, and
// proof-verified state sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/state_store.hpp"
#include "ledger/state_sync.hpp"
#include "ledger/storage_backend.hpp"
#include "ledger/storage_env.hpp"
#include "ledger/trie.hpp"
#include "ledger/wal.hpp"

namespace jenga::ledger {
namespace {

Hash256 path_of(std::uint64_t i) {
  std::uint8_t buf[8];
  for (int b = 0; b < 8; ++b) buf[b] = static_cast<std::uint8_t>(i >> (8 * b));
  return crypto::sha256(std::span<const std::uint8_t>(buf, 8));
}

Hash256 value_of(std::uint64_t i) { return crypto::sha256_tagged("test-val", path_of(i).bytes); }

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// A contract value laid out as encode_contract_value lays one out, but with
/// the keys in the given order; key k holds k + 100.
std::vector<std::uint8_t> contract_value_with_keys(std::initializer_list<std::uint64_t> keys) {
  Writer w;
  w.u64(keys.size());
  for (const std::uint64_t k : keys) {
    w.u64(k);
    w.u64(k + 100);
  }
  return w.take();
}

/// An in-memory backend holding one contract value under contract 7, with a
/// commit whose root is the trie root over exactly those bytes.
std::unique_ptr<InMemoryBackend> backend_holding(const std::vector<std::uint8_t>& value) {
  const auto key = state_key_contract(ContractId{7});
  MerkleTrie trie;
  trie.put(state_path(key), state_value_hash(value));
  auto backend = std::make_unique<InMemoryBackend>();
  backend->put(key, value);
  backend->commit(trie.root());
  return backend;
}

// --- deterministic mutation scripts ------------------------------------------
// A script is a flat op list derived from a seed; applying the same script to
// any store (any backend) must land on the same digest at every commit point.

struct ScriptOp {
  bool contract = false;
  std::uint64_t id = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

std::vector<ScriptOp> make_script(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<ScriptOp> ops(n);
  for (auto& op : ops) {
    op.contract = rng.uniform(3) == 0;
    op.id = rng.uniform(40);
    op.a = rng.uniform(1'000'000);
    op.b = rng.uniform(1'000'000);
  }
  return ops;
}

void apply_op(StateStore& store, const ScriptOp& op) {
  if (!op.contract) {
    const AccountId id{op.id};
    if (store.has_account(id)) {
      store.set_balance(id, op.a);
    } else {
      store.create_account(id, op.a);
    }
  } else {
    const ContractId id{op.id};
    ContractState st;
    if (const ContractState* cur = store.contract_state(id)) st = *cur;
    st[op.a % 8] = op.b;
    if (store.has_contract_state(id)) {
      store.set_contract_state(id, std::move(st));
    } else {
      store.create_contract_state(id, std::move(st));
    }
  }
}

/// Applies ops [from, to) with a commit every `stride` ops (measured from the
/// start of the script), recording the digest at each commit.
void run_script(StateStore& store, const std::vector<ScriptOp>& ops, std::size_t from,
                std::size_t to, std::size_t stride, std::vector<Hash256>* digests = nullptr) {
  for (std::size_t i = from; i < to; ++i) {
    apply_op(store, ops[i]);
    if ((i + 1) % stride == 0) {
      store.commit();
      if (digests != nullptr) digests->push_back(store.digest());
    }
  }
}

// --- CRC ---------------------------------------------------------------------

TEST(Crc32c, KnownVector) {
  // The canonical CRC-32C check value.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32c(data), 0xE3069283u);
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>{}), 0u);
}

// --- Merkle trie -------------------------------------------------------------

TEST(MerkleTrie, EmptyRootIsStable) {
  MerkleTrie trie;
  EXPECT_EQ(trie.root(), MerkleTrie::empty_root());
  EXPECT_EQ(trie.recompute_root(), MerkleTrie::empty_root());
  EXPECT_EQ(trie.size(), 0u);
}

TEST(MerkleTrie, RootIsInsertionOrderIndependent) {
  constexpr std::size_t kKeys = 300;
  std::vector<std::uint64_t> order(kKeys);
  std::iota(order.begin(), order.end(), 0);

  auto build = [&](const std::vector<std::uint64_t>& seq) {
    MerkleTrie trie;
    for (std::uint64_t i : seq) trie.put(path_of(i), value_of(i));
    return trie;
  };

  const Hash256 forward = build(order).root();
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(build(order).root(), forward);
  Rng rng(99);
  std::shuffle(order.begin(), order.end(), rng);
  MerkleTrie shuffled = build(order);
  EXPECT_EQ(shuffled.root(), forward);
  EXPECT_EQ(shuffled.root(), shuffled.recompute_root());
  EXPECT_EQ(shuffled.size(), kKeys);
}

TEST(MerkleTrie, IncrementalRootMatchesRecompute) {
  MerkleTrie trie;
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    for (int j = 0; j < 25; ++j) {
      const std::uint64_t key = rng.uniform(500);
      trie.put(path_of(key), value_of(key + rng.uniform(3)));
    }
    ASSERT_EQ(trie.root(), trie.recompute_root()) << "round " << round;
  }
}

TEST(MerkleTrie, GetAndUpdate) {
  MerkleTrie trie;
  trie.put(path_of(1), value_of(1));
  const Hash256 one = trie.root();
  trie.put(path_of(2), value_of(2));
  EXPECT_NE(trie.root(), one);
  ASSERT_NE(trie.get(path_of(2)), nullptr);
  EXPECT_EQ(*trie.get(path_of(2)), value_of(2));
  EXPECT_EQ(trie.get(path_of(3)), nullptr);
  const Hash256 two = trie.root();
  trie.put(path_of(2), value_of(3));
  EXPECT_EQ(*trie.get(path_of(2)), value_of(3));
  EXPECT_NE(trie.root(), two);
  trie.put(path_of(2), value_of(2));
  EXPECT_EQ(trie.root(), two);  // back to the two-key state
  EXPECT_EQ(trie.size(), 2u);
}

TEST(MerkleTrie, ProofsVerifyAndRejectTampering) {
  MerkleTrie trie;
  constexpr std::size_t kKeys = 120;
  for (std::uint64_t i = 0; i < kKeys; ++i) trie.put(path_of(i), value_of(i));
  const Hash256 root = trie.root();

  for (std::uint64_t i = 0; i < kKeys; ++i) {
    TrieProof proof;
    ASSERT_TRUE(trie.prove(path_of(i), proof));
    EXPECT_TRUE(MerkleTrie::verify(root, path_of(i), value_of(i), proof));

    // Tampered value: the leaf hash no longer matches the parent frame.
    EXPECT_FALSE(MerkleTrie::verify(root, path_of(i), value_of(i + 1), proof));
    // Wrong root: the top frame no longer hashes to it.
    EXPECT_FALSE(MerkleTrie::verify(value_of(0), path_of(i), value_of(i), proof));
  }

  // Tampered sibling inside a middle frame breaks the chain above it.
  TrieProof proof;
  ASSERT_TRUE(trie.prove(path_of(5), proof));
  ASSERT_GE(proof.depth(), 1u);
  TrieProof bent = proof;
  bent.nodes.back().children[0].bytes[0] ^= 0x01;
  EXPECT_FALSE(MerkleTrie::verify(root, path_of(5), value_of(5), bent));

  // Absent keys are not provable.
  TrieProof absent;
  EXPECT_FALSE(trie.prove(path_of(kKeys + 7), absent));
  EXPECT_EQ(absent.depth(), 0u);
}

/// `n` paths of 32 bytes drawn from Rng(seed).
std::vector<Hash256> seeded_paths(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Hash256> paths(n);
  for (Hash256& p : paths) {
    for (std::size_t b = 0; b < 32; b += 8) {
      const std::uint64_t word = rng.next();
      for (std::size_t j = 0; j < 8; ++j)
        p.bytes[b + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return paths;
}

/// `path` with nibble `depth` changed: the two share their first `depth`
/// nibbles, so a trie holding both splits them at that depth.
Hash256 diverging_at(Hash256 path, std::size_t depth) {
  path.bytes[depth / 2] ^= (depth % 2 == 0) ? 0x10 : 0x01;
  return path;
}

Hash256 value_at(const Hash256& path, std::string_view tag = "test-val") {
  return crypto::sha256_tagged(tag, path.bytes);
}

// Hex roots of tries over seeded paths, a re-put root and proof depths, all
// computed with the trie's first (pointer-tree) node layout.  The layout may
// change; the hashes and the canonical structure may not.
TEST(MerkleTrie, RootsPinnedAtParent) {
  const std::pair<std::size_t, const char*> pinned[] = {
      {1, "5aed88955982f600266f36cead1d63b11f52174688715e230e23716f86fe7990"},
      {2, "b830679231ba4cc62b7d7b75226014ead88e891d0cf33bc819052ebda5f74c13"},
      {17, "86232672bf4dc70d75bfd910a24ba26e649fd898befc33cda1aedcb636789c61"},
      {5'000, "f8c7bb347ad76df26f77c3d363df66cec78e03561580a641c03623dccf180ef1"},
      {100'000, "e8aa088a2b4f219700f391c550e2fcdb88c9ec4a7c7c57a064fde230c8354074"},
  };
  for (const auto& [n, want] : pinned) {
    MerkleTrie trie;
    for (const Hash256& p : seeded_paths(n, n)) trie.put(p, value_at(p));
    EXPECT_EQ(trie.size(), n);
    EXPECT_EQ(to_hex(trie.root()), want) << n << " keys";
  }

  const std::vector<Hash256> paths = seeded_paths(5'000, 5'000);
  MerkleTrie trie;
  for (const Hash256& p : paths) trie.put(p, value_at(p));
  EXPECT_EQ(to_hex(trie.root()), pinned[3].second);
  for (std::size_t i = 0; i < paths.size(); i += 3)
    trie.put(paths[i], value_at(paths[i], "test-val-2"));
  EXPECT_EQ(trie.size(), paths.size());
  EXPECT_EQ(to_hex(trie.root()),
            "5d4e2c5e89831065f69791c3e02435095c2060434ea470a4e2df7a4c6f936302");
  const std::pair<std::size_t, std::size_t> depths[] = {{0, 4}, {1, 4}, {2, 4}, {4'999, 3}};
  for (const auto& [key, want] : depths) {
    TrieProof proof;
    ASSERT_TRUE(trie.prove(paths[key], proof));
    EXPECT_EQ(proof.depth(), want) << "key " << key;
  }

  // Two paths equal in all but the last nibble: a 64-frame chain.
  Hash256 deep = paths[0];
  Hash256 twin = deep;
  twin.bytes[31] ^= 0x01;
  MerkleTrie pair;
  pair.put(deep, value_at(deep));
  pair.put(twin, value_at(twin));
  EXPECT_EQ(to_hex(pair.root()),
            "00ff4d430bc2065379cd052fe9e11f58b3839d54e2951847d4acf2b6779aff71");
  TrieProof proof;
  ASSERT_TRUE(pair.prove(twin, proof));
  EXPECT_EQ(proof.depth(), 64u);
}

// A path has 64 nibbles, so no proof holds more than 64 frames.  One padded
// past that is refused without reading beyond the path, even when the extra
// frame holds the leaf's hash in every slot.
TEST(MerkleTrie, ProofDeeperThanPathIsRefused) {
  const Hash256 deep = seeded_paths(53, 1)[0];
  const Hash256 twin = diverging_at(deep, 63);
  MerkleTrie trie;
  trie.put(deep, value_at(deep));
  trie.put(twin, value_at(twin));
  const Hash256 root = trie.root();

  TrieProof proof;
  ASSERT_TRUE(trie.prove(twin, proof));
  ASSERT_EQ(proof.depth(), 64u);
  EXPECT_TRUE(MerkleTrie::verify(root, twin, value_at(twin), proof));

  TrieProof padded = proof;
  TrieProofNode& extra = padded.nodes.emplace_back();
  extra.children.fill(MerkleTrie::leaf_hash(twin, value_at(twin)));
  ASSERT_EQ(padded.depth(), 65u);
  EXPECT_FALSE(MerkleTrie::verify(root, twin, value_at(twin), padded));

  // A chain of n frames that hashes up to its own root, every slot holding
  // the hash of the frame below: it is consistent at any depth, so only the
  // depth limit refuses the 65-frame one.
  const auto forge = [&](std::size_t n, TrieProof& out) {
    Hash256 below = MerkleTrie::leaf_hash(twin, value_at(twin));
    out.nodes.resize(n);
    for (std::size_t i = n; i-- > 0;) {
      out.nodes[i].children.fill(below);
      crypto::Sha256 h;
      h.update("jenga/trie-inner");
      for (const Hash256& child : out.nodes[i].children) h.update(child);
      below = h.finish();
    }
    return below;
  };
  TrieProof forged;
  EXPECT_TRUE(MerkleTrie::verify(forge(64, forged), twin, value_at(twin), forged));
  EXPECT_FALSE(MerkleTrie::verify(forge(65, forged), twin, value_at(twin), forged));
}

// The trie against a std::map model.  Seeded batches of puts and re-puts go
// to both; after each batch the sizes, lookups and both roots must agree
// with the model and with a trie rebuilt from it in shuffled order, and a
// sample of proofs must verify.  Some paths share long prefixes with others,
// so puts split deep inner chains as well as shallow ones.
TEST(MerkleTrie, MatchesMapModel) {
  std::vector<Hash256> paths = seeded_paths(41, 3'000);
  for (std::size_t i = 0; i < 200; ++i) paths.push_back(diverging_at(paths[i], 6 + i % 58));
  const std::vector<Hash256> absent = seeded_paths(43, 64);

  std::map<Hash256, Hash256> model;
  MerkleTrie trie;
  Rng rng(47);
  for (int batch = 0; batch < 16; ++batch) {
    const std::size_t puts = 1 + rng.uniform(800);
    for (std::size_t j = 0; j < puts; ++j) {
      const Hash256& path = paths[rng.uniform(paths.size())];
      const auto it = model.find(path);
      // A quarter of the re-puts write the value already there.
      const Hash256 value =
          it != model.end() && rng.uniform(4) == 0 ? it->second : value_of(rng.next());
      trie.put(path, value);
      model[path] = value;
    }

    ASSERT_EQ(trie.size(), model.size()) << "batch " << batch;
    for (const auto& [path, value] : model) {
      const Hash256* got = trie.get(path);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, value);
    }
    for (const Hash256& path : absent) EXPECT_EQ(trie.get(path), nullptr);

    const Hash256 root = trie.root();
    EXPECT_EQ(root, trie.recompute_root()) << "batch " << batch;
    std::vector<std::pair<Hash256, Hash256>> entries(model.begin(), model.end());
    std::shuffle(entries.begin(), entries.end(), rng);
    MerkleTrie rebuilt;
    for (const auto& [path, value] : entries) rebuilt.put(path, value);
    EXPECT_EQ(rebuilt.root(), root) << "batch " << batch;

    for (std::size_t k = 0; k < std::min<std::size_t>(entries.size(), 24); ++k) {
      TrieProof proof;
      ASSERT_TRUE(trie.prove(entries[k].first, proof));
      EXPECT_TRUE(MerkleTrie::verify(root, entries[k].first, entries[k].second, proof));
    }
    TrieProof proof;
    EXPECT_FALSE(trie.prove(absent[static_cast<std::size_t>(batch)], proof));
    EXPECT_EQ(proof.depth(), 0u);
  }

  // Moving leaves the source empty and still usable.
  const Hash256 root = trie.root();
  MerkleTrie moved = std::move(trie);
  EXPECT_EQ(moved.root(), root);
  EXPECT_EQ(moved.size(), model.size());
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(trie.root(), MerkleTrie::empty_root());
  EXPECT_EQ(trie.get(paths[0]), nullptr);
  trie.put(paths[0], value_at(paths[0]));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.root(), MerkleTrie::leaf_hash(paths[0], value_at(paths[0])));

  MerkleTrie assigned;
  assigned.put(paths[1], value_at(paths[1]));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.root(), root);
  EXPECT_EQ(assigned.size(), model.size());
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.root(), MerkleTrie::empty_root());
}

// --- WAL ---------------------------------------------------------------------

WalRecord put_record(std::uint64_t seq, std::string_view key, std::string_view value) {
  WalRecord r;
  r.seq = seq;
  r.op = WalOp::kPut;
  r.key = bytes_of(key);
  r.value = bytes_of(value);
  return r;
}

TEST(Wal, AppendReplayRoundTrip) {
  MemStorageEnv env;
  StorageFile* file = env.open("log");
  WalWriter writer(file);
  writer.append(put_record(1, "alpha", "1111"));
  writer.append(put_record(2, "beta", "2222"));
  WalRecord commit;
  commit.seq = 3;
  commit.op = WalOp::kCommit;
  commit.root = value_of(9);
  writer.append(commit);

  auto replay = wal_replay(file);
  ASSERT_TRUE(replay.ok()) << replay.error();
  const WalReplay& out = replay.value();
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[0].key, bytes_of("alpha"));
  EXPECT_EQ(out.records[0].value, bytes_of("1111"));
  EXPECT_EQ(out.records[1].key, bytes_of("beta"));
  EXPECT_EQ(out.records[1].value, bytes_of("2222"));
  EXPECT_EQ(out.records[2].op, WalOp::kCommit);
  EXPECT_EQ(out.records[2].root, value_of(9));
  EXPECT_EQ(out.torn_tail_bytes, 0u);
  EXPECT_EQ(out.valid_end, file->size());
  ASSERT_EQ(out.record_ends.size(), 3u);
  EXPECT_EQ(out.record_ends.back(), file->size());
}

TEST(Wal, RetiredEraseOpIsRefused) {
  // Op 2 is retired.  A checksum-valid record carrying it is corruption,
  // even as the log's last record, where a torn tail would be forgiven.
  MemStorageEnv env;
  StorageFile* file = env.open("log");
  WalWriter writer(file);
  writer.append(put_record(1, "alpha", "1111"));
  WalRecord retired;
  retired.seq = 2;
  retired.op = static_cast<WalOp>(2);
  writer.append(retired);
  EXPECT_FALSE(wal_replay(file).ok());
}

TEST(Wal, TornTailRecoversCleanly) {
  MemStorageEnv env;
  StorageFile* file = env.open("log");
  WalWriter writer(file);
  writer.append(put_record(1, "a", "1"));
  writer.append(put_record(2, "b", "2"));
  const std::uint64_t intact = file->size();
  writer.append(put_record(3, "c", "3"));
  file->truncate(intact + 5);  // the last record cut mid-header/payload

  auto replay = wal_replay(file);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().torn_tail_bytes, 5u);
  EXPECT_EQ(replay.value().valid_end, intact);
}

TEST(Wal, InteriorBitFlipIsRefused) {
  MemStorageEnv env;
  StorageFile* file = env.open("log");
  WalWriter writer(file);
  writer.append(put_record(1, "aaaa", "11111111"));
  writer.append(put_record(2, "bbbb", "22222222"));
  writer.append(put_record(3, "cccc", "33333333"));
  file->sync();
  // Flip a payload bit of the FIRST record: a broken record with intact
  // records after it is interior corruption, not a torn tail.
  env.flip_bit("log", (kWalHeaderBytes + 3) * 8);
  env.power_cut();

  auto replay = wal_replay(env.open("log"));
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.error().find("corruption"), std::string::npos) << replay.error();
}

// --- MemStorageEnv crash model -----------------------------------------------

TEST(MemStorageEnv, PowerCutFallsBackToDurableImage) {
  MemStorageEnv env;
  StorageFile* f = env.open("f");
  f->append(bytes_of("synced"));
  f->sync();
  f->append(bytes_of("+lost"));
  EXPECT_EQ(f->size(), 11u);
  env.power_cut();
  EXPECT_EQ(env.open("f")->size(), 6u);
  EXPECT_EQ(env.fault_stats().power_cuts, 1u);

  // Never-synced files disappear entirely.
  env.open("ghost")->append(bytes_of("boo"));
  env.power_cut();
  EXPECT_FALSE(env.exists("ghost"));
}

TEST(MemStorageEnv, TornWritePersistsPrefixOnly) {
  MemStorageEnv env;
  env.arm_torn_write("f", 4);
  StorageFile* f = env.open("f");
  f->append(bytes_of("0123456789"));
  EXPECT_EQ(f->size(), 4u);  // torn mid-buffer
  f->append(bytes_of("xy"));
  EXPECT_EQ(f->size(), 6u);  // one-shot: the next append is whole
  EXPECT_EQ(env.fault_stats().torn_writes, 1u);
}

TEST(MemStorageEnv, DroppedFsyncLosesAckedWrites) {
  MemStorageEnv env;
  StorageFile* f = env.open("f");
  f->append(bytes_of("base"));
  f->sync();
  env.set_drop_fsyncs(true);
  f->append(bytes_of("+acked"));
  f->sync();  // the drive lies
  env.set_drop_fsyncs(false);
  env.power_cut();
  EXPECT_EQ(env.open("f")->size(), 4u);
  EXPECT_GE(env.fault_stats().dropped_fsyncs, 1u);
}

TEST(MemStorageEnv, DurableViewIsIsolatedSnapshot) {
  MemStorageEnv env;
  StorageFile* f = env.open("f");
  f->append(bytes_of("synced"));
  f->sync();
  f->append(bytes_of("+tail"));

  auto view = env.durable_view();
  EXPECT_EQ(view->open("f")->size(), 6u);  // only the durable bytes
  view->open("f")->append(bytes_of("!!!"));
  EXPECT_EQ(f->size(), 11u);  // the live env never noticed
}

TEST(MemStorageEnv, RenameIsAtomicReplace) {
  MemStorageEnv env;
  env.open("tmp")->append(bytes_of("new"));
  env.open("tmp")->sync();
  env.open("live")->append(bytes_of("old-old"));
  env.open("live")->sync();
  env.rename("tmp", "live");
  EXPECT_FALSE(env.exists("tmp"));
  StorageFile* live = env.open("live");
  ASSERT_EQ(live->size(), 3u);
  std::vector<std::uint8_t> buf(3);
  ASSERT_TRUE(live->read(0, buf));
  EXPECT_EQ(buf, bytes_of("new"));
}

// --- backend bit-identity ----------------------------------------------------

TEST(Backend, InMemoryAndDurableAreBitIdentical) {
  const auto ops = make_script(0xB17, 400);

  StateStore plain;  // backend-less reference
  auto mem = StateStore::open(std::make_unique<InMemoryBackend>());
  ASSERT_TRUE(mem.ok()) << mem.error();
  MemStorageEnv env;
  auto durable = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 8}));
  ASSERT_TRUE(durable.ok()) << durable.error();

  for (std::size_t i = 0; i < ops.size(); ++i) {
    apply_op(plain, ops[i]);
    apply_op(mem.value(), ops[i]);
    apply_op(durable.value(), ops[i]);
    if ((i + 1) % 16 == 0) {
      mem.value().commit();
      durable.value().commit();
      ASSERT_EQ(mem.value().digest(), plain.digest()) << "op " << i;
      ASSERT_EQ(durable.value().digest(), plain.digest()) << "op " << i;
    }
  }
  EXPECT_GT(durable.value().backend()->stats().snapshots_written, 0u);
  EXPECT_GT(durable.value().backend()->stats().wal_records, 0u);
}

TEST(Backend, CleanShutdownRecoversExactState) {
  MemStorageEnv env;
  const auto ops = make_script(0x5EED, 200);
  Hash256 live_digest;
  std::size_t live_accounts = 0;
  {
    auto store = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 16}));
    ASSERT_TRUE(store.ok()) << store.error();
    run_script(store.value(), ops, 0, ops.size(), 10);
    live_digest = store.value().digest();
    live_accounts = store.value().account_count();
  }

  auto view = env.durable_view();
  auto recovered = StateStore::open(
      std::make_unique<DurableBackend>(view.get(), DurableOptions{.snapshot_interval = 16}));
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_EQ(recovered.value().digest(), live_digest);
  EXPECT_EQ(recovered.value().account_count(), live_accounts);
}

TEST(Backend, UncommittedTailIsDropped) {
  MemStorageEnv env;
  DurableBackend backend(&env, DurableOptions{.snapshot_interval = 0});
  ASSERT_TRUE(backend.load().ok());
  const auto key = state_key_account(AccountId{1});
  backend.put(key, encode_account_value(100));
  MerkleTrie trie;
  trie.put(state_path(key), state_value_hash(encode_account_value(100)));
  backend.commit(trie.root());
  // A batch that never reached its commit barrier — force it durable anyway
  // (worst case: the crash happened just before the commit record).
  backend.put(state_key_account(AccountId{2}), encode_account_value(200));
  env.open("state.wal")->sync();

  auto view = env.durable_view();
  DurableBackend reopened(view.get(), DurableOptions{.snapshot_interval = 0});
  auto recovered = reopened.load();
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  ASSERT_EQ(recovered.value().entries.size(), 1u);
  EXPECT_EQ(recovered.value().entries[0].first, key);
  EXPECT_EQ(recovered.value().committed_root, trie.root());
  EXPECT_EQ(reopened.stats().uncommitted_dropped, 1u);
}

// --- kill-point crash recovery ----------------------------------------------
// The contract (ISSUE satellite): crash at a kill point, restart, and the
// ledger digest equals a run that never crashed — across ≥3 seeds, for kills
// both mid-WAL-append and mid-snapshot.

TEST(CrashRecovery, KilledMidWalAppendMatchesNeverCrashedRun) {
  constexpr std::size_t kOps = 120;
  constexpr std::size_t kStride = 10;
  for (const std::uint64_t seed : {0xAA1ull, 0xBB2ull, 0xCC3ull}) {
    const auto ops = make_script(seed, kOps);
    // The kill lands mid-batch: between two commit barriers.
    const std::size_t kill_after = 60 + seed % 7 + 1;  // ops applied pre-crash
    const std::size_t committed = (kill_after / kStride) * kStride;
    ASSERT_LT(committed, kill_after);

    MemStorageEnv env;
    {
      auto store = StateStore::open(
          std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 4}));
      ASSERT_TRUE(store.ok()) << store.error();
      run_script(store.value(), ops, 0, kill_after, kStride);
      // Crash DURING the next WAL append: the record tears mid-buffer, a
      // partial flush makes the torn prefix durable, then the power goes.
      env.arm_torn_write("state.wal", 7);
      apply_op(store.value(), ops[kill_after]);
      env.open("state.wal")->sync();
      env.power_cut();
    }

    // Never-crashed oracle at the last durable commit.
    StateStore oracle;
    run_script(oracle, ops, 0, committed, kStride);

    auto recovered = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 4}));
    ASSERT_TRUE(recovered.ok()) << "seed " << seed << ": " << recovered.error();
    EXPECT_EQ(recovered.value().digest(), oracle.digest()) << "seed " << seed;

    // Resuming from the recovered store and replaying the lost suffix lands
    // on the same digest as a run that never crashed at all.
    run_script(recovered.value(), ops, committed, kOps, kStride);
    StateStore full;
    run_script(full, ops, 0, kOps, kStride);
    EXPECT_EQ(recovered.value().digest(), full.digest()) << "seed " << seed;
  }
}

TEST(CrashRecovery, KilledMidSnapshotMatchesNeverCrashedRun) {
  constexpr std::size_t kStride = 5;
  for (const std::uint64_t seed : {0x11ull, 0x22ull, 0x33ull}) {
    const auto ops = make_script(seed, 60);
    MemStorageEnv env;
    {
      auto store = StateStore::open(
          std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 3}));
      ASSERT_TRUE(store.ok()) << store.error();
      // Two clean commits, then the drive stops persisting right as the
      // third commit triggers snapshot rotation: the snapshot file, the
      // rename and the fresh-generation WAL all fail to reach the platter.
      run_script(store.value(), ops, 0, 2 * kStride, kStride);
      env.set_drop_fsyncs(true);
      run_script(store.value(), ops, 2 * kStride, 3 * kStride, kStride);
      ASSERT_GT(store.value().backend()->stats().snapshots_written, 0u);
      env.power_cut();
      env.set_drop_fsyncs(false);  // the replacement drive is honest
    }

    // Durable truth: the old-generation WAL through commit 2.  The lost
    // snapshot must not strand recovery (the old log was truncated only in
    // volatile space, so its records are still on disk).
    StateStore oracle;
    run_script(oracle, ops, 0, 2 * kStride, kStride);

    auto recovered = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 3}));
    ASSERT_TRUE(recovered.ok()) << "seed " << seed << ": " << recovered.error();
    EXPECT_EQ(recovered.value().digest(), oracle.digest()) << "seed " << seed;

    run_script(recovered.value(), ops, 2 * kStride, ops.size(), kStride);
    StateStore full;
    run_script(full, ops, 0, ops.size(), kStride);
    EXPECT_EQ(recovered.value().digest(), full.digest()) << "seed " << seed;
  }
}

TEST(CrashRecovery, CompletedSnapshotAloneRecovers) {
  // Crash right after snapshot rotation, before anything lands in the new
  // generation's log: snapshot(gen G) + possibly-stale log must recover.
  MemStorageEnv env;
  const auto ops = make_script(0xD00D, 30);
  Hash256 at_snapshot;
  {
    auto store = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 2}));
    ASSERT_TRUE(store.ok()) << store.error();
    run_script(store.value(), ops, 0, 20, 10);  // 2 commits → one snapshot
    ASSERT_EQ(store.value().backend()->stats().snapshots_written, 1u);
    at_snapshot = store.value().digest();
    // More mutations, never committed (and never synced).
    run_script(store.value(), ops, 20, 29, 100);
    env.power_cut();
  }
  auto recovered = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 2}));
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_EQ(recovered.value().digest(), at_snapshot);
}

// --- corruption refusal ------------------------------------------------------

TEST(Corruption, WalInteriorBitFlipRefusedAtRecovery) {
  MemStorageEnv env;
  const auto ops = make_script(0xF00, 60);
  {
    auto store = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 0}));
    ASSERT_TRUE(store.ok());
    run_script(store.value(), ops, 0, ops.size(), 10);
  }
  // Latent media corruption deep inside the durable log.
  const std::uint64_t wal_bytes = env.open("state.wal")->size();
  ASSERT_GT(wal_bytes, 200u);
  env.flip_bit("state.wal", (wal_bytes / 2) * 8 + 3);
  env.power_cut();

  auto recovered = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 0}));
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.error().find("wal"), std::string::npos) << recovered.error();
}

TEST(Corruption, SnapshotBitFlipRefusedAtRecovery) {
  MemStorageEnv env;
  const auto ops = make_script(0xF11, 40);
  {
    auto store = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 2}));
    ASSERT_TRUE(store.ok());
    run_script(store.value(), ops, 0, ops.size(), 10);
    ASSERT_GT(store.value().backend()->stats().snapshots_written, 0u);
  }
  env.flip_bit("state.snap", env.open("state.snap")->size() * 4);  // mid-file
  env.power_cut();

  auto recovered = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 2}));
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.error().find("snapshot"), std::string::npos) << recovered.error();
}

TEST(Corruption, CommitRootMismatchIsRefused) {
  // A structurally valid WAL whose commit record promises the wrong root:
  // every CRC passes, but StateStore::open must still refuse the state.
  MemStorageEnv env;
  StorageFile* file = env.open("state.wal");
  WalWriter writer(file);
  WalRecord gen;
  gen.seq = 1;
  gen.op = WalOp::kGeneration;
  gen.key.assign(8, 0);
  gen.key[0] = 1;  // generation 1, little-endian
  writer.append(gen);
  WalRecord put;
  put.seq = 2;
  put.op = WalOp::kPut;
  put.key = state_key_account(AccountId{1});
  put.value = encode_account_value(42);
  writer.append(put);
  WalRecord commit;
  commit.seq = 3;
  commit.op = WalOp::kCommit;
  commit.root = value_of(666);  // not the root of {account 1 → 42}
  writer.append(commit);
  file->sync();

  auto store = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 0}));
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.error().find("root"), std::string::npos) << store.error();
}

// A contract value with keys out of order or repeated is not the encoding of
// any state.  Rebuilding from it would hash those bytes into the root while
// holding the sorted state, whose own root differs: the root would no longer
// be a function of the state.
TEST(Corruption, NonCanonicalContractValueIsRefused) {
  auto in_order = StateStore::open(backend_holding(contract_value_with_keys({3, 5})));
  ASSERT_TRUE(in_order.ok()) << in_order.error();
  StateStore fresh;
  fresh.create_contract_state(ContractId{7}, ContractState{{3, 103}, {5, 105}});
  EXPECT_EQ(in_order.value().digest(), fresh.digest());

  for (const auto keys : {std::initializer_list<std::uint64_t>{5, 3}, {3, 3}}) {
    auto store = StateStore::open(backend_holding(contract_value_with_keys(keys)));
    ASSERT_FALSE(store.ok());
    EXPECT_NE(store.error().find("contract value"), std::string::npos) << store.error();
  }
}

// --- proof-verified state sync -----------------------------------------------

StateStore populated_store(std::uint64_t seed, std::size_t n_ops = 150) {
  StateStore store;
  for (const auto& op : make_script(seed, n_ops)) apply_op(store, op);
  return store;
}

TEST(StateSync, SnapshotAppliesAndMatchesRoot) {
  StateStore src = populated_store(0xAB);
  const SyncSnapshot snapshot = build_sync_snapshot(src);
  EXPECT_EQ(snapshot.root, src.digest());
  EXPECT_EQ(snapshot.entries.size(), src.account_count() + src.contract_count());
  EXPECT_GT(snapshot.wire_size(), 0u);

  StateStore dst;
  const SyncOutcome outcome = apply_sync_snapshot(snapshot, dst);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.keys_verified, snapshot.entries.size());
  EXPECT_EQ(outcome.proof_rejections, 0u);
  EXPECT_EQ(dst.digest(), src.digest());
  EXPECT_EQ(dst.total_balance(), src.total_balance());
}

TEST(StateSync, TamperedEntryIsRejected) {
  StateStore src = populated_store(0xCD);
  for (std::uint64_t index : {0ull, 3ull, 1000ull}) {
    SyncSnapshot snapshot = build_sync_snapshot(src);
    tamper_sync_snapshot(snapshot, index);
    StateStore dst;
    const SyncOutcome outcome = apply_sync_snapshot(snapshot, dst);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.proof_rejections, 1u);
    EXPECT_NE(dst.digest(), src.digest());
  }
}

TEST(StateSync, WrongAdvertisedRootIsRejected) {
  StateStore src = populated_store(0xEF);
  SyncSnapshot snapshot = build_sync_snapshot(src);
  snapshot.root.bytes[0] ^= 0x01;
  StateStore dst;
  const SyncOutcome outcome = apply_sync_snapshot(snapshot, dst);
  EXPECT_FALSE(outcome.ok);
  EXPECT_GE(outcome.proof_rejections, 1u);
}

TEST(StateSync, NonCanonicalContractValueIsRejected) {
  // The proof verifies (the root commits to these very bytes), but the value
  // is not a state's encoding, so the entry is refused before it is applied.
  const auto key = state_key_contract(ContractId{7});
  SyncEntry e;
  e.key = key;
  e.value = contract_value_with_keys({5, 3});
  MerkleTrie trie;
  trie.put(state_path(key), state_value_hash(e.value));
  ASSERT_TRUE(trie.prove(state_path(key), e.proof));
  SyncSnapshot snapshot;
  snapshot.root = trie.root();
  snapshot.entries.push_back(std::move(e));

  StateStore dst;
  const SyncOutcome outcome = apply_sync_snapshot(snapshot, dst);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.proof_rejections, 1u);
  EXPECT_FALSE(dst.has_contract_state(ContractId{7}));
}

TEST(StateSync, FullCopyFallbackReproducesState) {
  StateStore src = populated_store(0x77);
  StateStore dst;
  const std::uint64_t bytes = full_copy_sync(src, dst);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(dst.digest(), src.digest());
}

TEST(StateSync, SyncOntoDurableStoreSurvivesRecovery) {
  // A rehomed replica syncs over proofs onto a durable backend; after a
  // crash its recovered state still matches the shard root it synced to.
  StateStore src = populated_store(0x99);
  MemStorageEnv env;
  Hash256 synced_digest;
  {
    auto dst = StateStore::open(
        std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 8}));
    ASSERT_TRUE(dst.ok());
    const SyncOutcome outcome = apply_sync_snapshot(build_sync_snapshot(src), dst.value());
    ASSERT_TRUE(outcome.ok);
    dst.value().commit();
    synced_digest = dst.value().digest();
    env.power_cut();
  }
  auto recovered = StateStore::open(
      std::make_unique<DurableBackend>(&env, DurableOptions{.snapshot_interval = 8}));
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_EQ(recovered.value().digest(), synced_digest);
  EXPECT_EQ(recovered.value().digest(), src.digest());
}

}  // namespace
}  // namespace jenga::ledger
