// Authenticated map: radix-16 Merkle trie over hashed keys (SHAMap-style).
//
// Keys are 256-bit path hashes (the caller hashes its logical key — see
// StateStore's key scheme), walked nibble by nibble from the top.  A leaf
// lives at the shallowest depth where its path is unique and inner nodes
// exist exactly on shared prefixes, so the structure (and therefore the
// root) is a pure function of the key→value mapping, independent of
// insertion order.  That is the property the exec-determinism tests lean on:
// any worker count, any arrival order, same root.  Keys are only ever put,
// never deleted: every writer (genesis, commit write-back, recovery, state
// sync) inserts or updates.
//
// Nodes live in two pools owned by the trie, one of leaves and one of inner
// nodes, and name each other by 32-bit index.  A put walks and splits by
// index; nothing is allocated or freed per node, and destruction frees two
// arrays.
//
// Hashing is incremental and lazy: a put dirties its path, root() rehashes
// only dirty subtrees.  A put therefore costs O(depth) index work and root()
// costs O(dirty paths × depth × 16) hashing — at 10^6 keys depth is ~5-6,
// against the old whole-store rehash that walked every entry on every
// digest() call.
//
// Domain separation: leaf hashes, inner hashes and the empty root use
// distinct SHA-256 tags, so a leaf can never be replayed as an inner node.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace jenga::ledger {

/// One inner node of a proof path: the full 16-child hash frame, root first.
/// The verifier recomputes each frame's hash and checks the child slot the
/// key's nibble selects, so any tampering — value, sibling, or path — breaks
/// the chain.
struct TrieProofNode {
  std::array<Hash256, 16> children;
};

struct TrieProof {
  std::vector<TrieProofNode> nodes;  // root frame first, leaf's parent last

  [[nodiscard]] std::size_t depth() const { return nodes.size(); }
  /// Wire size for the bandwidth model: 16 hashes per frame.
  [[nodiscard]] std::uint64_t wire_size() const { return nodes.size() * 16 * 32 + 8; }
};

class MerkleTrie {
 public:
  MerkleTrie() = default;
  /// The moved-from trie is left empty.
  MerkleTrie(MerkleTrie&& other) noexcept;
  MerkleTrie& operator=(MerkleTrie&& other) noexcept;
  MerkleTrie(const MerkleTrie&) = delete;
  MerkleTrie& operator=(const MerkleTrie&) = delete;

  /// Inserts or updates `path` with the given value hash.
  void put(const Hash256& path, const Hash256& value_hash);
  /// The stored value hash, or nullptr.
  [[nodiscard]] const Hash256* get(const Hash256& path) const;
  [[nodiscard]] std::size_t size() const { return leaves_.size(); }

  /// Authenticated root.  Cached: only subtrees dirtied since the last call
  /// are rehashed.
  [[nodiscard]] Hash256 root() const;
  /// Root recomputed from scratch, ignoring every cached hash — the oracle
  /// the incremental path is asserted against in debug builds.
  [[nodiscard]] Hash256 recompute_root() const;

  /// Inclusion proof for `path`.  Returns false, with `out` empty, when the
  /// path is absent.
  [[nodiscard]] bool prove(const Hash256& path, TrieProof& out) const;

  /// Verifies that (path → value_hash) is included under `root`.  A proof
  /// deeper than a path's 64 nibbles is refused.
  [[nodiscard]] static bool verify(const Hash256& root, const Hash256& path,
                                   const Hash256& value_hash, const TrieProof& proof);

  [[nodiscard]] static Hash256 empty_root();
  [[nodiscard]] static Hash256 leaf_hash(const Hash256& path, const Hash256& value_hash);

 private:
  /// A node reference: 0 is an empty slot, a set top bit names
  /// leaves_[ref & ~kLeafBit], any other value names inners_[ref - 1].
  using Ref = std::uint32_t;
  static constexpr Ref kLeafBit = Ref{1} << 31;

  struct Leaf {
    Hash256 path;
    Hash256 value_hash;
    mutable Hash256 hash;  // leaf_hash(path, value_hash) once clean
    mutable bool dirty;
  };
  struct Inner {
    mutable Hash256 hash;  // hash of the 16 child hashes once clean
    std::array<Ref, 16> children;
    mutable bool dirty;
  };
  static_assert(sizeof(Leaf) == 97 && sizeof(Inner) == 100);

  [[nodiscard]] static bool is_leaf(Ref ref) { return (ref & kLeafBit) != 0; }
  [[nodiscard]] const Leaf& leaf(Ref ref) const { return leaves_[ref & ~kLeafBit]; }
  [[nodiscard]] Leaf& leaf(Ref ref) { return leaves_[ref & ~kLeafBit]; }
  [[nodiscard]] const Inner& inner(Ref ref) const { return inners_[ref - 1]; }
  [[nodiscard]] Inner& inner(Ref ref) { return inners_[ref - 1]; }
  Ref new_leaf(const Hash256& path, const Hash256& value_hash);
  Ref new_inner();

  [[nodiscard]] const Hash256& cached_hash(Ref ref) const;
  [[nodiscard]] Hash256 full_hash(Ref ref) const;

  std::vector<Leaf> leaves_;
  std::vector<Inner> inners_;
  Ref root_ = 0;
};

}  // namespace jenga::ledger
