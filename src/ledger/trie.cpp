#include "ledger/trie.hpp"

#include <cassert>
#include <utility>

#include "crypto/sha256.hpp"

namespace jenga::ledger {

namespace {

/// Nibbles in a 256-bit path, and so the most frames a proof can hold.
constexpr std::size_t kPathNibbles = 64;

/// Nibble `depth` of the path, most-significant first.
std::uint8_t nibble(const Hash256& path, std::size_t depth) {
  const std::uint8_t byte = path.bytes[depth / 2];
  return (depth % 2 == 0) ? (byte >> 4) : (byte & 0x0F);
}

const Hash256 kEmptySlot{};

Hash256 hash_inner_frame(const std::array<Hash256, 16>& children) {
  crypto::Sha256 h;
  h.update("jenga/trie-inner");
  for (const Hash256& child : children) h.update(child);
  return h.finish();
}

}  // namespace

MerkleTrie::MerkleTrie(MerkleTrie&& other) noexcept
    : leaves_(std::exchange(other.leaves_, {})),
      inners_(std::exchange(other.inners_, {})),
      root_(std::exchange(other.root_, 0)) {}

MerkleTrie& MerkleTrie::operator=(MerkleTrie&& other) noexcept {
  if (this != &other) {
    leaves_ = std::exchange(other.leaves_, {});
    inners_ = std::exchange(other.inners_, {});
    root_ = std::exchange(other.root_, 0);
  }
  return *this;
}

Hash256 MerkleTrie::empty_root() {
  static const Hash256 h = crypto::sha256("jenga/trie-empty");
  return h;
}

Hash256 MerkleTrie::leaf_hash(const Hash256& path, const Hash256& value_hash) {
  crypto::Sha256 h;
  h.update("jenga/trie-leaf");
  h.update(path);
  h.update(value_hash);
  return h.finish();
}

MerkleTrie::Ref MerkleTrie::new_leaf(const Hash256& path, const Hash256& value_hash) {
  assert(leaves_.size() < kLeafBit);
  leaves_.push_back(Leaf{path, value_hash, {}, true});
  return kLeafBit | static_cast<Ref>(leaves_.size() - 1);
}

MerkleTrie::Ref MerkleTrie::new_inner() {
  assert(inners_.size() + 1 < kLeafBit);
  inners_.push_back(Inner{{}, {}, true});
  return static_cast<Ref>(inners_.size());
}

void MerkleTrie::put(const Hash256& path, const Hash256& value_hash) {
  // Walk to the slot `path` selects, dirtying every inner node above it.  The
  // slot is named by its owner and nibble rather than by address, since a
  // new node may move the pool the owner lives in.
  Ref owner = 0;  // 0: the slot is root_
  std::uint8_t slot = 0;
  std::size_t depth = 0;
  Ref ref = root_;
  while (ref != 0 && !is_leaf(ref)) {
    Inner& n = inner(ref);
    n.dirty = true;
    owner = ref;
    slot = nibble(path, depth++);
    ref = n.children[slot];
  }
  const auto link = [&](Ref child) { (owner == 0 ? root_ : inner(owner).children[slot]) = child; };

  if (ref == 0) {
    link(new_leaf(path, value_hash));
    return;
  }
  Leaf& resident = leaf(ref);
  if (resident.path == path) {
    resident.value_hash = value_hash;
    resident.dirty = true;
    return;
  }
  // Split: push the resident leaf down an inner chain to the first nibble
  // where the two paths diverge, then hang both leaves there.
  const Hash256 resident_path = resident.path;
  Ref fork = new_inner();
  link(fork);
  while (nibble(resident_path, depth) == nibble(path, depth)) {
    const Ref next = new_inner();
    inner(fork).children[nibble(path, depth++)] = next;
    fork = next;
  }
  const Ref fresh = new_leaf(path, value_hash);
  inner(fork).children[nibble(resident_path, depth)] = ref;
  inner(fork).children[nibble(path, depth)] = fresh;
}

const Hash256* MerkleTrie::get(const Hash256& path) const {
  Ref ref = root_;
  for (std::size_t depth = 0; ref != 0 && !is_leaf(ref); ++depth)
    ref = inner(ref).children[nibble(path, depth)];
  if (ref == 0) return nullptr;
  const Leaf& l = leaf(ref);
  return l.path == path ? &l.value_hash : nullptr;
}

const Hash256& MerkleTrie::cached_hash(Ref ref) const {
  if (is_leaf(ref)) {
    const Leaf& l = leaf(ref);
    if (l.dirty) {
      l.hash = leaf_hash(l.path, l.value_hash);
      l.dirty = false;
    }
    return l.hash;
  }
  const Inner& n = inner(ref);
  if (n.dirty) {
    crypto::Sha256 h;
    h.update("jenga/trie-inner");
    for (const Ref child : n.children) h.update(child != 0 ? cached_hash(child) : kEmptySlot);
    n.hash = h.finish();
    n.dirty = false;
  }
  return n.hash;
}

Hash256 MerkleTrie::full_hash(Ref ref) const {
  if (is_leaf(ref)) return leaf_hash(leaf(ref).path, leaf(ref).value_hash);
  crypto::Sha256 h;
  h.update("jenga/trie-inner");
  for (const Ref child : inner(ref).children) h.update(child != 0 ? full_hash(child) : kEmptySlot);
  return h.finish();
}

Hash256 MerkleTrie::root() const { return root_ != 0 ? cached_hash(root_) : empty_root(); }

Hash256 MerkleTrie::recompute_root() const {
  return root_ != 0 ? full_hash(root_) : empty_root();
}

bool MerkleTrie::prove(const Hash256& path, TrieProof& out) const {
  out.nodes.clear();
  Ref ref = root_;
  for (std::size_t depth = 0; ref != 0 && !is_leaf(ref); ++depth) {
    const Inner& n = inner(ref);
    TrieProofNode& frame = out.nodes.emplace_back();
    for (std::size_t i = 0; i < 16; ++i)
      frame.children[i] = n.children[i] != 0 ? cached_hash(n.children[i]) : kEmptySlot;
    ref = n.children[nibble(path, depth)];
  }
  if (ref != 0 && leaf(ref).path == path) return true;
  out.nodes.clear();
  return false;
}

bool MerkleTrie::verify(const Hash256& root, const Hash256& path, const Hash256& value_hash,
                        const TrieProof& proof) {
  if (proof.nodes.size() > kPathNibbles) return false;
  Hash256 expected = leaf_hash(path, value_hash);
  for (std::size_t i = proof.nodes.size(); i-- > 0;) {
    const TrieProofNode& frame = proof.nodes[i];
    if (!(frame.children[nibble(path, i)] == expected)) return false;
    expected = hash_inner_frame(frame.children);
  }
  return expected == root;
}

}  // namespace jenga::ledger
