#include "core/jenga_system.hpp"

#include <algorithm>
#include <cassert>

#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"
#include "exec/engine.hpp"
#include "gossip/batch.hpp"
#include "gossip/rumor.hpp"
#include "ledger/placement.hpp"
#include "ledger/state_sync.hpp"
#include "security/detector.hpp"
#include "vm/interpreter.hpp"

namespace jenga::core {
namespace {

using ledger::PortableState;
using ledger::Transaction;
using ledger::TxKind;

constexpr std::uint64_t kShardGroupTag = 0x5AAD0000ULL;
constexpr std::uint64_t kChannelGroupTag = 0xC4A70000ULL;

/// One committed (or aborted) transaction within a shard block.
struct CommitItem {
  TxPtr tx;
  bool ok = true;
  PortableState updates;  // this shard's slice only

  [[nodiscard]] std::uint32_t wire_size() const {
    return ledger::kTxWireBytes + updates.wire_size();
  }
};

/// Transfer-processing item (stage 0: debit at source, 1: credit at dest,
/// 2: finalize at source after the 2PC ack, 3: refund a force-aborted
/// attempt's debit at the source — recovery ladder only, DESIGN.md §14).
struct TransferItem {
  TxPtr tx;
  std::uint8_t stage = 0;
  /// Recovery-retry attempt the item belongs to (0 = original round).
  std::uint32_t attempt = 0;
};

/// Multi-round execution visit (kNoGlobalLogic): run the step group starting
/// at `next_step` on this shard, then hand the bundle onward.
struct ExecVisit {
  TxPtr tx;
  PortableState gathered;
  std::uint32_t next_step = 0;
  bool aborted = false;  // Phase 1 failed; just fan the abort out
};

/// A phase-1 candidate with its lock-retry budget consumed so far.
struct DetermineItem {
  TxPtr tx;
  std::uint32_t retries = 0;
};

/// What a state shard's consensus decides on.
struct ShardBlockPayload : sim::Payload {
  ShardId shard;
  std::vector<DetermineItem> determine;  // phase-1 state determination
  std::vector<CommitItem> commits;   // phase-3 commits/aborts
  std::vector<TransferItem> transfers;
  std::vector<ExecVisit> visits;     // kNoGlobalLogic step groups
  // kNoLattice: this shard doubles as an execution site; results it computed.
  std::vector<std::pair<TxPtr, ExecResult>> exec_entries;
  // kNoGlobalLogic: gather entries that expired with the tx never seen; the
  // decision fans aborts to the recorded granting shards (sorted ids).
  std::vector<std::pair<Hash256, std::vector<std::uint32_t>>> dead_gathers;

  [[nodiscard]] std::size_t item_count() const {
    return determine.size() + commits.size() + transfers.size() + visits.size() +
           exec_entries.size() + dead_gathers.size();
  }
};

/// What an execution channel's consensus decides on (kFull pipeline).
struct ChannelBlockPayload : sim::Payload {
  ChannelId channel;
  std::vector<std::pair<TxPtr, ExecResult>> entries;
};

/// kNoGlobalLogic: intermediate bundle relayed between home shards.
struct ContinuationPayload : sim::Payload {
  TxPtr tx;
  PortableState gathered;
  std::uint32_t next_step = 0;
  ShardId target;
  std::uint8_t hops = 0;  // >0: relay through the channel subgroup
  /// Stale continuations straddling an epoch cutover must not re-enter the
  /// new lattice (the boundary already force-aborted and requeued their tx).
  std::uint64_t epoch = 0;

  [[nodiscard]] std::uint32_t wire_size() const { return 128 + gathered.wire_size(); }
};

/// Content-derived dedup identity of a relayed protocol message: every
/// subgroup relay of the same certified outcome computes the same id, so in
/// rumor mode their spreads merge into one (DESIGN.md §12).
/// Type-salted pool-dedup key for a parked grant batch (results use their
/// already-mixed result_dedup key; the salt keeps the two spaces apart).
std::uint64_t grant_park_key(std::uint64_t key) {
  std::uint64_t state = key ^ 0xA1C3ULL;
  return splitmix64(state);
}

std::uint64_t relay_rumor_id(const sim::Message& msg) {
  switch (msg.type) {
    case sim::MsgType::kStateGrant: {
      const auto& p = sim::payload_as<GrantBatchPayload>(msg);
      return sim::rumor_id_mix(0xA1, p.source.value, p.shard_height, p.relay_target.value);
    }
    case sim::MsgType::kExecResult: {
      const auto& p = sim::payload_as<ResultBatchPayload>(msg);
      return sim::rumor_id_mix(0xA2, p.source.value, p.channel_height, p.target.value);
    }
    case sim::MsgType::kSubTxResult: {
      const auto& p = sim::payload_as<ContinuationPayload>(msg);
      return sim::rumor_id_mix(0xA3, p.tx->hash.prefix_u64(), p.next_step, p.target.value);
    }
    case sim::MsgType::kEpochVrf: {
      const auto& p = sim::payload_as<EpochContributionPayload>(msg);
      return sim::rumor_id_mix(0xA4, p.contribution.node.value, p.epoch);
    }
    default:
      return sim::rumor_id_mix(static_cast<std::uint64_t>(msg.type), msg.size_bytes);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

/// Shared gathering unit: collects grants per transaction until every
/// involved shard reported (used by channels in kFull, by execution shards in
/// kNoLattice, and by first home shards in kNoGlobalLogic).
struct GatherUnit {
  struct Pending {
    TxPtr tx;
    PortableState gathered;
    std::unordered_set<std::uint32_t> reported;  // shard ids
    std::size_t expected = 0;                    // 0 until the tx itself arrives
    bool abort = false;
    bool queued = false;  // already moved to ready
    SimTime first_seen = 0;
  };

  std::unordered_map<Hash256, Pending> pending;
  std::deque<Hash256> ready;
  /// Optional phase tracer: a tx becoming ready is the kGather checkpoint
  /// (the moment the execution site holds every involved shard's grant).
  telemetry::PhaseTracer* tracer = nullptr;
  std::uint32_t tracer_key = 0;  // shard / channel id for the trace event
  /// Transactions whose entry was consumed by a decision.  Late tx copies or
  /// stray re-grants must not resurrect a Pending for them: a resurrected
  /// entry eventually expires and emits a *second* abort/result for a tx the
  /// shards already settled.
  std::unordered_set<Hash256> done;
  /// Entries that expired with the tx itself never seen (grants only — a
  /// crashed or mid-reshuffle contact swallowed the client copy).  The shards
  /// that granted hold Phase-1 locks; a grant for one of these arriving after
  /// the expiry must be answered with an abort so those locks release.
  std::unordered_set<Hash256> expired_dead;
  std::unordered_set<std::uint64_t> late_abort_sent;  // (tx, source) answer dedup
  std::uint64_t late_abort_seq = 0;  // synthetic batch heights for the answers

  void finish(const Hash256& h) {
    pending.erase(h);
    done.insert(h);
  }

  /// finish() for an entry whose tx never arrived: remember it so late grants
  /// still get an abort answer instead of being swallowed by `done`.
  void finish_dead(const Hash256& h) {
    expired_dead.insert(h);
    finish(h);
  }

  void on_tx(const TxPtr& tx, std::size_t expected, SimTime now) {
    if (done.contains(tx->hash)) return;
    auto& p = pending[tx->hash];
    if (!p.tx) {
      p.tx = tx;
      p.expected = expected;
      if (p.first_seen == 0) p.first_seen = now;
    }
    maybe_ready(tx->hash, now);
  }

  void on_grant(const StateGrant& grant, SimTime now) {
    if (done.contains(grant.tx_hash)) return;
    auto& p = pending[grant.tx_hash];
    if (p.first_seen == 0) p.first_seen = now;
    if (p.reported.contains(grant.source.value)) return;
    p.reported.insert(grant.source.value);
    if (!grant.available) {
      p.abort = true;
    } else {
      p.gathered.merge(grant.states);
    }
    maybe_ready(grant.tx_hash, now);
  }

  void maybe_ready(const Hash256& h, SimTime now) {
    auto it = pending.find(h);
    if (it == pending.end()) return;
    Pending& p = it->second;
    if (p.queued || !p.tx || p.expected == 0) return;
    if (p.reported.size() >= p.expected) {
      p.queued = true;
      ready.push_back(h);
      if (tracer != nullptr)
        tracer->phase_event(h, telemetry::Phase::kGather, tracer_key, now);
    }
  }

  /// Moves timed-out entries to ready as aborts.  Entries whose tx never
  /// arrived (grants only) expire too: the granting shards hold Phase-1 locks
  /// that only an abort result fanned back to them can release, so letting a
  /// permanently half-gathered entry sit forever would leak those locks.
  void expire(SimTime now, SimTime timeout) {
    for (auto& [h, p] : pending) {
      if (p.queued || p.first_seen == 0) continue;
      if (now - p.first_seen >= timeout) {
        p.abort = true;
        p.queued = true;
        ready.push_back(h);
        if (tracer != nullptr)
          tracer->phase_event(h, telemetry::Phase::kGather, tracer_key, now);
      }
    }
  }
};

struct JengaSystem::ShardEngine {
  ShardId id;
  ledger::StateStore store;
  ledger::LockManager locks;
  ledger::Chain chain;
  ledger::LogicStore local_logic;  // kNoGlobalLogic: only home contracts

  std::deque<DetermineItem> determine;
  std::deque<CommitItem> commits;
  std::deque<TransferItem> transfers;
  std::deque<ExecVisit> visits;
  std::deque<std::pair<Hash256, std::vector<std::uint32_t>>> dead_gathers;
  GatherUnit gather;  // kNoLattice / kNoGlobalLogic

  std::unordered_set<Hash256> seen_client;  // dedup client submissions
  /// Txs whose outcome this shard already applied.  Per-shard, not global:
  /// between the first and last involved shard applying an outcome the tx is
  /// still in the global tracker, and a queued lock-retry firing in that
  /// window at an already-settled shard would re-lock state with no
  /// commit/abort left to release it.
  std::unordered_set<Hash256> finished;
  /// Abort fees waiting for the sender's account lock to clear (charging
  /// while another tx holds the account would be lost to that tx's commit).
  std::deque<std::pair<AccountId, std::uint64_t>> deferred_abort_fees;
  std::unordered_set<std::uint64_t> grant_dedup;   // (source<<32|height) keys
  std::unordered_set<std::uint64_t> result_dedup;  // (source<<32|height) keys
  /// 2PC destination-side recovery records, keyed by attempt-scoped hashes
  /// (twopc_key).  `twopc_credited`: the credit of that (tx, attempt) was
  /// applied — a probe re-sends the lost ack instead of re-crediting.
  /// `twopc_tombstones`: a force-abort settled the attempt as never-credited;
  /// its credit must never apply afterwards, even if the original prepare is
  /// still parked behind a lock or in flight.
  std::unordered_set<Hash256> twopc_credited;
  std::unordered_set<Hash256> twopc_tombstones;
  std::unordered_map<Hash256, std::uint32_t> continuation_dedup;  // tx -> max step seen

  std::uint64_t next_process_height = 0;
  struct Outcome {
    // (channel, message) pairs each subgroup member must rebroadcast.
    std::vector<std::pair<ChannelId, sim::Message>> to_channels;
  };
  std::unordered_map<std::uint64_t, Outcome> outcomes;

  explicit ShardEngine(ShardId s) : id(s), chain(s) {}
};

struct JengaSystem::ChannelEngine {
  ChannelId id;
  GatherUnit gather;
  std::unordered_set<std::uint64_t> grant_dedup;
  std::uint64_t next_process_height = 0;
  struct Outcome {
    std::vector<std::pair<ShardId, sim::Message>> to_shards;
  };
  std::unordered_map<std::uint64_t, Outcome> outcomes;

  explicit ChannelEngine(ChannelId c) : id(c) {}
};

// ---------------------------------------------------------------------------
// BFT apps
// ---------------------------------------------------------------------------

struct JengaSystem::ShardApp final : consensus::BftApp {
  JengaSystem* sys = nullptr;
  ShardEngine* engine = nullptr;
  NodeId node;

  std::optional<consensus::ConsensusValue> propose(std::uint64_t height) override;
  bool validate(std::uint64_t, const consensus::ConsensusValue&) override { return true; }
  void on_decide(std::uint64_t height, const consensus::ConsensusValue& value,
                 const consensus::QuorumCert& cert) override;
};

struct JengaSystem::ChannelApp final : consensus::BftApp {
  JengaSystem* sys = nullptr;
  ChannelEngine* engine = nullptr;
  NodeId node;

  std::optional<consensus::ConsensusValue> propose(std::uint64_t height) override;
  bool validate(std::uint64_t, const consensus::ConsensusValue&) override { return true; }
  void on_decide(std::uint64_t height, const consensus::ConsensusValue& value,
                 const consensus::QuorumCert& cert) override;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

JengaSystem::JengaSystem(sim::Simulator& sim, sim::Network& net, JengaConfig config,
                         Genesis genesis)
    : sim_(sim), net_(net), config_(config) {
  exec::EngineOptions eo;
  eo.workers = config_.exec_workers;
  exec_engine_ = std::make_unique<exec::Engine>(eo);

  const Hash256 epoch_randomness = crypto::sha256("jenga/epoch-0");
  lattice_ = std::make_unique<Lattice>(
      make_epoch_lattice(config_.num_shards, config_.nodes_per_shard, config_.seed,
                         epoch_randomness));

  for (const auto& logic : genesis.contracts) all_logic_.add(logic);

  // Per-shard state: accounts and contract states placed by hash.
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardEngine>(ShardId{s}));
    channels_.push_back(std::make_unique<ChannelEngine>(ChannelId{s}));
  }
  if (config_.storage_backend != StorageBackendKind::kNone) {
    for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
      std::unique_ptr<ledger::StorageBackend> backend;
      if (config_.storage_backend == StorageBackendKind::kDurable) {
        storage_envs_.push_back(std::make_unique<ledger::MemStorageEnv>());
        ledger::DurableOptions opts;
        opts.snapshot_interval = config_.storage_snapshot_interval;
        backend = std::make_unique<ledger::DurableBackend>(storage_envs_.back().get(),
                                                           std::move(opts));
      } else {
        backend = std::make_unique<ledger::InMemoryBackend>();
      }
      auto opened = ledger::StateStore::open(std::move(backend));
      // A fresh backend always recovers to an empty store; only a programming
      // error could fail here.
      shards_[s]->store = std::move(opened.value());
    }
  }
  for (std::uint64_t a = 0; a < genesis.num_accounts; ++a) {
    const ShardId s = ledger::shard_of_account(AccountId{a}, config_.num_shards);
    shards_[s.value]->store.create_account(AccountId{a}, genesis.initial_balance);
  }
  for (std::size_t c = 0; c < genesis.contracts.size(); ++c) {
    const ContractId id = genesis.contracts[c]->id;
    const ShardId s = ledger::shard_of_contract(id, config_.num_shards);
    shards_[s.value]->store.create_contract_state(
        id, c < genesis.initial_states.size() ? std::move(genesis.initial_states[c])
                                              : ledger::ContractState{});
    // kNoGlobalLogic keeps logic only on the home shard.
    shards_[s.value]->local_logic.add(genesis.contracts[c]);
  }

  initial_balance_ = genesis.num_accounts * genesis.initial_balance;

  const std::uint32_t n = lattice_->total_nodes();
  shard_replicas_.resize(n);
  channel_replicas_.resize(n);
  shard_apps_.resize(n);
  channel_apps_.resize(n);
  all_nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) all_nodes_.push_back(NodeId{i});

  if (config_.epoch_interval > 0) {
    // Every node is a beacon committee member; its VRF key is derived from
    // the system seed so runs are reproducible.
    std::vector<crypto::Point> committee;
    beacon_keys_.reserve(n);
    committee.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      beacon_keys_.push_back(
          crypto::keypair_from_seed(config_.seed * 0x9E3779B97F4A7C15ULL + 0xBEAC0ULL + i));
      committee.push_back(beacon_keys_.back().public_key);
    }
    epoch_mgr_ = std::make_unique<EpochManager>(std::move(committee),
                                                config_.epoch_vdf_iterations,
                                                config_.epoch_vdf_checkpoints);
  }

  // Dissemination subsystem (DESIGN.md §12).  The mesh gets its OWN rng
  // stream so naive/tree runs consume the exact network rng sequence they did
  // before this subsystem existed.
  if (net_.config().any_rumor() && net_.rumor_mesh() == nullptr) {
    mesh_ = std::make_unique<gossip::RumorMesh>(net_, gossip::RumorConfig{},
                                                Rng(config_.seed ^ 0x52554D52ULL));
    net_.set_rumor_mesh(mesh_.get());
  }
  if (net_.config().transport_for(sim::BroadcastKind::kRelay) == sim::Transport::kRumor &&
      net_.config().batch_window > 0) {
    batcher_ = std::make_unique<gossip::Batcher>(net_, net_.config().batch_window);
  }

  build_replicas();
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node{i};
    net_.register_node(node, [this, node](const sim::Message& m) { on_node_message(node, m); });
  }
}

std::uint64_t JengaSystem::shard_tag(ShardId s) const {
  return (epoch_ << 32) | kShardGroupTag | s.value;
}

std::uint64_t JengaSystem::channel_tag(ChannelId c) const {
  return (epoch_ << 32) | kChannelGroupTag | c.value;
}

std::size_t JengaSystem::min_contributions() const {
  if (config_.epoch_min_contributions != 0) return config_.epoch_min_contributions;
  return 2 * static_cast<std::size_t>(lattice_->total_nodes()) / 3 + 1;
}

void JengaSystem::build_replicas() {
  const bool run_channels = config_.pipeline == Pipeline::kFull;
  const std::uint32_t n = lattice_->total_nodes();

  // One BFT config per group, shared among its replicas.  Tags and vote-key
  // seeds are epoch-salted: heights restart at 0 after a reshuffle, so the
  // (tag, height) space — and the vote keys — must not collide across epochs.
  std::vector<std::shared_ptr<consensus::BftConfig>> shard_cfg(config_.num_shards);
  std::vector<std::shared_ptr<consensus::BftConfig>> channel_cfg(config_.num_shards);
  for (std::uint32_t g = 0; g < config_.num_shards; ++g) {
    auto sc = std::make_shared<consensus::BftConfig>();
    sc->members = lattice_->shard_members(ShardId{g});
    sc->group_tag = shard_tag(ShardId{g});
    sc->crypto_seed = (config_.seed ^ (0x51ED0000ULL + g)) + epoch_ * 0xD1B54A32D192ED03ULL;
    sc->view_timeout = config_.view_timeout;
    shard_cfg[g] = std::move(sc);
    auto cc = std::make_shared<consensus::BftConfig>();
    cc->members = lattice_->channel_members(ChannelId{g});
    cc->group_tag = channel_tag(ChannelId{g});
    cc->crypto_seed = (config_.seed ^ (0xC4A20000ULL + g)) + epoch_ * 0xD1B54A32D192ED03ULL;
    cc->view_timeout = config_.view_timeout;
    channel_cfg[g] = std::move(cc);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node{i};
    const Assignment asg = lattice_->assignment(node);
    auto sapp = std::make_unique<ShardApp>();
    sapp->sys = this;
    sapp->engine = shards_[asg.shard.value].get();
    sapp->node = node;
    shard_replicas_[i] = std::make_unique<consensus::Replica>(
        net_, node, shard_cfg[asg.shard.value], *sapp);
    shard_apps_[i] = std::move(sapp);

    if (run_channels) {
      auto capp = std::make_unique<ChannelApp>();
      capp->sys = this;
      capp->engine = channels_[asg.channel.value].get();
      capp->node = node;
      channel_replicas_[i] = std::make_unique<consensus::Replica>(
          net_, node, channel_cfg[asg.channel.value], *capp);
      channel_apps_[i] = std::move(capp);
    }

    // The adversary corrupts nodes, not seats: Byzantine roles survive the
    // reshuffle and are reapplied to the freshly built replicas.
    if (const auto it = byz_modes_.find(i); it != byz_modes_.end()) {
      shard_replicas_[i]->set_byzantine(it->second);
      if (channel_replicas_[i]) channel_replicas_[i]->set_byzantine(it->second);
    }
    if (telemetry_ != nullptr) {
      shard_replicas_[i]->set_telemetry(telemetry_);
      if (channel_replicas_[i]) channel_replicas_[i]->set_telemetry(telemetry_);
    }
    // Reshuffles rebuild replicas; the adaptive-timeout hook follows them.
    if (detector_ != nullptr) {
      consensus::Replica::ViewTimeoutHook hook =
          [d = detector_](NodeId self, NodeId leader, SimTime base) {
            return d->view_timeout(self, leader, base);
          };
      shard_replicas_[i]->set_view_timeout_hook(hook);
      if (channel_replicas_[i]) channel_replicas_[i]->set_view_timeout_hook(std::move(hook));
    }
  }
}

JengaSystem::~JengaSystem() {
  if (mesh_ && net_.rumor_mesh() == mesh_.get()) net_.set_rumor_mesh(nullptr);
}

void JengaSystem::start() {
  for (auto& r : shard_replicas_) r->start();
  for (auto& r : channel_replicas_)
    if (r) r->start();
  schedule_epoch_cycle();
}

void JengaSystem::set_node_silent(NodeId node) {
  set_node_byzantine(node, consensus::ByzantineMode::kSilent);
}

void JengaSystem::set_node_byzantine(NodeId node, consensus::ByzantineMode mode) {
  byz_modes_[node.value] = mode;  // survives reshuffles (see build_replicas)
  shard_replicas_[node.value]->set_byzantine(mode);
  if (channel_replicas_[node.value]) channel_replicas_[node.value]->set_byzantine(mode);
}

void JengaSystem::on_node_recovered(NodeId node) {
  shard_replicas_[node.value]->request_sync();
  if (channel_replicas_[node.value]) channel_replicas_[node.value]->request_sync();
  if (config_.model_state_sync) model_recovery_sync(node, /*use_durable_image=*/true);
}

void JengaSystem::storage_torn_write(ShardId s, std::uint64_t keep_bytes) {
  if (ledger::MemStorageEnv* env = storage_env(s))
    env->arm_torn_write("state.wal", keep_bytes);
}

void JengaSystem::storage_drop_fsyncs(ShardId s, bool drop) {
  if (ledger::MemStorageEnv* env = storage_env(s)) env->set_drop_fsyncs(drop);
}

void JengaSystem::storage_flip_bit(ShardId s, std::uint64_t bit_offset) {
  if (ledger::MemStorageEnv* env = storage_env(s)) env->flip_bit("state.wal", bit_offset);
}

void JengaSystem::model_recovery_sync(NodeId node, bool use_durable_image) {
  const Assignment asg = lattice_->assignment(node);
  ShardEngine& eng = *shards_[asg.shard.value];
  telemetry::MetricsRegistry* reg = telemetry_ == nullptr ? nullptr : &telemetry_->registry;
  ++sync_stats_.syncs;
  if (reg != nullptr) reg->counter("state_sync.syncs").inc();

  // 1. Reopen whatever survived on the node's disk.  The durable view is a
  //    clone of the synced images, so recovery never disturbs the live env.
  //    A corrupt image (bit flip, diverged root) is refused outright and the
  //    node syncs from scratch — never from poisoned state.
  ledger::StateStore recovered;
  std::unique_ptr<ledger::MemStorageEnv> view;
  ledger::MemStorageEnv* env = use_durable_image ? storage_env(asg.shard) : nullptr;
  if (env != nullptr) {
    view = env->durable_view();
    ledger::DurableOptions opts;
    opts.snapshot_interval = config_.storage_snapshot_interval;
    auto opened = ledger::StateStore::open(
        std::make_unique<ledger::DurableBackend>(view.get(), std::move(opts)));
    if (opened.ok()) {
      recovered = std::move(opened.value());
    } else {
      ++sync_stats_.recovery_refusals;
      if (reg != nullptr) reg->counter("storage.recovery_refusals").inc();
    }
  }

  const Hash256 group_root = eng.store.digest();
  if (recovered.digest() == group_root) {
    ++sync_stats_.already_current;
    if (reg != nullptr) reg->counter("state_sync.already_current").inc();
    return;
  }

  // 2. Proof-verified delta sync: peers serve a snapshot with a per-key
  //    Merkle proof under the advertised root.  A Byzantine peer tampers
  //    deterministically; verification rejects it and the node moves on.
  bool synced = false;
  for (NodeId peer : lattice_->shard_members(asg.shard)) {
    if (peer == node || net_.node_down(peer)) continue;
    ledger::SyncSnapshot snap = ledger::build_sync_snapshot(eng.store);
    const auto byz = byz_modes_.find(peer.value);
    if (byz != byz_modes_.end() && byz->second != consensus::ByzantineMode::kHonest)
      ledger::tamper_sync_snapshot(snap, node.value + peer.value);
    const ledger::SyncOutcome outcome = ledger::apply_sync_snapshot(snap, recovered);
    sync_stats_.keys_verified += outcome.keys_verified;
    sync_stats_.proof_rejections += outcome.proof_rejections;
    sync_stats_.bytes_synced += outcome.bytes;
    if (reg != nullptr) {
      reg->counter("state_sync.keys_verified").inc(outcome.keys_verified);
      reg->counter("state_sync.proof_rejections").inc(outcome.proof_rejections);
    }
    if (outcome.ok) {
      synced = true;
      break;
    }
  }

  // 3. Every proof-serving peer lied: unverified full copy, digest-checked.
  if (!synced) {
    ++sync_stats_.full_syncs;
    if (reg != nullptr) reg->counter("state_sync.full_syncs").inc();
    sync_stats_.bytes_synced += ledger::full_copy_sync(eng.store, recovered);
  }
  if (!(recovered.digest() == group_root)) {
    ++sync_stats_.root_mismatches;
    if (reg != nullptr) reg->counter("state_sync.root_mismatches").inc();
  }
}

void JengaSystem::set_failure_detector(security::FailureDetector* detector) {
  detector_ = detector;
  if (mesh_) {
    if (detector == nullptr) {
      mesh_->set_cadence_hook(nullptr);
    } else {
      // Hotter pull-repair while the network is degraded (base divisor when
      // healthy, so clean schedules stay bit-identical).
      mesh_->set_cadence_hook(
          [detector](std::uint32_t base) { return detector->pull_cadence(base); });
    }
  }
  for (std::size_t i = 0; i < shard_replicas_.size(); ++i) {
    consensus::Replica::ViewTimeoutHook hook;
    if (detector != nullptr)
      hook = [detector](NodeId self, NodeId leader, SimTime base) {
        return detector->view_timeout(self, leader, base);
      };
    shard_replicas_[i]->set_view_timeout_hook(hook);
    if (channel_replicas_[i]) channel_replicas_[i]->set_view_timeout_hook(hook);
  }
}

void JengaSystem::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  exec_engine_->set_metrics(t == nullptr ? nullptr : &t->registry);
  for (auto& r : shard_replicas_) r->set_telemetry(t);
  for (auto& r : channel_replicas_)
    if (r) r->set_telemetry(t);
  telemetry::PhaseTracer* tracer = t == nullptr ? nullptr : &t->tracer;
  for (auto& s : shards_) {
    s->gather.tracer = tracer;
    s->gather.tracer_key = s->id.value;
  }
  for (auto& c : channels_) {
    c->gather.tracer = tracer;
    c->gather.tracer_key = c->id.value;
  }
}

NodeId JengaSystem::shard_leader(ShardId s) const {
  const NodeId probe = lattice_->shard_members(s).front();
  return shard_replicas_[probe.value]->current_leader();
}

void JengaSystem::note_decide(std::uint64_t group_tag, std::uint64_t height,
                              const Hash256& digest) {
  const auto [it, inserted] = decide_ledger_.try_emplace({group_tag, height}, digest);
  if (!inserted && !(it->second == digest)) {
    ++divergent_decides_;
    if (telemetry_ != nullptr) telemetry_->flight.trigger("divergent.decide");
  }
}

void JengaSystem::relay_gossip(NodeId node, const std::vector<NodeId>& group,
                               const sim::Message& msg, sim::BroadcastKind kind) {
  if (net_.config().transport_for(kind) == sim::Transport::kRumor &&
      net_.rumor_mesh() != nullptr) {
    // The mesh's pull-digest repair is the retransmission path; blind
    // re-gossips would only amplify traffic (dup-drop eats them anyway).
    net_.broadcast(kind, node, group, relay_rumor_id(msg), msg,
                   sim::TrafficClass::kIntraShard);
    return;
  }
  net_.gossip(node, group, msg, sim::TrafficClass::kIntraShard);
  if (!net_.fault_profile().any()) return;
  for (const SimTime delay : {2 * kSecond, 8 * kSecond}) {
    sim_.schedule_after(delay, [this, node, group, msg] {
      if (net_.node_down(node)) return;
      net_.gossip(node, group, msg, sim::TrafficClass::kIntraShard);
    });
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<ShardId> JengaSystem::involved_shards(const Transaction& tx) const {
  std::vector<ShardId> out;
  auto add = [&out](ShardId s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  };
  if (tx.kind == TxKind::kTransfer) {
    add(ledger::shard_of_account(tx.sender, config_.num_shards));
    add(ledger::shard_of_account(tx.to, config_.num_shards));
    return out;
  }
  for (auto c : tx.contracts) add(ledger::shard_of_contract(c, config_.num_shards));
  for (auto a : tx.accounts) add(ledger::shard_of_account(a, config_.num_shards));
  return out;
}

NodeId JengaSystem::shard_contact(ShardId s) const {
  const auto& members = lattice_->shard_members(s);
  return members[contact_rr_ % members.size()];
}

NodeId JengaSystem::channel_contact(ChannelId c) const {
  const auto& members = lattice_->channel_members(c);
  return members[contact_rr_ % members.size()];
}

// ---------------------------------------------------------------------------
// Client submission
// ---------------------------------------------------------------------------

void JengaSystem::submit(TxPtr tx) {
  const SimTime now = sim_.now();
  ++stats_.submitted;
  if (stats_.first_submit_time == 0 && stats_.submitted == 1)
    stats_.first_submit_time = now;

  const auto involved = involved_shards(*tx);
  tracker_[tx->hash] = TrackEntry{now, static_cast<std::uint32_t>(involved.size()), false};
  tx_for_result_[tx->hash] = tx;
  if (telemetry_ != nullptr) telemetry_->tracer.on_submit(tx->hash, now);

  ++contact_rr_;
  auto payload = std::make_shared<TxPayload>();
  payload->tx = tx;
  sim::Message msg;
  msg.type = sim::MsgType::kClientTx;
  msg.size_bytes = tx->wire_size();
  msg.payload = std::move(payload);

  if (tx->kind == TxKind::kTransfer) {
    // Traditional 2PC path starts at the sender's shard only.
    net_.client_send(shard_contact(ledger::shard_of_account(tx->sender, config_.num_shards)),
                     msg);
    // The tracker counts both shards; same-shard transfers count one.
    return;
  }

  for (ShardId s : involved) net_.client_send(shard_contact(s), msg);
  // The execution site also needs the transaction itself.
  if (config_.pipeline == Pipeline::kFull) {
    net_.client_send(channel_contact(ledger::channel_of_tx(tx->hash, config_.num_shards)), msg);
  } else if (config_.pipeline == Pipeline::kNoLattice) {
    const ShardId exec{static_cast<std::uint32_t>(tx->hash.prefix_u64() % config_.num_shards)};
    net_.client_send(shard_contact(exec), msg);
  } else {
    // kNoGlobalLogic: the first step's home shard gathers and starts execution.
    const ShardId first = ledger::shard_of_contract(
        tx->contracts[tx->steps.front().contract_slot], config_.num_shards);
    net_.client_send(shard_contact(first), msg);
  }
}

// ---------------------------------------------------------------------------
// Node message dispatch
// ---------------------------------------------------------------------------

void JengaSystem::on_node_message(NodeId node, const sim::Message& msg) {
  switch (msg.type) {
    case sim::MsgType::kClientTx:
      handle_client_tx(node, msg);
      return;
    case sim::MsgType::kStateGrant:
      handle_grant_batch(node, msg);
      return;
    case sim::MsgType::kExecResult:
      handle_result_batch(node, msg);
      return;
    case sim::MsgType::kTwoPcPrepare:
    case sim::MsgType::kTwoPcCommit:
      handle_two_pc(node, msg);
      return;
    case sim::MsgType::kEpochVrf:
      handle_epoch_contribution(msg);
      return;
    case sim::MsgType::kBatchFrame:
      handle_batch_frame(node, msg);
      return;
    case sim::MsgType::kSubTxResult: {
      // kNoGlobalLogic continuation relay.
      const auto& p = sim::payload_as<ContinuationPayload>(msg);
      if (p.epoch != epoch_) return;  // straddled a reshuffle; tx was requeued
      const Assignment asg = lattice_->assignment(node);
      if (asg.shard == p.target) {
        ShardEngine& eng = *shards_[p.target.value];
        auto it = eng.continuation_dedup.find(p.tx->hash);
        if (it == eng.continuation_dedup.end() || it->second < p.next_step) {
          eng.continuation_dedup[p.tx->hash] = p.next_step;
          eng.visits.push_back(ExecVisit{p.tx, p.gathered, p.next_step});
        }
        if (p.hops > 0) {
          // Member of subgroup(target, channel): rebroadcast into the shard.
          sim::Message fwd = msg;
          auto fp = std::make_shared<ContinuationPayload>(p);
          fp->hops = 0;
          fwd.payload = std::move(fp);
          net_.broadcast(sim::BroadcastKind::kRelay, node, lattice_->shard_members(p.target),
                         relay_rumor_id(fwd), fwd, sim::TrafficClass::kIntraShard);
        }
      }
      return;
    }
    default:
      break;
  }
  // BFT traffic: offer to both replicas; group tags filter.
  shard_replicas_[node.value]->on_message(msg);
  if (channel_replicas_[node.value]) channel_replicas_[node.value]->on_message(msg);
}

void JengaSystem::handle_client_tx(NodeId node, const sim::Message& msg) {
  const auto& p = sim::payload_as<TxPayload>(msg);
  const TxPtr& tx = p.tx;
  const Assignment asg = lattice_->assignment(node);
  ShardEngine& eng = *shards_[asg.shard.value];
  bool ingested = false;  // did this node have any role for the tx?

  if (tx->kind == TxKind::kTransfer) {
    if (ledger::shard_of_account(tx->sender, config_.num_shards) == asg.shard) {
      ingested = true;
      if (!eng.seen_client.contains(tx->hash)) {
        eng.seen_client.insert(tx->hash);
        eng.transfers.push_back(TransferItem{tx, 0});
      }
    }
  } else {
    const auto involved = involved_shards(*tx);
    const bool shard_involved =
        std::find(involved.begin(), involved.end(), asg.shard) != involved.end();
    if (shard_involved) {
      ingested = true;
      if (!eng.seen_client.contains(tx->hash)) {
        eng.seen_client.insert(tx->hash);
        eng.determine.push_back(DetermineItem{tx, 0});
      }
    }

    switch (config_.pipeline) {
      case Pipeline::kFull: {
        const ChannelId target = ledger::channel_of_tx(tx->hash, config_.num_shards);
        if (asg.channel == target) {
          ingested = true;
          channels_[target.value]->gather.on_tx(tx, involved.size(), sim_.now());
        }
        break;
      }
      case Pipeline::kNoLattice: {
        const ShardId exec{
            static_cast<std::uint32_t>(tx->hash.prefix_u64() % config_.num_shards)};
        if (asg.shard == exec) {
          ingested = true;
          eng.gather.on_tx(tx, involved.size(), sim_.now());
        }
        break;
      }
      case Pipeline::kNoGlobalLogic: {
        const ShardId first = ledger::shard_of_contract(
            tx->contracts[tx->steps.front().contract_slot], config_.num_shards);
        if (asg.shard == first) {
          ingested = true;
          eng.gather.on_tx(tx, involved.size(), sim_.now());
        }
        break;
      }
    }
  }

  // A client copy in flight across an epoch cutover can land on a node whose
  // new assignment gives it no role for this tx (the submit-time contact
  // moved).  Re-route it once to the current contacts so the submission is
  // not lost; every downstream ingest point dedups, so a crossed requeue is
  // harmless.  Unreachable while reconfiguration is off (assignments never
  // change), so legacy runs are untouched.
  if (!ingested && tracker_.contains(tx->hash) && rerouted_.insert(tx->hash).second) {
    if (tx->kind == TxKind::kTransfer) {
      net_.client_send(shard_contact(ledger::shard_of_account(tx->sender, config_.num_shards)),
                       msg);
      return;
    }
    for (ShardId s : involved_shards(*tx)) net_.client_send(shard_contact(s), msg);
    if (config_.pipeline == Pipeline::kFull) {
      net_.client_send(channel_contact(ledger::channel_of_tx(tx->hash, config_.num_shards)),
                       msg);
    } else if (config_.pipeline == Pipeline::kNoLattice) {
      const ShardId exec{
          static_cast<std::uint32_t>(tx->hash.prefix_u64() % config_.num_shards)};
      net_.client_send(shard_contact(exec), msg);
    } else {
      const ShardId first = ledger::shard_of_contract(
          tx->contracts[tx->steps.front().contract_slot], config_.num_shards);
      net_.client_send(shard_contact(first), msg);
    }
  }
}

void JengaSystem::handle_grant_batch(NodeId node, const sim::Message& msg) {
  const auto& p = sim::payload_as<GrantBatchPayload>(msg);
  if (p.epoch != epoch_) return;  // straddled a reshuffle; its txs were requeued
  const Assignment asg = lattice_->assignment(node);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p.source.value) << 40) ^ p.shard_height;

  // Grants for an entry that already expired tx-less get an abort answer (so
  // the granting shard's Phase-1 locks release) instead of resurrecting it.
  auto ingest_grants = [&](GatherUnit& gather, std::uint32_t responder_group) {
    const SimTime now = sim_.now();
    for (const auto& g : p.grants) {
      if (gather.expired_dead.contains(g.tx_hash)) {
        answer_dead_grant(gather, responder_group, node, g);
        continue;
      }
      gather.on_grant(g, now);
    }
  };

  switch (config_.pipeline) {
    case Pipeline::kFull: {
      // Delivered inside the execution channel; ingest once per batch.
      ChannelEngine& ch = *channels_[asg.channel.value];
      if (ch.grant_dedup.contains(key)) return;
      if (try_park_for_pooled_verify(node, msg, channel_tag(asg.channel),
                                     grant_park_key(key), p.cert))
        return;
      if (!verify_relay_cert(p.cert, /*channel_group=*/false, p.source.value)) return;
      ch.grant_dedup.insert(key);
      ingest_grants(ch.gather, ch.id.value);
      break;
    }
    case Pipeline::kNoLattice: {
      // Arrived via client relay at the execution shard's contact node.
      ShardEngine& eng = *shards_[asg.shard.value];
      if (eng.grant_dedup.contains(key)) return;
      if (try_park_for_pooled_verify(node, msg, shard_tag(asg.shard),
                                     grant_park_key(key), p.cert))
        return;
      if (!verify_relay_cert(p.cert, /*channel_group=*/false, p.source.value)) return;
      eng.grant_dedup.insert(key);
      ingest_grants(eng.gather, eng.id.value);
      break;
    }
    case Pipeline::kNoGlobalLogic: {
      // Leg 1 lands on all channel members; only nodes of the target shard
      // ingest, and subgroup(relay_target, channel) rebroadcasts (leg 2).
      if (asg.shard.value != p.relay_target.value) return;
      ShardEngine& eng = *shards_[asg.shard.value];
      if (p.hops > 0) {
        auto fp = std::make_shared<GrantBatchPayload>(p);
        fp->hops = 0;
        sim::Message fwd = msg;
        fwd.payload = std::move(fp);
        net_.broadcast(sim::BroadcastKind::kRelay, node, lattice_->shard_members(asg.shard),
                       relay_rumor_id(fwd), fwd, sim::TrafficClass::kIntraShard);
      }
      if (eng.grant_dedup.contains(key)) return;
      if (try_park_for_pooled_verify(node, msg, shard_tag(asg.shard),
                                     grant_park_key(key), p.cert))
        return;
      if (!verify_relay_cert(p.cert, /*channel_group=*/false, p.source.value)) return;
      eng.grant_dedup.insert(key);
      ingest_grants(eng.gather, eng.id.value);
      break;
    }
  }
}

void JengaSystem::answer_dead_grant(GatherUnit& gather, std::uint32_t responder_group,
                                    NodeId node, const StateGrant& grant) {
  std::uint64_t key_state =
      grant.tx_hash.prefix_u64() ^ (0x9E3779B9ULL * (grant.source.value + 1));
  const std::uint64_t key = splitmix64(key_state);
  if (!gather.late_abort_sent.insert(key).second) return;  // answered already
  auto rp = std::make_shared<ResultBatchPayload>();
  rp->source = ChannelId{responder_group};
  // Synthetic batch height outside the real consensus-height space, so the
  // shard-side result dedup never collides with a real (source, height) pair.
  rp->channel_height = (1ULL << 40) + gather.late_abort_seq++;
  rp->epoch = epoch_;
  rp->target = grant.source;
  ExecResult r;
  r.tx_hash = grant.tx_hash;
  r.ok = false;
  rp->results.push_back(std::move(r));
  sim::Message m;
  m.type = sim::MsgType::kExecResult;
  m.from = node;
  m.size_bytes = rp->wire_size();
  m.payload = std::move(rp);
  relay_gossip(node, lattice_->shard_members(grant.source), m);
  if (lattice_->assignment(node).shard == grant.source) on_node_message(node, m);
}

void JengaSystem::handle_result_batch(NodeId node, const sim::Message& msg) {
  const auto& p = sim::payload_as<ResultBatchPayload>(msg);
  if (p.epoch != epoch_) return;  // straddled a reshuffle; its txs were requeued
  const Assignment asg = lattice_->assignment(node);
  if (asg.shard != p.target) return;  // channel witnesses just observe
  ShardEngine& eng = *shards_[asg.shard.value];
  if (p.hops > 0) {
    // Member of subgroup(target, channel): rebroadcast inside the shard.
    auto fp = std::make_shared<ResultBatchPayload>(p);
    fp->hops = 0;
    sim::Message fwd = msg;
    fwd.payload = std::move(fp);
    net_.broadcast(sim::BroadcastKind::kRelay, node, lattice_->shard_members(p.target),
                   relay_rumor_id(fwd), fwd, sim::TrafficClass::kIntraShard);
  }
  std::uint64_t key = 0x9E3779B97F4A7C15ULL * (p.source.value + 1) +
                      0xC2B2AE3D27D4EB4FULL * (p.target.value + 1) + p.channel_height;
  key = splitmix64(key);
  if (eng.result_dedup.contains(key)) return;
  if (try_park_for_pooled_verify(node, msg, shard_tag(asg.shard), key, p.cert)) return;
  // Results are certified by the group that decided them: the channel in the
  // full pipeline, a state shard otherwise.
  if (!verify_relay_cert(p.cert, config_.pipeline == Pipeline::kFull, p.source.value)) return;
  eng.result_dedup.insert(key);
  for (const auto& r : p.results) {
    CommitItem item;
    item.ok = r.ok;
    for (const auto& [s, st] : r.per_shard_updates) {
      if (s == eng.id) item.updates = st;  // this shard's slice only
    }
    const auto tx_it = tx_for_result_.find(r.tx_hash);
    if (tx_it == tx_for_result_.end()) continue;  // already fully finished
    item.tx = tx_it->second;
    eng.commits.push_back(std::move(item));
  }
}

Hash256 JengaSystem::twopc_key(const char* tag, const Hash256& h, std::uint32_t attempt) {
  // Attempt 0 hashes exactly the pre-recovery key, so runs that never retry
  // keep bit-identical dedup state.
  if (attempt == 0) return crypto::sha256_tagged(tag, std::span(h.bytes));
  std::array<std::uint8_t, 36> buf;
  std::copy(h.bytes.begin(), h.bytes.end(), buf.begin());
  buf[32] = static_cast<std::uint8_t>(attempt);
  buf[33] = static_cast<std::uint8_t>(attempt >> 8);
  buf[34] = static_cast<std::uint8_t>(attempt >> 16);
  buf[35] = static_cast<std::uint8_t>(attempt >> 24);
  return crypto::sha256_tagged(tag, std::span<const std::uint8_t>(buf));
}

void JengaSystem::send_two_pc(NodeId from, ShardId dest, const sim::Message& msg) {
  const NodeId primary = shard_contact(dest);
  if (detector_ != nullptr && detector_->armed() && detector_->suspect(from, primary)) {
    const auto& members = lattice_->shard_members(dest);
    if (members.size() > 1) {
      // Hedge: duplicate the leg to the deterministically-next member of the
      // destination group (no rng draw).  Both copies land inside the right
      // shard, so whichever arrives second dies on the attempt-scoped dedup.
      std::size_t slot = 0;
      for (std::size_t i = 0; i < members.size(); ++i)
        if (members[i].value == primary.value) {
          slot = i;
          break;
        }
      const NodeId backup = members[(slot + 1) % members.size()];
      ++recovery_stats_.hedged_sends;
      if (telemetry_ != nullptr)
        telemetry_->registry.counter("recovery.hedged_sends").inc();
      net_.send(from, backup, msg, sim::TrafficClass::kCrossShard);
    }
  }
  net_.send(from, primary, msg, sim::TrafficClass::kCrossShard);
}

void JengaSystem::handle_two_pc(NodeId node, const sim::Message& msg) {
  const auto& p = sim::payload_as<TwoPcPayload>(msg);
  const Assignment asg = lattice_->assignment(node);
  // 2PC legs are deliberately not epoch-tagged (a prepared transfer already
  // debited the sender), but a reshuffle can move the contact the leg was
  // addressed to; forward it to a current member of the shard that must
  // process this stage.  Normal operation never takes this hop.
  const ShardId want = p.commit
                           ? ledger::shard_of_account(p.tx->sender, config_.num_shards)
                           : ledger::shard_of_account(p.tx->to, config_.num_shards);
  if (asg.shard != want) {
    send_two_pc(node, want, msg);
    return;
  }
  if (p.op != TwoPcPayload::Op::kLeg) {
    handle_two_pc_recovery(node, msg);
    return;
  }
  ShardEngine& eng = *shards_[asg.shard.value];
  const std::uint8_t stage = p.commit ? 2 : 1;
  // Dedup: a (tx, stage, attempt) triple enters a shard's queue once.
  const Hash256 dk = twopc_key(p.commit ? "2pc-c" : "2pc-p", p.tx->hash, p.attempt);
  if (eng.seen_client.contains(dk)) return;
  eng.seen_client.insert(dk);
  eng.transfers.push_back(TransferItem{p.tx, stage, p.attempt});
}

void JengaSystem::handle_two_pc_recovery(NodeId node, const sim::Message& msg) {
  const auto& p = sim::payload_as<TwoPcPayload>(msg);
  const Assignment asg = lattice_->assignment(node);
  ShardEngine& eng = *shards_[asg.shard.value];
  using Op = TwoPcPayload::Op;
  const Hash256& h = p.tx->hash;
  const ShardId sender_shard = ledger::shard_of_account(p.tx->sender, config_.num_shards);

  auto reply = [&](Op op) {
    auto pp = std::make_shared<TwoPcPayload>();
    pp->tx = p.tx;
    pp->commit = true;  // routes to the coordinator's (sender) shard
    pp->op = op;
    pp->attempt = p.attempt;
    sim::Message m;
    m.type = sim::MsgType::kTwoPcCommit;
    m.from = node;
    m.size_bytes = 160;
    m.payload = std::move(pp);
    send_two_pc(node, sender_shard, m);
  };

  switch (p.op) {
    case Op::kProbe: {
      // Destination side.  Credit already applied -> the ack must have been
      // lost; re-send it (the coordinator's "2pc-c" dedup absorbs a race
      // with the original).  Otherwise adopt the probe as the prepare,
      // unless the round was already queued or force-settled.
      if (eng.twopc_credited.contains(twopc_key("2pc-done", h, p.attempt))) {
        reply(Op::kLeg);  // a plain re-ack; stage-2 dedup absorbs any race
        break;
      }
      if (eng.twopc_tombstones.contains(twopc_key("2pc-tomb", h, p.attempt))) break;
      const Hash256 dk = twopc_key("2pc-p", h, p.attempt);
      if (eng.seen_client.contains(dk)) break;  // queued (parked behind a lock)
      eng.seen_client.insert(dk);
      eng.transfers.push_back(TransferItem{p.tx, 1, p.attempt});
      break;
    }
    case Op::kAbortQuery: {
      // Destination side: settle the attempt NOW, one way or the other.
      if (eng.twopc_credited.contains(twopc_key("2pc-done", h, p.attempt))) {
        reply(Op::kCredited);
        break;
      }
      // Tombstone first: after this reply the coordinator refunds the debit,
      // so the credit must be dead even if the original prepare is still in
      // flight (dedup key) or parked in the transfer queue (stage-1 check).
      eng.twopc_tombstones.insert(twopc_key("2pc-tomb", h, p.attempt));
      eng.seen_client.insert(twopc_key("2pc-p", h, p.attempt));
      reply(Op::kNeverCredited);
      break;
    }
    case Op::kCredited: {
      // Coordinator side: the destination vouches the credit applied — treat
      // this as the lost ack (unless the real one landed meanwhile).
      const auto it = twopc_inflight_.find(h);
      if (it == twopc_inflight_.end() || it->second.attempt != p.attempt) break;
      const Hash256 dk = twopc_key("2pc-c", h, p.attempt);
      if (eng.seen_client.contains(dk)) break;
      eng.seen_client.insert(dk);
      ++recovery_stats_.acks_recovered;
      if (telemetry_ != nullptr)
        telemetry_->registry.counter("recovery.acks_recovered").inc();
      eng.transfers.push_back(TransferItem{p.tx, 2, p.attempt});
      break;
    }
    case Op::kNeverCredited: {
      // Coordinator side: the attempt is dead (tombstoned at the
      // destination).  Refund the debit; the stage-3 item retries the
      // transfer as a fresh attempt or terminally aborts it.
      const auto it = twopc_inflight_.find(h);
      if (it == twopc_inflight_.end() || it->second.attempt != p.attempt) break;
      twopc_inflight_.erase(it);
      // A kCredited ack for this attempt can no longer exist (the
      // destination only answers never-credited when nothing was applied,
      // and the tombstone blocks any later credit), so erasing here cannot
      // strand a commit.
      eng.transfers.push_back(TransferItem{p.tx, 3, p.attempt});
      break;
    }
    case Op::kLeg:
      break;
  }
}

// ---------------------------------------------------------------------------
// Execution (the VM side of Phase 2)
// ---------------------------------------------------------------------------

std::vector<std::pair<TxPtr, ExecResult>> JengaSystem::run_gathered_batch(
    GatherUnit& gather, std::size_t limit) {
  const std::size_t count = std::min(limit, gather.ready.size());
  std::vector<std::pair<TxPtr, ExecResult>> out(count);

  // Per-batch logic resolution: each distinct contract id is looked up once,
  // instead of once per transaction that touches it.
  std::unordered_map<ContractId, const vm::ContractLogic*> logic_memo;
  std::vector<exec::Task> tasks;
  std::vector<std::size_t> task_slot;  // task index -> out index

  for (std::size_t i = 0; i < count; ++i) {
    const Hash256& h = gather.ready[i];
    ExecResult& result = out[i].second;
    result.tx_hash = h;
    const auto it = gather.pending.find(h);
    if (it == gather.pending.end()) {
      result.ok = false;
      continue;
    }
    auto& pending = it->second;
    out[i].first = pending.tx;
    if (pending.abort || !pending.tx) {
      result.ok = false;
      continue;
    }
    const Transaction& tx = *pending.tx;

    // Fee prologue: charge the declared sender inside the bundle.  The
    // pending entry keeps its gathered copy (re-proposals re-execute).
    PortableState input = pending.gathered;
    auto fee_it = input.balances.find(tx.sender);
    if (fee_it == input.balances.end() || fee_it->second < tx.fee) {
      result.ok = false;
      continue;
    }
    fee_it->second -= tx.fee;

    exec::Task task;
    task.id = tx.hash;
    task.sender = tx.sender;
    task.logic.reserve(tx.contracts.size());
    for (auto c : tx.contracts) {
      auto [lit, inserted] = logic_memo.try_emplace(c, nullptr);
      if (inserted) lit->second = all_logic_.get(c);
      task.logic.push_back(lit->second);
    }
    task.steps_view = tx.steps;
    task.limits.gas_limit = tx.gas_limit;
    task.input = std::move(input);
    task.access = exec::declared_access(tx);
    tasks.push_back(std::move(task));
    task_slot.push_back(i);
  }

  // Phase-1 locks make the gathered bundles disjoint, so every schedule the
  // engine finds commits to the same per-tx outputs; effects are applied in
  // canonical ready order below regardless of worker interleaving.
  std::vector<exec::TaskResult> results = exec_engine_->run_batch(std::move(tasks));
  for (std::size_t k = 0; k < results.size(); ++k) {
    ExecResult& result = out[task_slot[k]].second;
    if (!results[k].vm.ok()) {
      result.ok = false;
      continue;
    }
    result.per_shard_updates = split_per_shard(std::move(results[k].output));
  }
  return out;
}

std::vector<std::pair<ShardId, PortableState>> JengaSystem::split_per_shard(
    PortableState updated) const {
  std::map<std::uint32_t, PortableState> slices;
  for (auto& [c, st] : updated.contracts)
    slices[ledger::shard_of_contract(c, config_.num_shards).value].contracts[c] = std::move(st);
  for (auto& [a, bal] : updated.balances)
    slices[ledger::shard_of_account(a, config_.num_shards).value].balances[a] = bal;
  std::vector<std::pair<ShardId, PortableState>> out;
  out.reserve(slices.size());
  for (auto& [s, st] : slices) out.emplace_back(ShardId{s}, std::move(st));
  return out;
}

// ---------------------------------------------------------------------------
// Shard proposal assembly
// ---------------------------------------------------------------------------

namespace {

/// Proposal value wrapper: digest + wire size over the batch contents.
consensus::ConsensusValue wrap_value(std::string_view tag, std::uint64_t group,
                                     std::uint64_t height, std::vector<Hash256> item_hashes,
                                     std::uint32_t size_bytes,
                                     std::shared_ptr<const sim::Payload> data) {
  consensus::ConsensusValue v;
  crypto::Sha256 h;
  h.update(tag);
  h.update_u64(group);
  h.update_u64(height);
  for (const auto& x : item_hashes) h.update(x);
  v.digest = h.finish();
  v.size_bytes = size_bytes;
  v.data = std::move(data);
  return v;
}

}  // namespace

std::optional<consensus::ConsensusValue> JengaSystem::shard_propose(ShardEngine& eng,
                                                                    std::uint64_t height) {
  // Watchdog piggybacks on proposal cadence: no dedicated timer, so idle
  // simulations still drain (run_until_idle), yet any inflight 2PC round is
  // re-examined at least once per consensus round.
  twopc_watchdog_scan();
  if (config_.pipeline != Pipeline::kFull)
    eng.gather.expire(sim_.now(), config_.pending_timeout);

  if (config_.pipeline == Pipeline::kNoGlobalLogic) {
    // Fully gathered transactions start their multi-round execution here
    // (this shard is the first step's home).  Draining queue-to-queue is
    // idempotent across re-proposals: items stay ordered either way.
    while (!eng.gather.ready.empty()) {
      const Hash256 h = eng.gather.ready.front();
      eng.gather.ready.pop_front();
      auto it = eng.gather.pending.find(h);
      if (it == eng.gather.pending.end()) continue;
      if (!it->second.tx) {
        // Expired with the tx never seen: fan an abort to the shards that
        // granted (recorded sorted for determinism) via the decision.
        std::vector<std::uint32_t> sources(it->second.reported.begin(),
                                           it->second.reported.end());
        std::sort(sources.begin(), sources.end());
        eng.dead_gathers.emplace_back(h, std::move(sources));
        eng.gather.finish_dead(h);
        continue;
      }
      eng.visits.push_back(
          ExecVisit{it->second.tx, std::move(it->second.gathered), 0, it->second.abort});
      eng.gather.finish(h);
    }
  }

  auto payload = std::make_shared<ShardBlockPayload>();
  payload->shard = eng.id;
  std::size_t budget = config_.max_block_items;
  std::vector<Hash256> hashes;
  std::uint32_t size = 128;

  // During an epoch drain window shards stop admitting new Phase-1 work:
  // queued determinations wait (the boundary requeues their txs), while
  // everything already granted runs down through the other queues.
  if (!draining_) {
    for (std::size_t i = 0; i < eng.determine.size() && budget > 0; ++i, --budget) {
      payload->determine.push_back(eng.determine[i]);
      hashes.push_back(eng.determine[i].tx->hash);
      size += eng.determine[i].tx->wire_size();
    }
  }
  for (std::size_t i = 0; i < eng.commits.size() && budget > 0; ++i, --budget) {
    payload->commits.push_back(eng.commits[i]);
    hashes.push_back(eng.commits[i].tx->hash);
    size += eng.commits[i].wire_size();
  }
  for (std::size_t i = 0; i < eng.transfers.size() && budget > 0; ++i, --budget) {
    payload->transfers.push_back(eng.transfers[i]);
    hashes.push_back(eng.transfers[i].tx->hash);
    size += ledger::kTxWireBytes;
  }
  for (std::size_t i = 0; i < eng.visits.size() && budget > 0; ++i, --budget) {
    payload->visits.push_back(eng.visits[i]);
    hashes.push_back(eng.visits[i].tx->hash);
    size += 128 + eng.visits[i].gathered.wire_size();
  }
  for (std::size_t i = 0; i < eng.dead_gathers.size() && budget > 0; ++i, --budget) {
    payload->dead_gathers.push_back(eng.dead_gathers[i]);
    hashes.push_back(eng.dead_gathers[i].first);
    size += 96;
  }
  if (config_.pipeline == Pipeline::kNoLattice) {
    // This shard is also an execution site: execute gathered-and-ready txs as
    // one conflict-scheduled batch (src/exec/), committing in ready order.
    auto batch = run_gathered_batch(eng.gather, budget);
    budget -= batch.size();
    for (auto& [tx, result] : batch) {
      hashes.push_back(result.tx_hash);
      size += 64 + result.wire_size();
      payload->exec_entries.emplace_back(std::move(tx), std::move(result));
    }
  }

  if (payload->item_count() == 0) return std::nullopt;
  const std::uint64_t tag = shard_tag(eng.id);
  auto value = wrap_value("jenga/shard-block", tag, height, std::move(hashes), size, payload);
  value.exec_delay =
      kLightItemCpu * static_cast<SimTime>(payload->determine.size() +
                                           payload->commits.size() +
                                           payload->transfers.size() +
                                           payload->dead_gathers.size()) +
      kExecItemCpu *
          static_cast<SimTime>(payload->visits.size() + payload->exec_entries.size());
  return value;
}

// ---------------------------------------------------------------------------
// Shard decision processing
// ---------------------------------------------------------------------------

void JengaSystem::shard_decide(ShardEngine& eng, NodeId node, std::uint64_t height,
                               const consensus::ConsensusValue& value,
                               const consensus::QuorumCert& cert) {
  note_decide(shard_tag(eng.id), height, value.digest);
  const auto* payload = dynamic_cast<const ShardBlockPayload*>(value.data.get());
  if (payload == nullptr) return;

  if (height >= eng.next_process_height) {
    eng.next_process_height = height + 1;
    const SimTime now = sim_.now();
    ShardEngine::Outcome outcome;

    // --- Phase 1: state determination ----------------------------------
    // Group grants by the destination that must receive them.
    std::map<std::uint32_t, GrantBatchPayload> batches;  // key: channel or shard
    for (const DetermineItem& det : payload->determine) {
      const TxPtr& tx = det.tx;
      // The tx may have resolved while this item waited in the mempool (e.g.
      // another shard exhausted its lock retries and the channel's abort
      // already reached us).  Granting now would lock state for a dead tx —
      // with no commit/abort ever coming to release it.  `finished` covers
      // the window where this shard settled the tx but the tracker still
      // waits on other shards.
      if (!tracker_.contains(tx->hash) || eng.finished.contains(tx->hash)) continue;
      StateGrant grant;
      grant.tx_hash = tx->hash;
      grant.source = eng.id;
      std::vector<ContractId> local_contracts;
      std::vector<AccountId> local_accounts;
      for (auto c : tx->contracts)
        if (ledger::shard_of_contract(c, config_.num_shards) == eng.id)
          local_contracts.push_back(c);
      for (auto a : tx->accounts)
        if (ledger::shard_of_account(a, config_.num_shards) == eng.id)
          local_accounts.push_back(a);

      bool ok = true;
      for (auto c : local_contracts) {
        if (!eng.locks.lock_contract(c, tx->hash)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (auto a : local_accounts) {
          if (!eng.locks.lock_account(a, tx->hash)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        // Partial acquisition: drop whatever this tx managed to lock.
        eng.locks.release_all(tx->hash);
        if (det.retries < config_.max_lock_retries) {
          // Locked by another in-flight tx: retry from the mempool in a
          // later block rather than aborting outright.
          eng.determine.push_back(DetermineItem{tx, det.retries + 1});
          continue;
        }
        grant.available = false;
      } else {
        for (auto c : local_contracts) {
          const auto* st = eng.store.contract_state(c);
          grant.states.contracts[c] = st ? *st : ledger::ContractState{};
        }
        for (auto a : local_accounts)
          grant.states.balances[a] = eng.store.balance(a).value_or(0);
      }

      if (telemetry_ != nullptr)
        telemetry_->tracer.phase_event(tx->hash, telemetry::Phase::kStateLock,
                                       eng.id.value, now);

      std::uint32_t dest = 0;
      switch (config_.pipeline) {
        case Pipeline::kFull:
          dest = ledger::channel_of_tx(tx->hash, config_.num_shards).value;
          break;
        case Pipeline::kNoLattice:
          dest = static_cast<std::uint32_t>(tx->hash.prefix_u64() % config_.num_shards);
          break;
        case Pipeline::kNoGlobalLogic:
          dest = ledger::shard_of_contract(tx->contracts[tx->steps.front().contract_slot],
                                           config_.num_shards)
                     .value;
          break;
      }
      auto& batch = batches[dest];
      batch.source = eng.id;
      batch.shard_height = height;
      batch.epoch = epoch_;
      batch.cert = cert;  // receivers verify before ingesting
      batch.grants.push_back(std::move(grant));
    }

    for (auto& [dest, batch] : batches) {
      auto bp = std::make_shared<GrantBatchPayload>(std::move(batch));
      sim::Message msg;
      msg.type = sim::MsgType::kStateGrant;
      msg.from = node;
      msg.size_bytes = bp->wire_size();
      switch (config_.pipeline) {
        case Pipeline::kFull:
          msg.payload = std::move(bp);
          outcome.to_channels.emplace_back(ChannelId{dest}, std::move(msg));
          break;
        case Pipeline::kNoLattice:
          msg.payload = std::move(bp);
          if (ShardId{dest} == eng.id) {
            // The execution site is this very shard: ingest locally.
            for (const auto& g :
                 sim::payload_as<GrantBatchPayload>(msg).grants)
              eng.gather.on_grant(g, now);
          } else {
            net_.send_via_relay(node, shard_contact(ShardId{dest}), msg,
                                sim::TrafficClass::kCrossShard);
          }
          break;
        case Pipeline::kNoGlobalLogic: {
          bp->relay_target = ShardId{dest};
          bp->hops = 1;
          msg.payload = std::move(bp);
          if (ShardId{dest} == eng.id) {
            for (const auto& g : sim::payload_as<GrantBatchPayload>(msg).grants)
              eng.gather.on_grant(g, now);
          } else {
            // Travel via the subgroup into each tx's channel.  All grants in
            // one batch share the same first shard; their channels can
            // differ, so route per grant's tx channel — use the first one
            // (batches are per destination shard; channel relaying only
            // needs SOME channel that overlaps both shards, and every
            // channel does).  Pick the batch's canonical relay channel from
            // the destination shard id for determinism.
            const ChannelId via{dest % config_.num_shards};
            outcome.to_channels.emplace_back(via, std::move(msg));
          }
          break;
        }
      }
    }

    // --- Phase 3: commits ----------------------------------------------
    std::vector<Hash256> committed;
    std::uint64_t body_bytes = 0;
    for (const CommitItem& item : payload->commits) {
      const Transaction& tx = *item.tx;
      // Unlock everything this shard holds for the tx.  Release by owner, not
      // by enumerating the footprint: a footprint walk silently leaks any
      // lock the enumeration misses, and a leaked lock wedges that state key
      // forever.
      eng.locks.release_all(tx.hash);
      // One outcome per tx per shard: under heavy loss a settled tx can come
      // back (a resurrected gather entry re-expiring, say), and applying a
      // second outcome double-counts the fee or overwrites newer state with
      // a stale snapshot.
      if (!eng.finished.insert(tx.hash).second) continue;
      if (telemetry_ != nullptr)
        telemetry_->tracer.phase_event(tx.hash, telemetry::Phase::kCommitApply,
                                       eng.id.value, now);

      const bool sender_local =
          ledger::shard_of_account(tx.sender, config_.num_shards) == eng.id;
      if (item.ok) {
        for (const auto& [c, st] : item.updates.contracts)
          eng.store.set_contract_state(c, st);
        for (const auto& [a, bal] : item.updates.balances) eng.store.set_balance(a, bal);
        if (sender_local) stats_.fees_charged += tx.fee;  // deducted inside updates
        committed.push_back(tx.hash);
        body_bytes += tx.wire_size();
      } else if (sender_local) {
        // Abort: the fee is still deducted (paper §V-C, Transaction Fee).
        // If another in-flight tx holds the sender's account, its gathered
        // snapshot predates this deduction and its commit would silently
        // overwrite it — defer the charge until the lock clears.
        if (eng.locks.account_locked(tx.sender)) {
          eng.deferred_abort_fees.emplace_back(tx.sender, tx.fee);
        } else {
          const std::uint64_t bal = eng.store.balance(tx.sender).value_or(0);
          const std::uint64_t charge = std::min(bal, tx.fee);
          eng.store.set_balance(tx.sender, bal - charge);
          stats_.fees_charged += charge;
        }
      }
      tx_shard_finished(tx.hash, item.ok);
    }

    // Charge deferred abort fees whose account lock has since been released
    // (commits above are the only place locks clear, so retry per block).
    for (std::size_t n = eng.deferred_abort_fees.size(); n-- > 0;) {
      const auto [acct, fee] = eng.deferred_abort_fees.front();
      eng.deferred_abort_fees.pop_front();
      if (eng.locks.account_locked(acct)) {
        eng.deferred_abort_fees.emplace_back(acct, fee);
        continue;
      }
      const std::uint64_t bal = eng.store.balance(acct).value_or(0);
      const std::uint64_t charge = std::min(bal, fee);
      eng.store.set_balance(acct, bal - charge);
      stats_.fees_charged += charge;
    }

    // --- Transfers (traditional 2PC path, §V-D) -------------------------
    for (const TransferItem& item : payload->transfers) {
      const Transaction& tx = *item.tx;
      const ShardId dest = ledger::shard_of_account(tx.to, config_.num_shards);
      if (telemetry_ != nullptr) {
        // 2PC stages map onto the phase partition: debit = lock acquisition,
        // credit = the "execution", finalize = commit application.
        const telemetry::Phase ph = item.stage == 0   ? telemetry::Phase::kStateLock
                                    : item.stage == 1 ? telemetry::Phase::kExecute
                                                      : telemetry::Phase::kCommitApply;
        telemetry_->tracer.phase_event(tx.hash, ph, eng.id.value, now);
      }
      switch (item.stage) {
        case 0: {  // debit at the sender's shard
          if (draining_) break;  // parked: the epoch boundary requeues it
          // Transfers mutate balances directly, so they must honor the same
          // Phase-1 account locks that contract commits write gathered
          // snapshots back under — a debit/credit interleaved between gather
          // and commit would be silently undone by the absolute write-back.
          // Parked behind the lock: re-propose in a later block (the non-empty
          // queue keeps the shard proposing until the holder commits/aborts).
          if (eng.locks.account_locked(tx.sender) ||
              (dest == eng.id && eng.locks.account_locked(tx.to))) {
            eng.transfers.push_back(item);
            break;
          }
          const auto bal = eng.store.balance(tx.sender);
          if (!bal || *bal < tx.amount) {
            tx_shard_finished(tx.hash, false);
            if (dest != eng.id) tx_shard_finished(tx.hash, false);
            break;
          }
          eng.store.set_balance(tx.sender, *bal - tx.amount);
          if (dest == eng.id) {
            eng.store.set_balance(tx.to, eng.store.balance(tx.to).value_or(0) + tx.amount);
            committed.push_back(tx.hash);
            body_bytes += tx.wire_size();
            tx_shard_finished(tx.hash, true);
          } else {
            // The debit is applied; until the 2PC round finalizes the tx must
            // not be force-aborted (the cutover waits for this set to empty).
            TwoPcEntry ent;
            ent.since = sim_.now();
            ent.attempt = item.attempt;
            ent.coordinator = node;
            ent.tx = item.tx;
            twopc_inflight_.insert_or_assign(tx.hash, std::move(ent));
            auto pp = std::make_shared<TwoPcPayload>();
            pp->tx = item.tx;
            pp->commit = false;
            pp->attempt = item.attempt;
            sim::Message m;
            m.type = sim::MsgType::kTwoPcPrepare;
            m.from = node;
            m.size_bytes = ledger::kTxWireBytes + 96;
            m.payload = std::move(pp);
            send_two_pc(node, dest, m);
          }
          break;
        }
        case 1: {  // credit at the destination shard
          // A force-abort already settled this attempt as never-credited:
          // the coordinator refunded the debit, so crediting now would mint.
          if (eng.twopc_tombstones.contains(twopc_key("2pc-tomb", tx.hash, item.attempt)))
            break;
          if (eng.locks.account_locked(tx.to)) {  // same hazard as the debit
            eng.transfers.push_back(item);
            break;
          }
          eng.store.set_balance(tx.to, eng.store.balance(tx.to).value_or(0) + tx.amount);
          eng.twopc_credited.insert(twopc_key("2pc-done", tx.hash, item.attempt));
          committed.push_back(tx.hash);
          body_bytes += tx.wire_size();
          tx_shard_finished(tx.hash, true);
          auto pp = std::make_shared<TwoPcPayload>();
          pp->tx = item.tx;
          pp->commit = true;
          pp->attempt = item.attempt;
          sim::Message m;
          m.type = sim::MsgType::kTwoPcCommit;
          m.from = node;
          m.size_bytes = 160;
          m.payload = std::move(pp);
          send_two_pc(node, ledger::shard_of_account(tx.sender, config_.num_shards), m);
          break;
        }
        case 2: {  // finalize at the sender's shard after the ack
          const auto it2 = twopc_inflight_.find(tx.hash);
          // Stale ack of an attempt the ladder already settled: drop.  The
          // attempt-scoped dedup key upstream makes this unreachable in
          // practice; the guard keeps finalize idempotent regardless.
          if (it2 == twopc_inflight_.end() || it2->second.attempt != item.attempt) break;
          if (it2->second.flagged) {
            ++recovery_stats_.resolved;
            recovery_stats_.last_resolved_at = sim_.now();
            if (telemetry_ != nullptr)
              telemetry_->registry.counter("recovery.resolved").inc();
          }
          twopc_inflight_.erase(it2);
          committed.push_back(tx.hash);
          body_bytes += tx.wire_size();
          tx_shard_finished(tx.hash, true);
          break;
        }
        case 3: {  // refund a force-aborted attempt's debit (recovery ladder)
          // The refund writes the sender's balance, so it honors the same
          // Phase-1 account lock as the debit did.
          if (eng.locks.account_locked(tx.sender)) {
            eng.transfers.push_back(item);
            break;
          }
          eng.store.set_balance(tx.sender,
                                eng.store.balance(tx.sender).value_or(0) + tx.amount);
          ++recovery_stats_.refunds;
          if (telemetry_ != nullptr) telemetry_->registry.counter("recovery.refunds").inc();
          if (item.attempt + 1 < config_.recovery.max_attempts) {
            ++recovery_stats_.retries;
            if (telemetry_ != nullptr)
              telemetry_->registry.counter("recovery.retries").inc();
            eng.transfers.push_back(TransferItem{item.tx, 0, item.attempt + 1});
          } else {
            // Retry budget exhausted: terminally abort.  No shard ever
            // counted this tx finished (credited attempts resolve via
            // kCredited, never via refund), so both votes are cast here.
            ++recovery_stats_.terminal_aborts;
            if (telemetry_ != nullptr)
              telemetry_->registry.counter("recovery.terminal_aborts").inc();
            tx_shard_finished(tx.hash, false);
            tx_shard_finished(tx.hash, false);
          }
          break;
        }
        default:
          break;
      }
    }

    // Execution results produced by this decision, batched per target shard
    // so each (decision, target) pair is exactly one message.
    std::map<std::uint32_t, ResultBatchPayload> result_batches;
    auto add_result_to = [&](ShardId target, const ExecResult& result) {
      auto& batch = result_batches[target.value];
      batch.source = ChannelId{eng.id.value};
      batch.channel_height = height;
      batch.epoch = epoch_;
      batch.target = target;
      batch.cert = cert;
      batch.results.push_back(result);
    };
    auto add_result = [&](const Transaction& tx, const ExecResult& result) {
      for (ShardId target : involved_shards(tx)) add_result_to(target, result);
    };

    // --- Dead gather entries (kNoGlobalLogic) ----------------------------
    // Expired with the tx never seen here.  Abort to every involved shard
    // (the granting ones release their Phase-1 locks, the rest settle their
    // tracker share); the submit-time registry still knows the tx.  Fall back
    // to the recorded granting shards if it has already fully settled.
    for (const auto& [h, sources] : payload->dead_gathers) {
      ExecResult r;
      r.tx_hash = h;
      r.ok = false;
      if (const auto tit = tx_for_result_.find(h); tit != tx_for_result_.end()) {
        add_result(*tit->second, r);
      } else {
        for (const std::uint32_t s : sources) add_result_to(ShardId{s}, r);
      }
    }

    // --- Multi-round execution visits (kNoGlobalLogic) ------------------
    // Runs the run of consecutive steps homed on this shard, then either
    // hands the bundle to the next home shard or emits final results — all
    // relayed through the tx's channel subgroups (no cross-shard messages).
    // Logic lookups are memoized and the interpreter stack reused across the
    // whole decision's visits.
    std::unordered_map<ContractId, const vm::ContractLogic*> visit_logic_memo;
    vm::ExecScratch visit_scratch;
    auto process_visit = [&](const ExecVisit& visit) {
      const Transaction& tx = *visit.tx;
      const ChannelId via = ledger::channel_of_tx(tx.hash, config_.num_shards);
      PortableState gathered = visit.gathered;
      bool ok = !visit.aborted;

      if (ok && visit.next_step == 0) {  // fee prologue on the first visit
        auto fee_it = gathered.balances.find(tx.sender);
        if (fee_it == gathered.balances.end() || fee_it->second < tx.fee) {
          ok = false;
        } else {
          fee_it->second -= tx.fee;
        }
      }

      std::uint32_t step = visit.next_step;
      if (ok) {
        std::vector<const vm::ContractLogic*> logic;
        logic.reserve(tx.contracts.size());
        for (auto c : tx.contracts) {
          auto [lit, inserted] = visit_logic_memo.try_emplace(c, nullptr);
          if (inserted) lit->second = eng.local_logic.get(c);
          logic.push_back(lit->second);
        }
        std::uint32_t end = step;
        while (end < tx.steps.size() &&
               ledger::shard_of_contract(tx.contracts[tx.steps[end].contract_slot],
                                         config_.num_shards) == eng.id)
          ++end;
        ledger::PortableStateView view(std::move(gathered));
        vm::ExecLimits limits;
        limits.gas_limit = tx.gas_limit;
        vm::Interpreter interp(logic, view, limits, &visit_scratch);
        const auto r = interp.run(tx.sender, std::span(tx.steps.data() + step, end - step));
        ok = r.ok();
        gathered = view.take();
        step = end;
      }

      auto emit_results = [&](bool success) {
        if (telemetry_ != nullptr)
          telemetry_->tracer.phase_event(tx.hash, telemetry::Phase::kExecute,
                                         eng.id.value, now);
        ExecResult result;
        result.tx_hash = tx.hash;
        result.ok = success;
        if (success) result.per_shard_updates = split_per_shard(std::move(gathered));
        add_result(tx, result);
      };

      if (!ok) {
        emit_results(false);
        return;
      }
      if (step >= tx.steps.size()) {
        emit_results(true);
        return;
      }
      const ShardId next = ledger::shard_of_contract(
          tx.contracts[tx.steps[step].contract_slot], config_.num_shards);
      auto cp = std::make_shared<ContinuationPayload>();
      cp->tx = visit.tx;
      cp->gathered = std::move(gathered);
      cp->next_step = step;
      cp->target = next;
      cp->hops = 1;
      sim::Message m;
      m.type = sim::MsgType::kSubTxResult;
      m.from = node;
      m.size_bytes = cp->wire_size();
      m.payload = std::move(cp);
      outcome.to_channels.emplace_back(via, std::move(m));
    };
    for (const ExecVisit& visit : payload->visits) process_visit(visit);

    // --- Execution entries (kNoLattice) ---------------------------------
    for (const auto& [tx, result] : payload->exec_entries) {
      // Retire the gathered entry.  For entries whose tx never arrived, fan
      // the abort to every shard that granted (their Phase-1 locks must
      // release); record the hash so late grants still get an answer.
      if (!eng.gather.ready.empty()) eng.gather.ready.pop_front();
      std::vector<std::uint32_t> sources;
      if (!tx) {
        if (const auto pit = eng.gather.pending.find(result.tx_hash);
            pit != eng.gather.pending.end()) {
          sources.assign(pit->second.reported.begin(), pit->second.reported.end());
          std::sort(sources.begin(), sources.end());
        }
        eng.gather.finish_dead(result.tx_hash);
      } else {
        eng.gather.finish(result.tx_hash);
      }
      if (telemetry_ != nullptr)
        telemetry_->tracer.phase_event(result.tx_hash, telemetry::Phase::kExecute,
                                       eng.id.value, now);
      if (!tx) {
        ExecResult abort_r;
        abort_r.tx_hash = result.tx_hash;
        abort_r.ok = false;
        if (const auto tit = tx_for_result_.find(result.tx_hash);
            tit != tx_for_result_.end()) {
          add_result(*tit->second, abort_r);  // every involved shard settles
        } else {
          for (const std::uint32_t s : sources) add_result_to(ShardId{s}, abort_r);
        }
        continue;
      }
      add_result(*tx, result);
    }

    // --- Ship the batched execution results -----------------------------
    for (auto& [target_value, batch] : result_batches) {
      const ShardId target{target_value};
      auto rp = std::make_shared<ResultBatchPayload>(std::move(batch));
      sim::Message m;
      m.type = sim::MsgType::kExecResult;
      m.from = node;
      m.size_bytes = rp->wire_size();
      if (target == eng.id) {
        // Local commits: the updates already travelled inside this shard's
        // own consensus block; ingest directly.
        rp->hops = 0;
        m.payload = std::move(rp);
        handle_result_batch(node, m);
      } else if (config_.pipeline == Pipeline::kNoLattice) {
        rp->hops = 0;
        m.payload = std::move(rp);
        net_.send_via_relay(node, shard_contact(target), m, sim::TrafficClass::kCrossShard);
      } else {  // kNoGlobalLogic: relay through a channel's subgroups
        rp->hops = 1;
        m.payload = std::move(rp);
        outcome.to_channels.emplace_back(ChannelId{target_value % config_.num_shards},
                                         std::move(m));
      }
    }

    // --- Ledger block ----------------------------------------------------
    if (!committed.empty()) {
      eng.chain.append(ledger::build_block(eng.id, eng.chain.height(), eng.chain.tip_hash(),
                                           std::move(committed), body_bytes, now));
    }

    // --- Retire consumed mempool items ----------------------------------
    for (std::size_t i = 0; i < payload->determine.size(); ++i) eng.determine.pop_front();
    for (std::size_t i = 0; i < payload->commits.size(); ++i) eng.commits.pop_front();
    for (std::size_t i = 0; i < payload->transfers.size(); ++i) eng.transfers.pop_front();
    for (std::size_t i = 0; i < payload->visits.size(); ++i) eng.visits.pop_front();
    for (std::size_t i = 0; i < payload->dead_gathers.size(); ++i) eng.dead_gathers.pop_front();

    // Durability barrier: the decided block's state transition is complete;
    // the backend gets one commit record + fsync for the whole batch.
    eng.store.commit();

    eng.outcomes[height] = std::move(outcome);
    eng.outcomes.erase(height >= 64 ? height - 64 : UINT64_MAX);
  }

  // Per-node forwarding duty: subgroup members rebroadcast into channels.
  const auto it = eng.outcomes.find(height);
  if (it == eng.outcomes.end()) return;
  const Assignment asg = lattice_->assignment(node);
  for (const auto& [ch, msg] : it->second.to_channels) {
    if (asg.channel != ch) continue;
    sim::Message copy = msg;
    copy.from = node;
    if (batcher_ != nullptr) {
      // Rumor mode: coalesce every relay this node owes the channel within
      // one aligned window into a single framed rumor (one spread, one
      // pooled certificate verification on each receiver).
      batcher_->enqueue(node, lattice_->channel_members(ch), relay_rumor_id(copy), copy,
                        sim::TrafficClass::kIntraShard);
    } else {
      // Gossip rather than unicast-to-all: batches carry whole contract
      // states, and a fanout tree spreads the serialization load across the
      // channel instead of saturating each subgroup member's uplink.
      relay_gossip(node, lattice_->channel_members(ch), copy);
      on_node_message(node, copy);  // local ingest (dissemination skips self)
    }
  }
}

// ---------------------------------------------------------------------------
// Channel consensus (kFull)
// ---------------------------------------------------------------------------

std::optional<consensus::ConsensusValue> JengaSystem::channel_propose(ChannelEngine& eng,
                                                                      std::uint64_t height) {
  eng.gather.expire(sim_.now(), config_.pending_timeout);
  if (eng.gather.ready.empty()) return std::nullopt;

  auto payload = std::make_shared<ChannelBlockPayload>();
  payload->channel = eng.id;
  std::vector<Hash256> hashes;
  std::uint32_t size = 128;
  // Execute the gathered-and-ready txs as one conflict-scheduled batch
  // (src/exec/); entries keep canonical ready order.
  auto batch = run_gathered_batch(eng.gather, config_.max_block_items);
  for (auto& [tx, result] : batch) {
    hashes.push_back(result.tx_hash);
    size += 64 + result.wire_size();
    payload->entries.emplace_back(std::move(tx), std::move(result));
  }
  const std::uint64_t tag = channel_tag(eng.id);
  auto value = wrap_value("jenga/channel-block", tag, height, std::move(hashes), size, payload);
  value.exec_delay = kExecItemCpu * static_cast<SimTime>(payload->entries.size());
  return value;
}

void JengaSystem::channel_decide(ChannelEngine& eng, NodeId node, std::uint64_t height,
                                 const consensus::ConsensusValue& value,
                                 const consensus::QuorumCert& cert) {
  note_decide(channel_tag(eng.id), height, value.digest);
  const auto* payload = dynamic_cast<const ChannelBlockPayload*>(value.data.get());
  if (payload == nullptr) return;

  if (height >= eng.next_process_height) {
    eng.next_process_height = height + 1;
    const SimTime now = sim_.now();
    ChannelEngine::Outcome outcome;

    // Group results per target shard.
    std::map<std::uint32_t, ResultBatchPayload> batches;
    auto add_to = [&](ShardId target, const ExecResult& result) {
      auto& batch = batches[target.value];
      batch.source = eng.id;
      batch.channel_height = height;
      batch.epoch = epoch_;
      batch.target = target;
      batch.cert = cert;
      batch.results.push_back(result);
    };
    for (const auto& [tx, result] : payload->entries) {
      if (!eng.gather.ready.empty()) eng.gather.ready.pop_front();
      if (!tx) {
        // Expired with the tx never seen (a crashed contact swallowed the
        // client copy): fan the abort back to every shard that granted so
        // their Phase-1 locks release, and remember the hash so grants that
        // arrive even later still get an answer.
        std::vector<std::uint32_t> sources;
        if (const auto pit = eng.gather.pending.find(result.tx_hash);
            pit != eng.gather.pending.end()) {
          sources.assign(pit->second.reported.begin(), pit->second.reported.end());
          std::sort(sources.begin(), sources.end());
        }
        eng.gather.finish_dead(result.tx_hash);
        ExecResult abort_r;
        abort_r.tx_hash = result.tx_hash;
        abort_r.ok = false;
        if (const auto tit = tx_for_result_.find(result.tx_hash);
            tit != tx_for_result_.end()) {
          // Every involved shard settles, not just the ones that granted.
          for (ShardId target : involved_shards(*tit->second)) add_to(target, abort_r);
        } else {
          for (const std::uint32_t s : sources) add_to(ShardId{s}, abort_r);
        }
        continue;
      }
      eng.gather.finish(result.tx_hash);
      if (telemetry_ != nullptr)
        telemetry_->tracer.phase_event(result.tx_hash, telemetry::Phase::kExecute,
                                       eng.id.value, now);
      for (ShardId target : involved_shards(*tx)) add_to(target, result);
    }
    for (auto& [target, batch] : batches) {
      auto rp = std::make_shared<ResultBatchPayload>(std::move(batch));
      sim::Message m;
      m.type = sim::MsgType::kExecResult;
      m.from = node;
      m.size_bytes = rp->wire_size();
      m.payload = std::move(rp);
      outcome.to_shards.emplace_back(ShardId{target}, std::move(m));
    }
    eng.outcomes[height] = std::move(outcome);
    eng.outcomes.erase(height >= 64 ? height - 64 : UINT64_MAX);
  }

  // Forwarding duty: a channel node whose state shard is a target relays the
  // certified results into its shard.
  const auto it = eng.outcomes.find(height);
  if (it == eng.outcomes.end()) return;
  const Assignment asg = lattice_->assignment(node);
  for (const auto& [shard, msg] : it->second.to_shards) {
    if (asg.shard != shard) continue;
    sim::Message copy = msg;
    copy.from = node;
    if (batcher_ != nullptr) {
      batcher_->enqueue(node, lattice_->shard_members(shard), relay_rumor_id(copy), copy,
                        sim::TrafficClass::kIntraShard);
    } else {
      relay_gossip(node, lattice_->shard_members(shard), copy);
      on_node_message(node, copy);
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch reconfiguration (paper §V-D): beacon -> drain -> cutover
// ---------------------------------------------------------------------------

void JengaSystem::schedule_epoch_cycle() {
  if (config_.epoch_interval <= 0 || epoch_mgr_ == nullptr) return;
  const std::uint64_t target = epoch_ + 1;
  const SimTime cutover_at = sim_.now() + config_.epoch_interval;
  const SimTime beacon_at = std::max(sim_.now(), cutover_at - config_.epoch_beacon_lead);
  const SimTime drain_at = std::max(sim_.now(), cutover_at - config_.epoch_drain_window);
  sim_.schedule_at(beacon_at, [this, target] { start_beacon_round(target); });
  sim_.schedule_at(drain_at, [this, target] { begin_drain(target); });
  sim_.schedule_at(cutover_at, [this, target] { try_cutover(target); });
}

void JengaSystem::start_beacon_round(std::uint64_t target_epoch) {
  if (epoch_mgr_ == nullptr || epoch_ + 1 != target_epoch) return;
  for (std::uint32_t i = 0; i < lattice_->total_nodes(); ++i) {
    const NodeId node{i};
    if (net_.node_down(node)) continue;  // crashed members cannot contribute
    const auto bit = byz_modes_.find(i);
    const auto mode =
        bit == byz_modes_.end() ? consensus::ByzantineMode::kHonest : bit->second;
    if (mode == consensus::ByzantineMode::kSilent) continue;
    auto payload = std::make_shared<EpochContributionPayload>();
    payload->contribution =
        epoch_mgr_->contribute(node, beacon_keys_[i], EpochId{target_epoch});
    // Non-silent Byzantine members submit a corrupted beta — live adversarial
    // input for the beacon's verification path (rejected, never combined).
    if (mode != consensus::ByzantineMode::kHonest)
      payload->contribution.beta.bytes[0] ^= 0xFF;
    payload->epoch = target_epoch;
    sim::Message m;
    m.type = sim::MsgType::kEpochVrf;
    m.from = node;
    m.size_bytes = EpochContributionPayload::wire_size();
    m.payload = std::move(payload);
    relay_gossip(node, all_nodes_, m, sim::BroadcastKind::kBeacon);
    handle_epoch_contribution(m);  // the contributor ingests its own copy
  }
}

void JengaSystem::handle_epoch_contribution(const sim::Message& msg) {
  if (epoch_mgr_ == nullptr) return;
  const auto& p = sim::payload_as<EpochContributionPayload>(msg);
  if (p.epoch != epoch_ + 1) return;  // stale or premature round
  // Gossip delivers each contribution to every node; drop the duplicate
  // copies without paying a VRF verification or miscounting a rejection.
  if (epoch_mgr_->has_contribution(p.contribution.node)) return;
  if (epoch_mgr_->accept(p.contribution, EpochId{p.epoch})) {
    ++epoch_stats_.contributions_accepted;
    if (telemetry_ != nullptr)
      telemetry_->registry.counter("epoch.contributions_accepted").inc();
  } else {
    ++epoch_stats_.contributions_rejected;
    if (telemetry_ != nullptr)
      telemetry_->registry.counter("epoch.contributions_rejected").inc();
  }
}

void JengaSystem::begin_drain(std::uint64_t target_epoch) {
  if (epoch_ + 1 != target_epoch || draining_) return;
  draining_ = true;
  drain_started_at_ = sim_.now();
  if (telemetry_ != nullptr) telemetry_->registry.counter("epoch.drains").inc();
}

void JengaSystem::try_cutover(std::uint64_t target_epoch) {
  if (epoch_mgr_ == nullptr || epoch_ + 1 != target_epoch) return;
  bool ready =
      epoch_mgr_->contributions() >= min_contributions() && twopc_inflight_.empty();
  if (ready) {
    // No tx may straddle the boundary with a partially-applied outcome: some
    // shards have applied its commit/abort while others still wait, and a
    // force-abort would conflict with the applied shares.  (`finished` only
    // intersects the tracker for exactly these partially-settled txs.)
    for (const auto& [h, e] : tracker_) {
      bool partial = false;
      for (const auto& s : shards_)
        if (s->finished.contains(h)) {
          partial = true;
          break;
        }
      if (partial) {
        ready = false;
        break;
      }
    }
  }
  if (!ready) {
    ++epoch_stats_.postponements;
    if (telemetry_ != nullptr) telemetry_->registry.counter("epoch.postponements").inc();
    sim_.schedule_after(500 * kMillisecond,
                        [this, target_epoch] { try_cutover(target_epoch); });
    return;
  }
  perform_cutover(target_epoch);
}

void JengaSystem::perform_cutover(std::uint64_t target_epoch) {
  const SimTime now = sim_.now();

  // 1. Deterministic force-abort: release every in-flight tx's Phase-1 locks,
  //    in canonical hash order.  The txs themselves are re-ingested below —
  //    nothing submitted is ever lost at a boundary.
  std::vector<Hash256> requeue;
  requeue.reserve(tracker_.size());
  for (const auto& [h, e] : tracker_) requeue.push_back(h);
  std::sort(requeue.begin(), requeue.end());
  for (const auto& h : requeue)
    for (auto& s : shards_) s->locks.release_all(h);

  // 2. Boundary audits (surfaced through security::check_invariants).
  epoch_stats_.boundary_lock_leaks += held_locks();
  if (total_account_balance() != initial_balance_ - stats_.fees_charged)
    ++epoch_stats_.boundary_balance_mismatches;

  // 3. Finalize the beacon: XOR-combine the quorum's betas, run + verify the
  //    VDF, advance the epoch.
  const auto randomness = epoch_mgr_->advance_epoch(min_contributions());
  if (!randomness) {  // defensive: the quorum was pre-checked in try_cutover
    ++epoch_stats_.postponements;
    sim_.schedule_after(500 * kMillisecond,
                        [this, target_epoch] { try_cutover(target_epoch); });
    return;
  }
  epoch_ = epoch_mgr_->current_epoch().value;
  draining_ = false;
  rerouted_.clear();

  // 4. Boundary churn: departures/joiners toggle while no lattice is live.
  if (boundary_hook_) boundary_hook_(epoch_);

  // 5. Rebuild the lattice from the fresh randomness.  Shards and channels
  //    are logical entities — stores, chains, and lock tables stay put; only
  //    the node-to-group assignment moves.
  std::vector<ShardId> old_shard;
  old_shard.reserve(all_nodes_.size());
  for (NodeId n : all_nodes_) old_shard.push_back(lattice_->assignment(n).shard);
  lattice_ = std::make_unique<Lattice>(make_epoch_lattice(
      config_.num_shards, config_.nodes_per_shard, config_.seed, *randomness));

  // 6. Stop and park the old replicas (their scheduled timers capture `this`,
  //    so they must outlive the reshuffle), then re-home every node.
  for (auto& r : shard_replicas_) {
    r->stop();
    retired_replicas_.push_back(std::move(r));
  }
  for (auto& r : channel_replicas_)
    if (r) {
      r->stop();
      retired_replicas_.push_back(std::move(r));
    }
  for (auto& a : shard_apps_) retired_shard_apps_.push_back(std::move(a));
  for (auto& a : channel_apps_)
    if (a) retired_channel_apps_.push_back(std::move(a));
  build_replicas();
  for (auto& r : shard_replicas_) r->start();
  for (auto& r : channel_replicas_)
    if (r) r->start();

  // Rehomed replicas — nodes whose shard assignment moved — must acquire
  // their new shard's application state.  Modeled as the same proof-verified
  // sync the crash-recovery path uses (snapshot + per-key Merkle proofs; a
  // node's durable image of its OLD shard is useless for the new one).
  if (config_.model_state_sync)
    for (NodeId n : all_nodes_)
      if (!net_.node_down(n) && lattice_->assignment(n).shard != old_shard[n.value])
        model_recovery_sync(n, /*use_durable_image=*/false);

  // 7. Reset per-epoch engine state.  Persistent: store, chain, locks (empty
  //    after the sweep), seen_client, finished, deferred fees.  Epoch-scoped:
  //    mempools, gathers, dedup keyed by restarting heights, outcome caches.
  telemetry::PhaseTracer* tracer = telemetry_ == nullptr ? nullptr : &telemetry_->tracer;
  for (auto& s : shards_) {
    s->determine.clear();
    s->commits.clear();
    s->transfers.clear();
    s->visits.clear();
    s->dead_gathers.clear();
    s->gather = GatherUnit{};
    s->gather.tracer = tracer;
    s->gather.tracer_key = s->id.value;
    s->grant_dedup.clear();
    s->result_dedup.clear();
    s->continuation_dedup.clear();
    s->outcomes.clear();
    s->next_process_height = 0;
  }
  for (auto& c : channels_) {
    c->gather = GatherUnit{};
    c->gather.tracer = tracer;
    c->gather.tracer_key = c->id.value;
    c->grant_dedup.clear();
    c->outcomes.clear();
    c->next_process_height = 0;
  }

  // 8. Carry the mempool/tracker across: re-ingest every force-aborted tx
  //    with its original submit timestamp and submission count intact.
  for (const auto& h : requeue) {
    const auto it = tx_for_result_.find(h);
    if (it != tx_for_result_.end()) reingest(it->second);
  }
  epoch_stats_.txs_requeued += requeue.size();
  ++epoch_stats_.transitions;
  if (telemetry_ != nullptr) {
    auto& reg = telemetry_->registry;
    reg.counter("epoch.transitions").inc();
    reg.counter("epoch.txs_requeued").inc(requeue.size());
    reg.histogram("epoch.drain_duration_us").record(now - drain_started_at_);
  }
  schedule_epoch_cycle();
}

void JengaSystem::reingest(const TxPtr& tx) {
  const auto involved = involved_shards(*tx);
  if (const auto it = tracker_.find(tx->hash); it != tracker_.end()) {
    it->second.shards_left = static_cast<std::uint32_t>(involved.size());
    it->second.aborted = false;  // the force-abort is procedural, not an outcome
  }
  if (tx->kind == TxKind::kTransfer) {
    const ShardId src = ledger::shard_of_account(tx->sender, config_.num_shards);
    shards_[src.value]->transfers.push_back(TransferItem{tx, 0});
    return;
  }
  const SimTime now = sim_.now();
  // `seen_client` still holds the hash (by design — late client copies must
  // stay deduped), so feed the mempools directly.
  for (ShardId s : involved) shards_[s.value]->determine.push_back(DetermineItem{tx, 0});
  switch (config_.pipeline) {
    case Pipeline::kFull: {
      const ChannelId target = ledger::channel_of_tx(tx->hash, config_.num_shards);
      channels_[target.value]->gather.on_tx(tx, involved.size(), now);
      break;
    }
    case Pipeline::kNoLattice: {
      const ShardId exec{
          static_cast<std::uint32_t>(tx->hash.prefix_u64() % config_.num_shards)};
      shards_[exec.value]->gather.on_tx(tx, involved.size(), now);
      break;
    }
    case Pipeline::kNoGlobalLogic: {
      const ShardId first = ledger::shard_of_contract(
          tx->contracts[tx->steps.front().contract_slot], config_.num_shards);
      shards_[first.value]->gather.on_tx(tx, involved.size(), now);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Completion tracking & reports
// ---------------------------------------------------------------------------

void JengaSystem::tx_shard_finished(const Hash256& tx_hash, bool ok) {
  const auto it = tracker_.find(tx_hash);
  if (it == tracker_.end()) return;
  TrackEntry& e = it->second;
  e.aborted = e.aborted || !ok;
  if (e.shards_left == 0 || --e.shards_left > 0) return;
  if (e.aborted) {
    ++stats_.aborted;
  } else {
    ++stats_.committed;
    stats_.total_commit_latency += sim_.now() - e.submitted;
    stats_.commit_latencies.push_back(sim_.now() - e.submitted);
    stats_.last_commit_time = std::max(stats_.last_commit_time, sim_.now());
  }
  if (telemetry_ != nullptr) {
    telemetry_->tracer.on_finish(tx_hash, !e.aborted, sim_.now());
    telemetry_->registry.counter(e.aborted ? "tx.aborted" : "tx.committed").inc();
    if (!e.aborted)
      telemetry_->registry.histogram("tx.commit_latency_us").record(sim_.now() - e.submitted);
  }
  tracker_.erase(it);
  tx_for_result_.erase(tx_hash);
}

StorageReport JengaSystem::storage_report() const {
  StorageReport r;
  std::uint64_t chain = 0, state = 0;
  for (const auto& s : shards_) {
    chain += s->chain.total_bytes();
    state += s->store.state_storage_bytes();
  }
  r.chain_bytes_per_node = chain / config_.num_shards;
  r.state_bytes_per_node = state / config_.num_shards;
  // Network-wide logic storage: every node stores all logic (kFull and
  // kNoLattice); kNoGlobalLogic stores only the home shard's share.
  if (config_.pipeline == Pipeline::kNoGlobalLogic) {
    std::uint64_t local = 0;
    for (const auto& s : shards_) local += s->local_logic.logic_storage_bytes();
    r.logic_bytes_per_node = local / config_.num_shards;
  } else {
    r.logic_bytes_per_node = all_logic_.logic_storage_bytes();
  }
  return r;
}

const ledger::Chain& JengaSystem::shard_chain(ShardId s) const { return shards_[s.value]->chain; }
const ledger::StateStore& JengaSystem::shard_store(ShardId s) const {
  return shards_[s.value]->store;
}

std::uint64_t JengaSystem::total_account_balance() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->store.total_balance();
  return sum;
}

std::size_t JengaSystem::held_locks() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->locks.held_locks();
  return n;
}

std::size_t JengaSystem::twopc_stuck_now() const {
  if (config_.twopc_stuck_timeout <= 0) return 0;
  std::size_t n = 0;
  for (const auto& [h, e] : twopc_inflight_)
    if (sim_.now() - e.since >= config_.twopc_stuck_timeout) ++n;
  return n;
}

void JengaSystem::twopc_watchdog_scan() {
  if (config_.twopc_stuck_timeout <= 0) return;
  const SimTime now = sim_.now();
  for (auto& [h, e] : twopc_inflight_) {
    if (!e.flagged) {
      if (now - e.since < config_.twopc_stuck_timeout) continue;
      e.flagged = true;
      ++twopc_stuck_total_;
      if (telemetry_ != nullptr) {
        telemetry_->registry.counter("twopc.stuck").inc();
        telemetry_->flight.trigger("twopc.stuck", &h);
      }
    }
    // Recovery ladder (DESIGN.md §14): first re-request the round, then
    // force it to settle.  Sends only — entries are erased by the reply
    // handlers, so iteration stays valid.
    if (!config_.recovery.enabled || !e.tx) continue;
    const LadderAction act = ladder_next(config_.recovery, e.ladder, now);
    if (act == LadderAction::kWait) continue;
    auto pp = std::make_shared<TwoPcPayload>();
    pp->tx = e.tx;
    pp->commit = false;  // routes to the destination (credit) shard
    pp->op = act == LadderAction::kProbe ? TwoPcPayload::Op::kProbe
                                         : TwoPcPayload::Op::kAbortQuery;
    pp->attempt = e.attempt;
    sim::Message m;
    m.type = sim::MsgType::kTwoPcPrepare;
    m.from = e.coordinator;
    // A probe can be adopted as the prepare, so it carries the tx's weight.
    m.size_bytes = act == LadderAction::kProbe ? ledger::kTxWireBytes + 96 : 160;
    m.payload = std::move(pp);
    if (act == LadderAction::kProbe) {
      ++recovery_stats_.probes_sent;
      if (telemetry_ != nullptr) telemetry_->registry.counter("recovery.probes").inc();
    } else {
      ++recovery_stats_.abort_queries;
      if (telemetry_ != nullptr) {
        telemetry_->registry.counter("recovery.abort_queries").inc();
        telemetry_->flight.trigger("twopc.force_abort", &h);
      }
    }
    send_two_pc(e.coordinator,
                ledger::shard_of_account(e.tx->to, config_.num_shards), m);
  }
}

Hash256 JengaSystem::ledger_digest() const {
  crypto::Sha256 h;
  h.update("jenga/ledger-digest");
  for (const auto& s : shards_) {
    h.update_u64(s->id.value);
    h.update_u64(s->chain.height());
    h.update(s->chain.tip_hash());
    h.update(s->store.digest());
  }
  return h.finish();
}

Hash256 JengaSystem::state_digest() const {
  crypto::Sha256 h;
  h.update("jenga/state-digest");
  for (const auto& s : shards_) {
    h.update_u64(s->id.value);
    h.update(s->store.digest());
  }
  h.update_u64(stats_.committed);
  h.update_u64(stats_.aborted);
  return h.finish();
}

// ---------------------------------------------------------------------------
// Relay certificate verification (DESIGN.md §12)
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t>& JengaSystem::source_public_ids(bool channel_group,
                                                                 std::uint32_t gid) {
  const std::uint64_t tag =
      channel_group ? channel_tag(ChannelId{gid}) : shard_tag(ShardId{gid});
  if (const auto it = group_pubids_.find(tag); it != group_pubids_.end()) return it->second;
  // Exactly the key schedule build_replicas() gives the group's replicas.
  const std::uint64_t seed =
      (config_.seed ^ ((channel_group ? 0xC4A20000ULL : 0x51ED0000ULL) + gid)) +
      epoch_ * 0xD1B54A32D192ED03ULL;
  const std::size_t n = channel_group ? lattice_->channel_members(ChannelId{gid}).size()
                                      : lattice_->shard_members(ShardId{gid}).size();
  return group_pubids_.emplace(tag, consensus::group_public_ids(seed, n)).first->second;
}

bool JengaSystem::verify_relay_cert(const consensus::QuorumCert& cert, bool channel_group,
                                    std::uint32_t gid) {
  if (cert.sig.signer_count() == 0) {
    // Synthetic late-abort answers (answer_dead_grant) certify nothing; they
    // only release locks the receiver already holds, so they pass uncounted
    // as verifications but visible in telemetry.
    ++cert_stats_.unsigned_batches;
    return true;
  }
  if (certs_preverified_) return true;  // covered by the frame's pooled pass
  const auto& ids = source_public_ids(channel_group, gid);
  ++cert_stats_.individual_checks;
  const std::size_t quorum = 2 * ((ids.size() - 1) / 3) + 1;
  const Hash256 digest =
      consensus::vote_digest(cert.value_digest, cert.height, cert.view, /*commit_phase=*/true);
  const bool ok = cert.sig.signers.size() == ids.size() &&
                  cert.sig.signer_count() >= quorum &&
                  crypto::fast_verify_multisig(ids, digest, cert.sig);
  if (!ok) {
    ++cert_stats_.invalid_certs;
    if (telemetry_ != nullptr) telemetry_->registry.counter("relay.invalid_certs").inc();
  }
  return ok;
}

bool JengaSystem::frame_item_seen(NodeId node, const sim::Message& inner) const {
  const Assignment asg = lattice_->assignment(node);
  if (inner.type == sim::MsgType::kStateGrant) {
    const auto& p = sim::payload_as<GrantBatchPayload>(inner);
    if (p.epoch != epoch_) return true;  // dropped unread by the handler
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.source.value) << 40) ^ p.shard_height;
    switch (config_.pipeline) {
      case Pipeline::kFull:
        return channels_[asg.channel.value]->grant_dedup.contains(key);
      case Pipeline::kNoLattice:
        return shards_[asg.shard.value]->grant_dedup.contains(key);
      case Pipeline::kNoGlobalLogic:
        if (asg.shard.value != p.relay_target.value) return true;  // witness only
        return shards_[asg.shard.value]->grant_dedup.contains(key);
    }
    return false;
  }
  if (inner.type == sim::MsgType::kExecResult) {
    const auto& p = sim::payload_as<ResultBatchPayload>(inner);
    if (p.epoch != epoch_) return true;
    if (asg.shard != p.target) return true;  // channel witnesses just observe
    std::uint64_t key = 0x9E3779B97F4A7C15ULL * (p.source.value + 1) +
                        0xC2B2AE3D27D4EB4FULL * (p.target.value + 1) + p.channel_height;
    key = splitmix64(key);
    return shards_[asg.shard.value]->result_dedup.contains(key);
  }
  return false;
}

void JengaSystem::handle_batch_frame(NodeId node, const sim::Message& msg) {
  const auto& frame = sim::payload_as<gossip::BatchFramePayload>(msg);
  // Forged-frame guard: a frame whose embedded id disagrees with the fold of
  // its (sorted) item ids is smuggling items under another frame's dedup
  // identity — reject it whole; honest relays re-frame the same items under
  // the correct id, so nothing is lost.
  if (!gossip::frame_id_matches(frame)) {
    if (batcher_ != nullptr) batcher_->count_rejected_frame();
    if (telemetry_ != nullptr) telemetry_->flight.trigger("batch.frame_rejected");
    return;
  }
  // Just unpack: each contained batch re-enters the normal handler path,
  // where its cert parks in the receiver's pooled-verification window.  The
  // frame's span stays the causal parent so trace_lint sees one hop per copy.
  for (const auto& item : frame.items) {
    sim::Message inner = item.inner;
    inner.span = msg.span;
    on_node_message(node, inner);
  }
}

bool JengaSystem::try_park_for_pooled_verify(NodeId node, const sim::Message& msg,
                                             std::uint64_t pool_tag, std::uint64_t dedup_key,
                                             const consensus::QuorumCert& cert) {
  if (batcher_ == nullptr || certs_preverified_ || pool_bypass_) return false;
  if (cert.sig.signer_count() == 0) return false;  // synthetic, nothing to verify
  VerifyPool& pool = verify_pools_[pool_tag];
  if (!pool.keys.insert(dedup_key).second) return true;  // dup of a parked batch
  pool.parked.emplace_back(node, msg);
  if (!pool.flush_scheduled) {
    pool.flush_scheduled = true;
    // Aligned boundary: every batch the engine hears inside the window —
    // across ALL source groups — is verified by one aggregated pass.
    const SimTime w = std::max<SimTime>(1, net_.config().batch_window);
    sim_.schedule_at((sim_.now() / w + 1) * w,
                     [this, pool_tag] { flush_verify_pool(pool_tag); });
  }
  return true;
}

void JengaSystem::flush_verify_pool(std::uint64_t pool_tag) {
  const auto it = verify_pools_.find(pool_tag);
  if (it == verify_pools_.end()) return;
  VerifyPool pool = std::move(it->second);
  // Erase before dispatch: post-flush copies hit the engine dedup instead.
  verify_pools_.erase(it);
  if (pool.parked.empty()) return;

  std::vector<crypto::FastBatchEntry> entries;
  entries.reserve(pool.parked.size());
  bool pool_ok = true;
  for (const auto& [node, msg] : pool.parked) {
    if (frame_item_seen(node, msg)) continue;  // went stale (e.g. epoch turned)
    const consensus::QuorumCert* cert = nullptr;
    bool channel_group = false;
    std::uint32_t gid = 0;
    if (msg.type == sim::MsgType::kStateGrant) {
      const auto& p = sim::payload_as<GrantBatchPayload>(msg);
      cert = &p.cert;
      gid = p.source.value;
    } else if (msg.type == sim::MsgType::kExecResult) {
      const auto& p = sim::payload_as<ResultBatchPayload>(msg);
      cert = &p.cert;
      channel_group = config_.pipeline == Pipeline::kFull;
      gid = p.source.value;
    }
    if (cert == nullptr || cert->sig.signer_count() == 0) continue;
    const auto& ids = source_public_ids(channel_group, gid);
    if (cert->sig.signers.size() != ids.size() ||
        cert->sig.signer_count() < 2 * ((ids.size() - 1) / 3) + 1) {
      pool_ok = false;  // structurally broken: force the per-item fallback
      continue;
    }
    entries.push_back(crypto::FastBatchEntry{
        ids,
        consensus::vote_digest(cert->value_digest, cert->height, cert->view,
                               /*commit_phase=*/true),
        &cert->sig});
  }
  if (!entries.empty()) {
    ++cert_stats_.batch_passes;
    cert_stats_.batch_certs += entries.size();
    if (!crypto::fast_verify_multisig_batch(entries, config_.seed)) {
      ++cert_stats_.batch_fallbacks;
      pool_ok = false;
    }
  }

  if (pool_ok) {
    // One aggregated pass covered every cert: dispatch with checks elided.
    certs_preverified_ = true;
    for (const auto& [node, msg] : pool.parked) on_node_message(node, msg);
    certs_preverified_ = false;
  } else {
    // A forged or malformed cert poisoned the pool: fall back to individual
    // verification so the bad batch is isolated and the rest still land.
    pool_bypass_ = true;
    for (const auto& [node, msg] : pool.parked) on_node_message(node, msg);
    pool_bypass_ = false;
  }
}

// ---------------------------------------------------------------------------
// Shard consensus app
// ---------------------------------------------------------------------------

std::optional<consensus::ConsensusValue> JengaSystem::ShardApp::propose(std::uint64_t height) {
  return sys->shard_propose(*engine, height);
}

void JengaSystem::ShardApp::on_decide(std::uint64_t height,
                                      const consensus::ConsensusValue& value,
                                      const consensus::QuorumCert& cert) {
  sys->shard_decide(*engine, node, height, value, cert);
}

std::optional<consensus::ConsensusValue> JengaSystem::ChannelApp::propose(
    std::uint64_t height) {
  return sys->channel_propose(*engine, height);
}

void JengaSystem::ChannelApp::on_decide(std::uint64_t height,
                                        const consensus::ConsensusValue& value,
                                        const consensus::QuorumCert& cert) {
  sys->channel_decide(*engine, node, height, value, cert);
}

}  // namespace jenga::core
