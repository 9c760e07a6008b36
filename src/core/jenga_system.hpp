// The Jenga system: S state shards × S execution channels over N nodes,
// network-wide logic storage, and the three-phase cross-shard consensus
// protocol (paper §V).
//
// Simulation architecture
// -----------------------
// Consensus is fully per-node: every node runs a BFT replica for its state
// shard and (in the full pipeline) one for its execution channel, and all
// protocol messages travel through the simulated network with real timing.
// The *application state* behind each group (state store, locks, chain,
// mempool) is kept as one logical copy per group: honest replicas are
// deterministic and decide identical values, so replicating the bytes per
// node would multiply memory without changing any observable metric.  The
// first replica to decide a height performs the shared state transition;
// every replica then performs its own node-local forwarding duty (subgroup
// relaying), which is where Jenga's communication pattern lives.
//
// Pipelines (the Fig. 5b/6b ablations):
//   kFull            — grants/results travel shard<->channel through
//                      overlapped subgroups (intra-group broadcasts only).
//   kNoLattice       — "Jenga w/o Orthogonal Lattice Structure": logic is
//                      still everywhere, but execution happens on a state
//                      shard chosen by tx hash, and states/results move with
//                      ordinary cross-shard messages (client-relayed).
//   kNoGlobalLogic   — "Jenga w/o Network-Wide Logic Storage": the lattice
//                      stands, but logic lives only on its home shard, so a
//                      transaction executes step-by-step across the home
//                      shards of its contracts (multi-round), with
//                      intermediate results relayed through subgroups.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "consensus/bft.hpp"
#include "core/epoch.hpp"
#include "core/lattice.hpp"
#include "core/protocol_messages.hpp"
#include "core/recovery.hpp"
#include "ledger/block.hpp"
#include "ledger/locks.hpp"
#include "ledger/state_store.hpp"
#include "ledger/storage_env.hpp"
#include "simnet/network.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::exec {
class Engine;
}

namespace jenga::security {
class FailureDetector;
}

namespace jenga::gossip {
class RumorMesh;
class Batcher;
struct RumorStats;
struct BatchStats;
}  // namespace jenga::gossip

namespace jenga::core {

/// Shared state-gathering unit (defined in jenga_system.cpp).
struct GatherUnit;

enum class Pipeline : std::uint8_t { kFull = 0, kNoLattice, kNoGlobalLogic };

/// What sits under each shard's StateStore (DESIGN.md §9).
enum class StorageBackendKind : std::uint8_t {
  kNone = 0,   // trie-authenticated only, nothing persisted
  kDurable,    // DurableBackend over a per-shard MemStorageEnv (WAL + snapshots)
};

struct JengaConfig {
  std::uint32_t num_shards = 4;
  std::uint32_t nodes_per_shard = 16;  // must be a multiple of num_shards
  std::uint64_t seed = 1;
  std::uint32_t max_block_items = 4096;   // paper: 4096 txs per consensus round
  SimTime view_timeout = 120 * kSecond;
  SimTime pending_timeout = 90 * kSecond;  // channel-side state-gathering timeout
  /// Lock conflicts re-enqueue the transaction for this many later blocks
  /// before Phase 1 gives up and emits an AbortRequest (mempool retry, as in
  /// real implementations).
  std::uint32_t max_lock_retries = 24;
  /// 2PC inflight watchdog: a cross-shard transfer whose debit applied but
  /// whose round has not finalized within this window is flagged as stuck
  /// (`twopc.stuck` counter, audited by security::check_invariants).  Beyond
  /// flagging, the watchdog drives the recovery ladder below: a flagged
  /// round is re-requested and, failing that, force-settled — so a gray
  /// fault degrades latency, never liveness.  0 disables both.
  SimTime twopc_stuck_timeout = 60 * kSecond;
  /// Stuck-2PC recovery ladder (probe -> force-abort -> refund + retry); see
  /// core/recovery.hpp and DESIGN.md §14.  `recovery.enabled = false`
  /// restores the observe-only watchdog.
  RecoveryConfig recovery;
  Pipeline pipeline = Pipeline::kFull;
  /// Worker threads for batch transaction execution (src/exec/).  Results are
  /// bit-identical for every value; 1 = serial, no threads spawned.
  std::uint32_t exec_workers = 1;

  // --- Live epoch reconfiguration (paper §V-D) -----------------------------
  /// > 0: reshuffle the lattice every `epoch_interval` of simulated time.
  /// 0 (default) disables reconfiguration entirely — the lattice is built
  /// once and every run is bit-identical to the pre-epoch behaviour.
  SimTime epoch_interval = 0;
  /// Bounded drain window before each cutover: shards stop admitting new
  /// Phase-1 work while in-flight transactions finish.
  SimTime epoch_drain_window = 10 * kSecond;
  /// How long before the cutover the beacon round starts (VRF contributions
  /// gossiped as real messages; the quorum must land within this lead).
  SimTime epoch_beacon_lead = 20 * kSecond;

  // --- Durable authenticated state (DESIGN.md §9) --------------------------
  StorageBackendKind storage_backend = StorageBackendKind::kNone;
  /// Durable backend: full snapshot every N commits (0 = WAL-only).
  std::uint32_t storage_snapshot_interval = 64;
  /// Model proof-verified state sync when a node recovers from a crash or is
  /// rehomed to a different shard at an epoch cutover: reopen its durable
  /// image, then fetch divergent state from a peer as snapshot + per-key
  /// Merkle proofs (Byzantine peers serve tampered entries, which must be
  /// rejected), falling back to an unverified full copy if every proof-
  /// serving peer lied.
  bool model_state_sync = false;
};

struct Genesis {
  std::uint64_t num_accounts = 0;
  std::uint64_t initial_balance = 0;
  std::vector<std::shared_ptr<const vm::ContractLogic>> contracts;
  std::vector<ledger::ContractState> initial_states;  // parallel to contracts
};

/// Observability: every count this system keeps for information lives in
/// `telemetry().registry`, incremented where it happens (DESIGN.md §6):
///   epoch.*       transitions, txs_requeued, contributions_accepted,
///                 contributions_rejected, drains, postponements and the
///                 drain_duration_us histogram;
///   state_sync.*  syncs, already_current, keys_verified, proof_rejections,
///                 full_syncs, bytes_synced; storage.recovery_refusals;
///   recovery.*    probes, abort_queries, acks_recovered, refunds, retries,
///                 terminal_aborts, hedged_sends, resolved, and the
///                 last_resolved_us gauge;
///   relay.*       cert_checks, batch_passes, batch_certs, batch_fallbacks,
///                 invalid_certs, unsigned_batches.
/// The values security::check_invariants treats as violations are typed
/// members instead (divergent_decides(), boundary_lock_leaks(),
/// boundary_balance_mismatches(), state_sync_root_mismatches()).
class JengaSystem {
 public:
  /// `telemetry` must outlive the system.  Recording is passive: what it
  /// records never feeds back into the simulation.
  JengaSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
              JengaConfig config, Genesis genesis);
  ~JengaSystem();

  JengaSystem(const JengaSystem&) = delete;
  JengaSystem& operator=(const JengaSystem&) = delete;

  /// Starts all replicas; call once before submitting.
  void start();

  /// Client submits a transaction at the current simulation time.
  void submit(TxPtr tx);

  [[nodiscard]] const TxStats& stats() const { return stats_; }
  [[nodiscard]] const Lattice& lattice() const { return *lattice_; }
  [[nodiscard]] const JengaConfig& config() const { return config_; }
  /// The telemetry context given at construction: this layer's counters and
  /// per-tx phase tracing, and BFT sub-spans of every replica.
  [[nodiscard]] const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Average per-node storage at the current moment (Fig. 7a's metric).
  [[nodiscard]] StorageReport storage_report() const;

  /// Introspection for tests.
  [[nodiscard]] const ledger::Chain& shard_chain(ShardId s) const;
  [[nodiscard]] const ledger::StateStore& shard_store(ShardId s) const;
  [[nodiscard]] std::uint64_t total_account_balance() const;
  [[nodiscard]] std::size_t held_locks() const;
  /// Transactions submitted but neither committed nor aborted yet.
  [[nodiscard]] std::size_t in_flight() const { return tracker_.size(); }
  /// 2PC rounds with an applied debit awaiting finalization right now.
  [[nodiscard]] std::size_t twopc_inflight() const { return twopc_inflight_.size(); }
  /// Inflight 2PC entries currently older than `twopc_stuck_timeout`
  /// (snapshot view, for the invariant audit).
  [[nodiscard]] std::size_t twopc_stuck_now() const;
  /// Total entries ever flagged stuck by the watchdog (monotonic).
  [[nodiscard]] std::uint64_t twopc_stuck_total() const { return twopc_stuck_total_; }
  /// Safety violations observed: two replicas of one group deciding different
  /// digests at the same height.  Must stay 0 under every fault schedule.
  [[nodiscard]] std::uint64_t divergent_decides() const { return divergent_decides_; }
  /// Epoch-boundary audits, run at every cutover after the force-abort sweep;
  /// both must stay 0 under every fault schedule.  Locks still held after the
  /// sweep, summed over cutovers:
  [[nodiscard]] std::uint64_t boundary_lock_leaks() const { return boundary_lock_leaks_; }
  /// Cutovers at which account balances plus fees did not add up to genesis.
  [[nodiscard]] std::uint64_t boundary_balance_mismatches() const {
    return boundary_balance_mismatches_;
  }
  /// Recovery or rehome syncs that ended on a root other than the group's.
  /// Must stay 0: an honest peer always exists in the tested configurations.
  [[nodiscard]] std::uint64_t state_sync_root_mismatches() const {
    return sync_root_mismatches_;
  }

  /// Current epoch index (0 until the first live reshuffle completes).
  [[nodiscard]] std::uint64_t current_epoch() const { return epoch_; }
  /// True while a reshuffle's drain window is open (shards hold new Phase-1
  /// work; in-flight transactions are finishing).
  [[nodiscard]] bool draining() const { return draining_; }

  /// Registers a hook invoked inside each epoch cutover, after the old
  /// lattice stopped and before the new one starts: the moment boundary churn
  /// (crashing departing nodes / reviving joiners) belongs to.  The hook gets
  /// the new epoch index and may toggle node up/down state on the network.
  void set_epoch_boundary_hook(std::function<void(std::uint64_t)> hook) {
    boundary_hook_ = std::move(hook);
  }

  /// Canonical digest over every shard's chain tip and state store — the
  /// ledger root the determinism tests compare across exec worker counts.
  [[nodiscard]] Hash256 ledger_digest() const;

  /// Order-independent digest over every shard's final state store plus the
  /// committed/aborted totals.  Unlike ledger_digest() this excludes chain
  /// tips (whose block boundaries depend on message timing), so it is
  /// comparable ACROSS transport modes: with a conflict-free workload the
  /// final state is transport-invariant even though block schedules differ.
  [[nodiscard]] Hash256 state_digest() const;

  /// The rumor mesh this system created (nullptr when no message class uses
  /// Transport::kRumor).
  [[nodiscard]] gossip::RumorMesh* rumor_mesh() const { return mesh_.get(); }
  /// The per-(relay source, group) batcher (nullptr unless relays ride the
  /// rumor transport with a non-zero batch window).
  [[nodiscard]] gossip::Batcher* batcher() const { return batcher_.get(); }

  /// Attaches the phi-accrual failure detector (nullptr detaches).  Wires
  /// its suspicion signal into this layer's repair machinery: adaptive BFT
  /// view timeouts on every replica, hotter rumor pull-repair cadence while
  /// degraded, and hedged 2PC legs toward suspected contacts.  The detector
  /// itself is passive until armed (see security/detector.hpp); attaching it
  /// to a clean run changes nothing.
  void set_failure_detector(security::FailureDetector* detector);

  /// Marks a node Byzantine-silent (consensus-level fault injection).
  void set_node_silent(NodeId node);
  /// Generalized consensus-level fault injection: the mode applies to both of
  /// the node's replicas (state shard and execution channel).
  void set_node_byzantine(NodeId node, consensus::ByzantineMode mode);
  /// Call after bringing a crashed node back up: both of its replicas request
  /// state sync so they catch up instead of silently resuming at a stale
  /// height.  With `model_state_sync` on, additionally models the node's
  /// application-state recovery: reopen the durable image, proof-verified
  /// delta sync from a peer, full-copy fallback (`state_sync.*` counters).
  void on_node_recovered(NodeId node);

  // --- Storage fault injection (durable backend; no-ops otherwise) ---------
  /// The next WAL append on shard `s` persists only `keep_bytes` of its
  /// buffer — a torn write at a sector boundary.
  void storage_torn_write(ShardId s, std::uint64_t keep_bytes);
  /// While on, fsyncs on shard `s` complete but durabilize nothing.
  void storage_drop_fsyncs(ShardId s, bool drop);
  /// Flips one bit of shard `s`'s durable WAL image (latent corruption,
  /// discovered only at recovery).
  void storage_flip_bit(ShardId s, std::uint64_t bit_offset);

  /// The shard's simulated disk (nullptr unless storage_backend == kDurable).
  [[nodiscard]] ledger::MemStorageEnv* storage_env(ShardId s) const {
    return s.value < storage_envs_.size() ? storage_envs_[s.value].get() : nullptr;
  }

  /// Replica introspection for fault injection and tests.
  [[nodiscard]] const consensus::Replica& shard_replica(NodeId node) const {
    return *shard_replicas_[node.value];
  }
  /// The node currently leading shard `s`'s consensus (as seen by the first
  /// member's replica) — the target for leader-assassination faults.
  [[nodiscard]] NodeId shard_leader(ShardId s) const;

 private:
  struct ShardEngine;
  struct ChannelEngine;
  struct ShardApp;
  struct ChannelApp;
  struct ResultBatches;
  struct RelayIntake;

  [[nodiscard]] std::vector<ShardId> involved_shards(const ledger::Transaction& tx) const;
  /// The one execution site of a contract tx: its channel in the full
  /// lattice, a shard chosen by tx hash without it (kNoLattice), the home
  /// shard of its first step without network-wide logic (kNoGlobalLogic).
  /// A channel id in kFull, a shard id otherwise.
  [[nodiscard]] std::uint32_t exec_site(const ledger::Transaction& tx) const;
  [[nodiscard]] GatherUnit& site_gather(std::uint32_t site);
  /// Client delivery: a transfer goes to its sender's shard, a contract tx to
  /// every involved shard and to its execution site.
  void send_to_contacts(const ledger::Transaction& tx, const sim::Message& msg);
  [[nodiscard]] NodeId shard_contact(ShardId s) const;
  [[nodiscard]] NodeId channel_contact(ChannelId c) const;
  /// Epoch-salted consensus group tags: heights restart at 0 after each
  /// reshuffle, so the (tag, height) space must be disjoint across epochs.
  [[nodiscard]] std::uint64_t shard_tag(ShardId s) const;
  [[nodiscard]] std::uint64_t channel_tag(ChannelId c) const;

  // --- Epoch reconfiguration ------------------------------------------------
  /// (Re)creates every node's shard/channel replica + app from the current
  /// lattice and epoch (shared per-group configs, epoch-salted tags/seeds),
  /// reapplying Byzantine roles and telemetry.  Does not start them.
  void build_replicas();
  /// Schedules the next beacon round, drain start, and cutover attempt,
  /// `epoch_interval` from now.
  void schedule_epoch_cycle();
  /// Every live, non-silent node evaluates its VRF over the beacon input and
  /// gossips the contribution to the whole network.
  void start_beacon_round(std::uint64_t target_epoch);
  void handle_epoch_contribution(const sim::Message& msg);
  /// Opens the drain window: parks queued Phase-1 work (new state
  /// determinations, new 2PC rounds) so only in-flight work runs down.
  void begin_drain(std::uint64_t target_epoch);
  /// Cutover preconditions: beacon quorum reached, no transaction with a
  /// partially-applied outcome, no 2PC round mid-flight.  Retries on a short
  /// timer until they hold, then performs the cutover.
  void try_cutover(std::uint64_t target_epoch);
  void perform_cutover(std::uint64_t target_epoch);
  /// Beacon quorum size: 2N/3 + 1.
  [[nodiscard]] std::size_t min_contributions() const;
  /// Answers a grant that arrived after its transaction's gather entry already
  /// expired (the grants-then-no-tx case): sends a single abort result back to
  /// the granting shard so its Phase-1 locks release.
  void answer_dead_grant(GatherUnit& gather, std::uint32_t responder_group, NodeId node,
                         const StateGrant& grant);
  /// Settles a gather entry whose tx never arrived: the abort goes to every
  /// involved shard while the tx is still tracked (the granting shards release
  /// their Phase-1 locks, the rest settle their tracker share), otherwise to
  /// the shards that granted (`granted`, sorted).
  void abort_txless(const Hash256& tx_hash, const std::vector<std::uint32_t>& granted,
                    ResultBatches& results) const;
  /// Re-ingests a force-aborted transaction into the (new-epoch) mempools and
  /// gathers, preserving its tracker entry and submit timestamp.
  void reingest(const TxPtr& tx);
  /// Models one node's application-state recovery (crash recovery or rehome)
  /// against its shard's canonical store; counts into `state_sync.*`.
  /// `use_durable_image` is false for rehomed nodes — their disk holds their
  /// OLD shard's state, useless for the new one, so they sync from empty.
  void model_recovery_sync(NodeId node, bool use_durable_image);
  void on_node_message(NodeId node, const sim::Message& msg);
  void handle_client_tx(NodeId node, const sim::Message& msg);
  void handle_grant_batch(NodeId node, const sim::Message& msg);
  void handle_result_batch(NodeId node, const sim::Message& msg);
  void handle_two_pc(NodeId node, const sim::Message& msg);
  /// Unpacks a batched relay frame: pools the contained batches' commit
  /// certificates into ONE aggregate-verified pass, then dispatches each
  /// inner message as if it had arrived individually.
  void handle_batch_frame(NodeId node, const sim::Message& msg);
  /// Where a grant or result batch lands at `node` (see RelayIntake).
  [[nodiscard]] RelayIntake relay_intake(NodeId node, const sim::Message& msg);
  /// Relay-batch admission: drops a batch the receiving engine already
  /// ingested, parks it for the pooled verify (batched mode), else verifies
  /// its cert, then marks it seen.  True when the caller should ingest it.
  bool admit_relay_batch(NodeId node, const sim::Message& msg, const RelayIntake& in);
  /// Leg 2 of a kNoGlobalLogic subgroup relay: `node`, a member of
  /// subgroup(target, channel), rebroadcasts a hops > 0 message inside the
  /// target shard.  It gets k/S leg-1 copies but forwards once, and a batch
  /// (`in` non-null; `admitted` = admission just verified this copy) only
  /// under a certificate that verified.  Continuations carry none.
  void forward_in_shard(NodeId node, ShardId target, const sim::Message& msg,
                        const RelayIntake* in, bool admitted);
  /// Batched mode: instead of verifying a relay batch's cert on arrival, the
  /// receiving engine parks it until the next window boundary and verifies
  /// every cert that arrived in the window — from ALL source groups (at S
  /// shards a channel hears up to S granting shards concurrently) — in ONE
  /// aggregated pass.  Returns true when the batch was parked (or is a
  /// duplicate of a parked one) and the handler should stop.
  bool try_park_for_pooled_verify(NodeId node, const sim::Message& msg, const RelayIntake& in);
  void flush_verify_pool(std::uint64_t pool_tag);
  /// Verifies a relay batch's commit certificate against the source group's
  /// vote keys.  Skipped (and counted) for unsigned synthetic batches, and
  /// for certs already covered by a frame's pooled batch verification.
  [[nodiscard]] bool verify_relay_cert(const consensus::QuorumCert& cert, bool channel_group,
                                       std::uint32_t gid);
  /// A relay cert as one multisig check: the source group's vote keys and the
  /// digest its commit quorum signed.  nullopt when the signer set cannot be
  /// a quorum of that group.
  [[nodiscard]] std::optional<crypto::FastBatchEntry> relay_cert_entry(
      const consensus::QuorumCert& cert, bool channel_group, std::uint32_t gid);
  /// A group's vote keys under the CURRENT epoch's key schedule, read from
  /// its replicas.
  [[nodiscard]] const consensus::GroupKeys& source_keys(bool channel_group,
                                                        std::uint32_t gid) const;
  void tx_shard_finished(const Hash256& tx_hash, bool ok);
  void note_decide(std::uint64_t group_tag, std::uint64_t height, const Hash256& digest);
  /// Forwarding-duty dissemination of a certified outcome (grants into a
  /// channel, results into a shard) or a beacon contribution.  Routed per the
  /// network's transport mode for `kind` (DESIGN.md §12): under kRumor the
  /// message enters the push-pull mesh (whose pull repair IS the
  /// retransmission path, so no blind re-sends are needed); under kNaive /
  /// kTree it is a legacy gossip, re-sent twice more when a link-fault
  /// profile is active, because a fully lost outcome relay would otherwise
  /// wedge its transactions' locks forever (receivers dedup by batch key).
  void relay_gossip(NodeId node, const std::vector<NodeId>& group, const sim::Message& msg,
                    sim::BroadcastKind kind = sim::BroadcastKind::kRelay);
  /// Forwarding duty of a subgroup member for one certified outcome: framed
  /// by the batcher in rumor mode, else gossiped into `group` and ingested
  /// locally (dissemination skips the sender).
  void relay_outcome(NodeId node, const std::vector<NodeId>& group, sim::Message msg);

  /// Handles recovery-ladder opcodes (TwoPcPayload::op != kLeg): probes and
  /// force-abort queries at the destination shard, their replies at the
  /// coordinator's shard.
  void handle_two_pc_recovery(NodeId node, const sim::Message& msg);
  /// Unicast a 2PC leg to the destination shard's contact; when the failure
  /// detector suspects that contact from `from`'s vantage, the same message
  /// is duplicated to the deterministically-next group member (hedged send —
  /// attempt-scoped dedup makes the duplicate harmless).
  void send_two_pc(NodeId from, ShardId dest, const sim::Message& msg);
  /// Attempt-scoped 2PC dedup key ("2pc-p"/"2pc-c" + tx hash + attempt).
  /// Attempt 0 hashes exactly the pre-recovery key, so clean runs keep
  /// bit-identical dedup state.
  [[nodiscard]] static Hash256 twopc_key(const char* tag, const Hash256& h,
                                         std::uint32_t attempt);

  // Consensus app plumbing (payload types are internal to the .cpp).
  /// Flags inflight 2PC entries older than `twopc_stuck_timeout` (once each)
  /// into `twopc_stuck_total_` and the `twopc.stuck` counter, then walks the
  /// recovery ladder for every flagged round (when config_.recovery.enabled).
  void twopc_watchdog_scan();

  [[nodiscard]] std::optional<consensus::ConsensusValue> shard_propose(ShardEngine& eng,
                                                                       std::uint64_t height);
  void shard_decide(ShardEngine& eng, NodeId node, std::uint64_t height,
                    const consensus::ConsensusValue& value, const consensus::QuorumCert& cert);
  [[nodiscard]] std::optional<consensus::ConsensusValue> channel_propose(ChannelEngine& eng,
                                                                         std::uint64_t height);
  void channel_decide(ChannelEngine& eng, NodeId node, std::uint64_t height,
                      const consensus::ConsensusValue& value, const consensus::QuorumCert& cert);

  /// Executes the gathered-and-ready transactions of one gather unit (up to
  /// `limit`) as a single parallel batch (Phase 2, src/exec/), returning the
  /// (tx, result) entries in canonical ready order.  Phase-1 locks guarantee
  /// the bundles are disjoint, so the batch is bit-identical to serial replay
  /// for every worker count.
  [[nodiscard]] std::vector<std::pair<TxPtr, ExecResult>> run_gathered_batch(
      GatherUnit& gather, std::size_t limit);
  [[nodiscard]] std::vector<std::pair<ShardId, ledger::PortableState>> split_per_shard(
      ledger::PortableState updated) const;

  sim::Simulator& sim_;
  sim::Network& net_;
  telemetry::Telemetry& telemetry_;
  JengaConfig config_;
  std::unique_ptr<Lattice> lattice_;

  // --- Dissemination subsystem (src/gossip/, DESIGN.md §12) ----------------
  /// Created iff any message class runs Transport::kRumor; registered with
  /// the network so rumor-transport frames route here.
  std::unique_ptr<gossip::RumorMesh> mesh_;
  /// Coalesces forwarding-duty relays per (relayer, group) within a
  /// batch-window cadence into single framed messages (rumor mode only).
  std::unique_ptr<gossip::Batcher> batcher_;
  /// True while dispatching relay batches whose certs the pooled batch
  /// verification already covered — per-batch checks become no-ops.
  bool certs_preverified_ = false;
  /// True while re-dispatching a pool whose aggregated pass failed: handlers
  /// verify individually (isolating the forged cert) instead of re-parking.
  bool pool_bypass_ = false;
  /// Receiver-side pooled verification (batched mode), keyed by the receiving
  /// engine's group tag.
  struct VerifyPool {
    std::vector<std::pair<NodeId, sim::Message>> parked;
    std::unordered_set<std::uint64_t> keys;  // parked dedup keys (dup-drop)
    bool flush_scheduled = false;
  };
  std::unordered_map<std::uint64_t, VerifyPool> verify_pools_;

  std::vector<std::unique_ptr<ShardEngine>> shards_;
  std::vector<std::unique_ptr<ChannelEngine>> channels_;
  /// Per-shard simulated disks (storage_backend == kDurable only).
  std::vector<std::unique_ptr<ledger::MemStorageEnv>> storage_envs_;
  std::uint64_t sync_root_mismatches_ = 0;
  // Replicas are per node: [node] -> shard replica, and channel replica when
  // the full pipeline runs channels as consensus groups.
  std::vector<std::unique_ptr<consensus::Replica>> shard_replicas_;
  std::vector<std::unique_ptr<consensus::Replica>> channel_replicas_;
  std::vector<std::unique_ptr<ShardApp>> shard_apps_;
  std::vector<std::unique_ptr<ChannelApp>> channel_apps_;

  // All contract logic, network-wide; kFull and kNoLattice only.
  ledger::LogicStore all_logic_;

  // Batch execution engine shared by every execution site (Phase 2).
  std::unique_ptr<exec::Engine> exec_engine_;

  // Per-tx completion tracking, from submit() until every involved shard
  // settled the tx.
  struct TrackEntry {
    SimTime submitted = 0;
    std::uint32_t shards_left = 0;
    bool aborted = false;
    /// The tx itself, so result batches can be matched back to it without
    /// shipping the tx in every message.
    TxPtr tx;
  };
  std::unordered_map<Hash256, TrackEntry> tracker_;
  TxStats stats_;

  // First digest decided per (group tag, height), for divergence detection
  // across the replicas of each group.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Hash256> decide_ledger_;
  std::uint64_t divergent_decides_ = 0;

  std::uint64_t contact_rr_ = 0;  // round-robin over members for client entry

  // --- Epoch reconfiguration state -----------------------------------------
  std::uint64_t epoch_ = 0;
  std::unique_ptr<EpochManager> epoch_mgr_;
  std::vector<crypto::KeyPair> beacon_keys_;  // per-node VRF keys
  std::vector<NodeId> all_nodes_;             // beacon gossip group
  std::uint64_t boundary_lock_leaks_ = 0;
  std::uint64_t boundary_balance_mismatches_ = 0;
  bool draining_ = false;
  SimTime drain_started_at_ = 0;
  /// Sum of genesis balances; the boundary conservation audit's baseline.
  std::uint64_t initial_balance_ = 0;
  /// Cross-shard transfers whose debit applied but whose 2PC round has not
  /// finalized; the cutover waits for this to empty (a force-abort here would
  /// either lose or double the debit).  Each entry remembers when its debit
  /// applied and whether the watchdog already flagged it stuck.
  struct TwoPcEntry {
    SimTime since = 0;
    bool flagged = false;
    /// Retry attempt this entry belongs to (0 = original round).  Replies
    /// carrying a different attempt are stale and ignored.
    std::uint32_t attempt = 0;
    /// Node whose decide opened the round; ladder traffic originates here.
    NodeId coordinator{};
    /// Recovery-ladder position (see core/recovery.hpp).
    LadderState ladder;
    /// The transfer itself, so the ladder can rebuild probe/query payloads.
    TxPtr tx;
  };
  std::unordered_map<Hash256, TwoPcEntry> twopc_inflight_;
  std::uint64_t twopc_stuck_total_ = 0;
  /// Failure detector feeding adaptive timeouts + hedging (not owned; the
  /// harness wires it so all system variants share one construction path).
  security::FailureDetector* detector_ = nullptr;
  /// Client-tx hashes already re-routed once after landing on a node whose
  /// new-epoch assignment no longer matches the submit-time contact.
  std::unordered_set<Hash256> rerouted_;
  /// Byzantine roles survive reshuffles (the adversary corrupts nodes, not
  /// seats); reapplied to freshly built replicas.
  std::unordered_map<std::uint32_t, consensus::ByzantineMode> byz_modes_;
  /// Stopped pre-reshuffle replicas/apps.  Scheduled lambdas capture replica
  /// pointers, so these stay allocated until the system is destroyed.
  std::vector<std::unique_ptr<consensus::Replica>> retired_replicas_;
  std::vector<std::unique_ptr<ShardApp>> retired_shard_apps_;
  std::vector<std::unique_ptr<ChannelApp>> retired_channel_apps_;
  std::function<void(std::uint64_t)> boundary_hook_;
};

}  // namespace jenga::core
