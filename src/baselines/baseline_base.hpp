// Common machinery for the three baseline systems the paper compares
// against (Single Shard, CX Func, Pyramid).
//
// All baselines share: hash-placed per-shard state, one BFT committee per
// shard (same consensus engine as Jenga, per the paper's fairness note in
// §VII-A), a work-item queue agreed upon in blocks, client submission,
// 2PC transfers, fee charging, and completion tracking.  What differs is the
// contract-transaction flow, expressed through `classify_tx` (where a fresh
// tx starts) and `process_item` (what a decided item does).
//
// Cross-shard transport is configurable (paper §VII-E):
//   kClientRelay     — one message relayed via the client (2 latency legs);
//                      the paper's own baseline implementation.
//   kQuorumBroadcast — f+1 source members each broadcast to every member of
//                      the destination shard (the "more secure" scheme).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "consensus/bft.hpp"
#include "core/jenga_system.hpp"  // Genesis, TxPtr, protocol payload types
#include "exec/engine.hpp"
#include "ledger/block.hpp"
#include "ledger/locks.hpp"
#include "ledger/state_store.hpp"
#include "simnet/network.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::baselines {

using core::Genesis;
using core::TxPtr;

enum class CrossShardMode : std::uint8_t { kClientRelay = 0, kQuorumBroadcast };

struct BaselineConfig {
  std::uint32_t num_shards = 4;
  std::uint32_t nodes_per_shard = 16;
  std::uint64_t seed = 1;
  std::uint32_t max_block_items = 4096;
  SimTime view_timeout = 120 * kSecond;
  CrossShardMode cross_mode = CrossShardMode::kClientRelay;
  /// Lock conflicts re-enqueue the item this many times before aborting.
  std::uint32_t max_lock_retries = 24;
  /// Pyramid only: how many consecutive shards one merged committee spans.
  std::uint32_t merge_span = 2;
  /// Worker threads for batch transaction execution (src/exec/).  Results are
  /// bit-identical for every value; 1 = serial, no threads spawned.
  std::uint32_t exec_workers = 1;
};

/// A unit of work a shard's consensus agrees on.  The `kind` is interpreted
/// by the concrete system; stage/aux carry step indices or 2PC stages; the
/// state bundle carries moved account/contract state where the flow needs it.
struct WorkItem {
  enum class Kind : std::uint8_t {
    kStepExec = 0,   // CX Func / Pyramid: execute a step group locally
    kCommit,         // final cross-shard commit/abort of a contract tx
    kTransfer,       // 2PC fund transfer (stage 0/1/2)
    kMoveOut,        // Single Shard: ship account state to the contract shard
    kExec,           // Single Shard / Pyramid: execute whole tx at one site
  };

  Kind kind = Kind::kStepExec;
  TxPtr tx;
  std::uint8_t stage = 0;
  bool ok = true;
  std::uint32_t aux = 0;                 // step index / coverage info
  std::uint32_t retry = 0;               // lock-conflict retry counter
  ledger::PortableState state;           // carried bundle (may be empty)

  [[nodiscard]] std::uint32_t wire_size() const {
    return ledger::kTxWireBytes + state.wire_size();
  }
  [[nodiscard]] Hash256 dedup_key() const;
};

/// Split of an exec-kind work item around the batch engine (src/exec/):
/// prepare_exec() runs the serial prologue (locks, state slicing, task
/// assembly), the engine executes the VM part, and decide() settles the
/// outcome in block order: a lock conflict retries or aborts, a failed run
/// aborts, and a successful run goes to finish_exec() holding only the
/// balances the VM changed.
struct PreparedExec {
  enum class Action : std::uint8_t {
    kLockBusy = 0,  // lock conflict: retried, then aborted
    kRun,           // task handed to the engine
  };
  Action action = Action::kLockBusy;
  exec::Task task;
  std::uint32_t next = 0;  // step cursor after this group (step-group flows)
};

class BaselineSystem {
 public:
  /// `telemetry` must outlive the system: per-tx phase tracing plus BFT
  /// sub-spans in every replica.  The baseline flows map onto the same phase
  /// partition as Jenga (work-item kinds are classified in decide()), so
  /// breakdown benches compare like with like.
  BaselineSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
                 BaselineConfig config, Genesis genesis);
  virtual ~BaselineSystem();

  BaselineSystem(const BaselineSystem&) = delete;
  BaselineSystem& operator=(const BaselineSystem&) = delete;

  void start();
  void submit(TxPtr tx);

  [[nodiscard]] const TxStats& stats() const { return stats_; }
  /// Transactions submitted but neither committed nor aborted yet (the
  /// open-loop dispatcher's credit window reads this).
  [[nodiscard]] std::size_t in_flight() const { return tracker_.size(); }
  [[nodiscard]] const BaselineConfig& config() const { return config_; }
  [[nodiscard]] virtual StorageReport storage_report() const;
  [[nodiscard]] const ledger::Chain& shard_chain(ShardId s) const;
  [[nodiscard]] const ledger::StateStore& shard_store(ShardId s) const;
  [[nodiscard]] std::uint64_t total_account_balance() const;
  [[nodiscard]] std::size_t held_locks() const;
  /// Canonical digest over every shard's chain tip and state store — the
  /// ledger root the determinism tests compare across exec worker counts.
  [[nodiscard]] Hash256 ledger_digest() const;

 protected:
  struct Shard {
    ShardId id;
    ledger::StateStore store;
    ledger::LockManager locks;
    ledger::Chain chain;
    ledger::LogicStore logic;  // this shard's logic share
    std::deque<WorkItem> queue;
    std::unordered_set<Hash256> seen;  // client + cross-shard item dedup
    /// Buffered tentative updates awaiting the final commit round.
    std::unordered_map<Hash256, ledger::PortableState> buffered;
    std::uint64_t next_process_height = 0;

    explicit Shard(ShardId s) : id(s), chain(s) {}
  };

  /// Mutable context for one decided block (chain append accumulator).
  struct BlockCtx {
    std::vector<Hash256> committed;
    std::uint64_t body_bytes = 0;
  };

  /// Which shard receives a freshly submitted contract tx, and as what item.
  virtual std::pair<ShardId, WorkItem> classify_tx(const TxPtr& tx) = 0;
  /// Executes one decided work item on its shard.
  virtual void process_item(Shard& shard, NodeId decider, const WorkItem& item,
                            BlockCtx& ctx) = 0;

  /// Batch-execution hooks.  Items for which is_exec_item() returns true are
  /// routed through prepare_exec() → exec::Engine → finish_exec() instead of
  /// process_item().  decide() hands each run of exec items between two
  /// other items to the engine as one batch and calls both hooks in block
  /// order; finish_exec() only buffers, enqueues and sends, so no prepare
  /// of the same batch can observe it, and the flow is serially equivalent
  /// and bit-identical for every worker count.  finish_exec() sees only
  /// successful runs, with every balance the VM left unchanged dropped:
  /// baseline accounts are not locked, and writing back a stale balance
  /// would undo a fee or transfer applied in the meantime.
  [[nodiscard]] virtual bool is_exec_item(const WorkItem&) const { return false; }
  virtual PreparedExec prepare_exec(Shard&, const WorkItem&) { return {}; }
  virtual void finish_exec(Shard&, NodeId, const WorkItem&, const PreparedExec&,
                           exec::TaskResult&, BlockCtx&) {}

  /// All shards a tx's completion involves (contracts + declared accounts).
  [[nodiscard]] std::vector<ShardId> involved_shards(const ledger::Transaction& tx) const;
  /// Where a contract's state/logic lives; Single Shard overrides to pin
  /// everything on shard 0.
  [[nodiscard]] virtual ShardId home_of_contract(ContractId c) const;
  [[nodiscard]] ShardId home_of_account(AccountId a) const;
  [[nodiscard]] NodeId contact(ShardId s) const;
  /// Places contract state + logic using home_of_contract(); concrete
  /// constructors call this once.
  void place_contracts();

  /// Cross-shard hand-off honoring the configured transport mode.
  void send_cross(NodeId from, ShardId source, ShardId target, WorkItem item);
  /// Queues an item locally (with dedup), as if it had just arrived.
  void enqueue(Shard& shard, WorkItem item);

  /// Standard final-commit processing shared by the systems: unlock, apply
  /// or discard buffered updates, charge fees, track completion.
  void apply_commit(Shard& shard, const WorkItem& item, BlockCtx& ctx);
  /// 2PC transfer stage machine (identical to Jenga's "traditional scheme").
  void process_transfer(Shard& shard, NodeId decider, const WorkItem& item, BlockCtx& ctx);
  /// Re-enqueues `item` with a bumped retry counter if budget remains;
  /// otherwise fans out an abort.  Returns true if a retry was scheduled.
  bool retry_or_abort(Shard& shard, NodeId decider, const WorkItem& item);

  void tx_shard_finished(const Hash256& tx_hash, bool ok);
  /// Broadcasts kCommit items to every involved shard (cross for others,
  /// local enqueue for this one); each other shard's item carries the
  /// balances of `shipped` homed there.
  void broadcast_commit(Shard& from_shard, NodeId decider, const TxPtr& tx, bool ok,
                        const ledger::PortableState& shipped = {});

  sim::Simulator& sim_;
  sim::Network& net_;
  telemetry::Telemetry& telemetry_;
  BaselineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Kept until the concrete constructor calls place_contracts(), which moves
  /// the initial states out.
  Genesis genesis_;
  /// Batch execution engine shared by every shard's decide path.
  std::unique_ptr<exec::Engine> exec_engine_;

  struct TrackEntry {
    SimTime submitted = 0;
    std::uint32_t shards_left = 0;
    bool aborted = false;
  };
  std::unordered_map<Hash256, TrackEntry> tracker_;
  TxStats stats_;
  std::uint64_t contact_rr_ = 0;

 private:
  struct App;
  [[nodiscard]] std::optional<consensus::ConsensusValue> propose(Shard& shard,
                                                                 std::uint64_t height);
  void decide(Shard& shard, NodeId node, std::uint64_t height,
              const consensus::ConsensusValue& value);
  void on_node_message(NodeId node, const sim::Message& msg);

  [[nodiscard]] ShardId shard_of_node(NodeId n) const {
    return ShardId{n.value / config_.nodes_per_shard};
  }

  std::vector<std::unique_ptr<consensus::Replica>> replicas_;
  std::vector<std::unique_ptr<App>> apps_;
};

}  // namespace jenga::baselines
