#include "baselines/baseline_base.hpp"

#include <algorithm>

#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"
#include "ledger/placement.hpp"

namespace jenga::baselines {
namespace {

using core::TwoPcPayload;
using core::TxPayload;
using ledger::Transaction;
using ledger::TxKind;

constexpr std::uint64_t kBaselineGroupTag = 0xBA5E0000ULL;

/// Work item carrier between shards.
struct ItemPayload : sim::Payload {
  WorkItem item;
};

/// What a shard's consensus decides on.
struct BlockPayload : sim::Payload {
  ShardId shard;
  std::vector<WorkItem> items;
};

}  // namespace

Hash256 WorkItem::dedup_key() const {
  crypto::Sha256 h;
  h.update("jenga/baseline-item");
  h.update(tx ? tx->hash : Hash256{});
  h.update_u64(static_cast<std::uint64_t>(kind));
  h.update_u64(stage);
  h.update_u64(aux);
  h.update_u64(retry);
  h.update_u64(ok ? 1 : 0);
  return h.finish();
}

struct BaselineSystem::App final : consensus::BftApp {
  BaselineSystem* sys = nullptr;
  Shard* shard = nullptr;
  NodeId node;

  std::optional<consensus::ConsensusValue> propose(std::uint64_t height) override {
    return sys->propose(*shard, height);
  }
  bool validate(std::uint64_t, const consensus::ConsensusValue&) override { return true; }
  void on_decide(std::uint64_t height, const consensus::ConsensusValue& value,
                 const consensus::QuorumCert&) override {
    sys->decide(*shard, node, height, value);
  }
};

BaselineSystem::BaselineSystem(sim::Simulator& sim, sim::Network& net,
                               telemetry::Telemetry& telemetry, BaselineConfig config,
                               Genesis genesis)
    : sim_(sim), net_(net), telemetry_(telemetry), config_(config), genesis_(std::move(genesis)) {
  exec::EngineOptions eo;
  eo.workers = config_.exec_workers;
  exec_engine_ = std::make_unique<exec::Engine>(eo);
  exec_engine_->set_metrics(&telemetry_.registry);

  for (std::uint32_t s = 0; s < config_.num_shards; ++s)
    shards_.push_back(std::make_unique<Shard>(ShardId{s}));

  for (std::uint64_t a = 0; a < genesis_.num_accounts; ++a) {
    const ShardId s = ledger::shard_of_account(AccountId{a}, config_.num_shards);
    shards_[s.value]->store.create_account(AccountId{a}, genesis_.initial_balance);
  }
  // Contract state/logic placement is system-specific: concrete systems call
  // place_contracts() from their constructors after home_of_contract() is
  // meaningful for them.

  const std::uint32_t n = config_.num_shards * config_.nodes_per_shard;
  replicas_.resize(n);
  apps_.resize(n);
  std::vector<std::shared_ptr<consensus::BftConfig>> cfg(config_.num_shards);
  for (std::uint32_t g = 0; g < config_.num_shards; ++g) {
    auto bc = std::make_shared<consensus::BftConfig>();
    for (std::uint32_t i = 0; i < config_.nodes_per_shard; ++i)
      bc->members.push_back(NodeId{g * config_.nodes_per_shard + i});
    bc->group_tag = kBaselineGroupTag | g;
    bc->crypto_seed = config_.seed ^ (0xBA5E0000ULL + g);
    bc->view_timeout = config_.view_timeout;
    cfg[g] = std::move(bc);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node{i};
    const ShardId s = shard_of_node(node);
    auto app = std::make_unique<App>();
    app->sys = this;
    app->shard = shards_[s.value].get();
    app->node = node;
    replicas_[i] = std::make_unique<consensus::Replica>(net_, node, cfg[s.value], *app);
    replicas_[i]->set_telemetry(&telemetry_);
    apps_[i] = std::move(app);
    net_.register_node(node, [this, node](const sim::Message& m) { on_node_message(node, m); });
  }
}

BaselineSystem::~BaselineSystem() = default;

void BaselineSystem::place_contracts() {
  // The initial states move into the stores: genesis_ lives for the whole
  // run, and a copy kept there would double the contracts' set-up memory.
  for (std::size_t c = 0; c < genesis_.contracts.size(); ++c) {
    const ContractId id = genesis_.contracts[c]->id;
    const ShardId s = home_of_contract(id);
    shards_[s.value]->store.create_contract_state(
        id, c < genesis_.initial_states.size() ? std::move(genesis_.initial_states[c])
                                               : ledger::ContractState{});
    shards_[s.value]->logic.add(genesis_.contracts[c]);
  }
  genesis_.initial_states = {};
}

void BaselineSystem::start() {
  for (auto& r : replicas_) r->start();
}

std::vector<ShardId> BaselineSystem::involved_shards(const Transaction& tx) const {
  std::vector<ShardId> out;
  auto add = [&out](ShardId s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  };
  if (tx.kind == TxKind::kTransfer) {
    add(home_of_account(tx.sender));
    add(home_of_account(tx.to));
    return out;
  }
  for (auto c : tx.contracts) add(home_of_contract(c));
  for (auto a : tx.accounts) add(home_of_account(a));
  return out;
}

ShardId BaselineSystem::home_of_contract(ContractId c) const {
  return ledger::shard_of_contract(c, config_.num_shards);
}
ShardId BaselineSystem::home_of_account(AccountId a) const {
  return ledger::shard_of_account(a, config_.num_shards);
}

NodeId BaselineSystem::contact(ShardId s) const {
  return NodeId{s.value * config_.nodes_per_shard +
                static_cast<std::uint32_t>(contact_rr_ % config_.nodes_per_shard)};
}

void BaselineSystem::submit(TxPtr tx) {
  const SimTime now = sim_.now();
  ++stats_.submitted;
  if (stats_.first_submit_time == 0 && stats_.submitted == 1) stats_.first_submit_time = now;
  const auto involved = involved_shards(*tx);
  tracker_[tx->hash] = TrackEntry{now, static_cast<std::uint32_t>(involved.size()), false};
  telemetry_.tracer.on_submit(tx->hash, now);
  ++contact_rr_;

  WorkItem item;
  item.tx = tx;
  ShardId target;
  if (tx->kind == TxKind::kTransfer) {
    item.kind = WorkItem::Kind::kTransfer;
    item.stage = 0;
    target = home_of_account(tx->sender);
  } else {
    std::tie(target, item) = classify_tx(tx);
  }

  auto payload = std::make_shared<ItemPayload>();
  payload->item = std::move(item);
  sim::Message msg;
  msg.type = sim::MsgType::kClientTx;
  msg.size_bytes = tx->wire_size();
  msg.payload = std::move(payload);
  net_.client_send(contact(target), msg);
}

void BaselineSystem::enqueue(Shard& shard, WorkItem item) {
  const Hash256 key = item.dedup_key();
  if (shard.seen.contains(key)) return;
  shard.seen.insert(key);
  shard.queue.push_back(std::move(item));
}

void BaselineSystem::send_cross(NodeId from, ShardId source, ShardId target, WorkItem item) {
  if (source == target) {
    enqueue(*shards_[target.value], std::move(item));
    return;
  }
  auto payload = std::make_shared<ItemPayload>();
  const std::uint32_t size = item.wire_size();
  payload->item = std::move(item);
  sim::Message msg;
  msg.type = sim::MsgType::kSubTxResult;
  msg.from = from;
  msg.size_bytes = size;
  msg.payload = std::move(payload);

  if (config_.cross_mode == CrossShardMode::kClientRelay) {
    net_.send_via_relay(from, contact(target), msg, sim::TrafficClass::kCrossShard);
    return;
  }
  // Quorum broadcast: f+1 source members each multicast to every target
  // member, so at least one honest sender reaches everyone.
  const std::uint32_t f = (config_.nodes_per_shard - 1) / 3;
  std::vector<NodeId> targets;
  for (std::uint32_t i = 0; i < config_.nodes_per_shard; ++i)
    targets.push_back(NodeId{target.value * config_.nodes_per_shard + i});
  for (std::uint32_t s = 0; s <= f; ++s) {
    const NodeId sender{source.value * config_.nodes_per_shard + s};
    sim::Message copy = msg;
    copy.from = sender;
    net_.multicast(sender, targets, copy, sim::TrafficClass::kCrossShard);
  }
}

void BaselineSystem::on_node_message(NodeId node, const sim::Message& msg) {
  switch (msg.type) {
    case sim::MsgType::kClientTx:
    case sim::MsgType::kSubTxResult: {
      const auto& p = sim::payload_as<ItemPayload>(msg);
      enqueue(*shards_[shard_of_node(node).value], p.item);
      return;
    }
    default:
      break;
  }
  replicas_[node.value]->on_message(msg);
}

std::optional<consensus::ConsensusValue> BaselineSystem::propose(Shard& shard,
                                                                 std::uint64_t height) {
  if (shard.queue.empty()) return std::nullopt;
  auto payload = std::make_shared<BlockPayload>();
  payload->shard = shard.id;
  std::uint32_t size = 128;
  crypto::Sha256 digest;
  digest.update("jenga/baseline-block");
  digest.update_u64(kBaselineGroupTag | shard.id.value);
  digest.update_u64(height);
  for (std::size_t i = 0; i < shard.queue.size() && i < config_.max_block_items; ++i) {
    payload->items.push_back(shard.queue[i]);
    size += shard.queue[i].wire_size();
    digest.update(shard.queue[i].dedup_key());
  }
  consensus::ConsensusValue v;
  v.digest = digest.finish();
  v.size_bytes = size;
  for (const WorkItem& item : payload->items) {
    const bool executes =
        item.kind == WorkItem::Kind::kStepExec || item.kind == WorkItem::Kind::kExec;
    v.exec_delay += executes ? core::kExecItemCpu : core::kLightItemCpu;
  }
  v.data = std::move(payload);
  return v;
}

void BaselineSystem::decide(Shard& shard, NodeId node, std::uint64_t height,
                            const consensus::ConsensusValue& value) {
  const auto* payload = dynamic_cast<const BlockPayload*>(value.data.get());
  if (payload == nullptr) return;
  if (height < shard.next_process_height) return;  // engine processed already
  shard.next_process_height = height + 1;

  BlockCtx ctx;

  // Exec-kind items are gathered into conflict-free segments and executed as
  // one engine batch.  The serial prologue (prepare) and the effect side
  // (finish) both run in canonical block order on this thread; a segment is
  // flushed before any non-exec item and before any item whose declared
  // footprint (or tx identity) overlaps one already in flight, so the block's
  // observable effects are exactly those of item-by-item processing.
  struct SegEntry {
    const WorkItem* item;
    PreparedExec prep;
    exec::AccessSet access;
  };
  std::vector<SegEntry> segment;
  auto flush_segment = [&]() {
    if (segment.empty()) return;
    std::vector<exec::Task> tasks;
    std::vector<std::size_t> slot;
    for (std::size_t i = 0; i < segment.size(); ++i) {
      if (segment[i].prep.action != PreparedExec::Action::kRun) continue;
      tasks.push_back(std::move(segment[i].prep.task));
      slot.push_back(i);
    }
    std::vector<exec::TaskResult> results = exec_engine_->run_batch(std::move(tasks));
    std::vector<exec::TaskResult*> res_for(segment.size(), nullptr);
    for (std::size_t k = 0; k < results.size(); ++k) res_for[slot[k]] = &results[k];
    for (std::size_t i = 0; i < segment.size(); ++i)
      finish_exec(shard, node, *segment[i].item, segment[i].prep, res_for[i], ctx);
    segment.clear();
  };

  for (const WorkItem& item : payload->items) {
    if (item.tx) {
      // Classify the decided item onto the shared phase partition so the
      // latency-breakdown benches compare baselines against Jenga like for
      // like: state movement/locking, execution, commit application.
      telemetry::Phase ph;
      switch (item.kind) {
        case WorkItem::Kind::kMoveOut: ph = telemetry::Phase::kStateLock; break;
        case WorkItem::Kind::kStepExec:
        case WorkItem::Kind::kExec: ph = telemetry::Phase::kExecute; break;
        case WorkItem::Kind::kCommit: ph = telemetry::Phase::kCommitApply; break;
        case WorkItem::Kind::kTransfer:
          ph = item.stage == 0   ? telemetry::Phase::kStateLock
               : item.stage == 1 ? telemetry::Phase::kExecute
                                 : telemetry::Phase::kCommitApply;
          break;
        default: ph = telemetry::Phase::kExecute; break;
      }
      telemetry_.tracer.phase_event(item.tx->hash, ph, shard.id.value, sim_.now());
    }
    if (item.tx && is_exec_item(item)) {
      exec::AccessSet access = exec::declared_access(*item.tx);
      access.writes.push_back(exec::tx_key(item.tx->hash));
      access.normalize();
      const bool clashes =
          std::any_of(segment.begin(), segment.end(),
                      [&](const SegEntry& e) { return exec::conflicts(access, e.access); });
      if (clashes) flush_segment();
      SegEntry entry;
      entry.item = &item;
      entry.prep = prepare_exec(shard, item);
      entry.access = std::move(access);
      segment.push_back(std::move(entry));
      continue;
    }
    flush_segment();
    if (item.kind == WorkItem::Kind::kTransfer) {
      process_transfer(shard, node, item, ctx);
    } else {
      process_item(shard, node, item, ctx);
    }
  }
  flush_segment();
  for (std::size_t i = 0; i < payload->items.size(); ++i) shard.queue.pop_front();

  if (!ctx.committed.empty()) {
    shard.chain.append(ledger::build_block(shard.id, shard.chain.height(),
                                           shard.chain.tip_hash(), std::move(ctx.committed),
                                           ctx.body_bytes, sim_.now()));
  }
}

void BaselineSystem::apply_commit(Shard& shard, const WorkItem& item, BlockCtx& ctx) {
  const Transaction& tx = *item.tx;
  for (auto c : tx.contracts)
    if (home_of_contract(c) == shard.id) shard.locks.unlock_contract(c, tx.hash);
  for (auto a : tx.accounts)
    if (home_of_account(a) == shard.id) shard.locks.unlock_account(a, tx.hash);

  const auto buffered = shard.buffered.find(tx.hash);
  if (item.ok) {
    if (buffered != shard.buffered.end()) {
      for (const auto& [c, st] : buffered->second.contracts)
        shard.store.set_contract_state(c, st);
      for (const auto& [a, bal] : buffered->second.balances) shard.store.set_balance(a, bal);
    }
    // Updates carried in the item itself (Single Shard's move-back).
    for (const auto& [c, st] : item.state.contracts) shard.store.set_contract_state(c, st);
    for (const auto& [a, bal] : item.state.balances) shard.store.set_balance(a, bal);
    ctx.committed.push_back(tx.hash);
    ctx.body_bytes += tx.wire_size();
  }
  if (buffered != shard.buffered.end()) shard.buffered.erase(buffered);

  // Fee charged by the sender's shard on both outcomes (paper §V-C).
  if (home_of_account(tx.sender) == shard.id) {
    const std::uint64_t bal = shard.store.balance(tx.sender).value_or(0);
    const std::uint64_t charge = std::min(bal, tx.fee);
    shard.store.set_balance(tx.sender, bal - charge);
    stats_.fees_charged += charge;
  }
  tx_shard_finished(tx.hash, item.ok);
}

void BaselineSystem::broadcast_commit(Shard& from_shard, NodeId decider, const TxPtr& tx,
                                      bool ok) {
  for (ShardId target : involved_shards(*tx)) {
    WorkItem commit;
    commit.kind = WorkItem::Kind::kCommit;
    commit.tx = tx;
    commit.ok = ok;
    if (target == from_shard.id) {
      enqueue(from_shard, std::move(commit));
    } else {
      send_cross(decider, from_shard.id, target, std::move(commit));
    }
  }
}

void BaselineSystem::process_transfer(Shard& shard, NodeId decider, const WorkItem& item,
                                      BlockCtx& ctx) {
  const Transaction& tx = *item.tx;
  const ShardId dest = home_of_account(tx.to);
  switch (item.stage) {
    case 0: {
      const auto bal = shard.store.balance(tx.sender);
      if (!bal || *bal < tx.amount) {
        tx_shard_finished(tx.hash, false);
        if (dest != shard.id) tx_shard_finished(tx.hash, false);
        break;
      }
      shard.store.set_balance(tx.sender, *bal - tx.amount);
      if (dest == shard.id) {
        shard.store.set_balance(tx.to, shard.store.balance(tx.to).value_or(0) + tx.amount);
        ctx.committed.push_back(tx.hash);
        ctx.body_bytes += tx.wire_size();
        tx_shard_finished(tx.hash, true);
      } else {
        WorkItem next = item;
        next.stage = 1;
        send_cross(decider, shard.id, dest, std::move(next));
      }
      break;
    }
    case 1: {
      shard.store.set_balance(tx.to, shard.store.balance(tx.to).value_or(0) + tx.amount);
      ctx.committed.push_back(tx.hash);
      ctx.body_bytes += tx.wire_size();
      tx_shard_finished(tx.hash, true);
      WorkItem ack = item;
      ack.stage = 2;
      send_cross(decider, shard.id, home_of_account(tx.sender), std::move(ack));
      break;
    }
    case 2: {
      ctx.committed.push_back(tx.hash);
      ctx.body_bytes += tx.wire_size();
      tx_shard_finished(tx.hash, true);
      break;
    }
    default:
      break;
  }
}

bool BaselineSystem::retry_or_abort(Shard& shard, NodeId decider, const WorkItem& item) {
  if (item.retry < config_.max_lock_retries) {
    WorkItem again = item;
    again.retry += 1;
    enqueue(shard, std::move(again));
    return true;
  }
  broadcast_commit(shard, decider, item.tx, /*ok=*/false);
  return false;
}

void BaselineSystem::tx_shard_finished(const Hash256& tx_hash, bool ok) {
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
  telemetry_.tracer.on_finish(tx_hash, !e.aborted, sim_.now());
  telemetry_.registry.counter(e.aborted ? "tx.aborted" : "tx.committed").inc();
  if (!e.aborted)
    telemetry_.registry.histogram("tx.commit_latency_us").record(sim_.now() - e.submitted);
  tracker_.erase(it);
}

StorageReport BaselineSystem::storage_report() const {
  StorageReport r;
  std::uint64_t chain = 0, state = 0, logic = 0;
  for (const auto& s : shards_) {
    chain += s->chain.total_bytes();
    state += s->store.state_storage_bytes();
    logic += s->logic.logic_storage_bytes();
  }
  r.chain_bytes_per_node = chain / config_.num_shards;
  r.state_bytes_per_node = state / config_.num_shards;
  r.logic_bytes_per_node = logic / config_.num_shards;
  return r;
}

const ledger::Chain& BaselineSystem::shard_chain(ShardId s) const {
  return shards_[s.value]->chain;
}
const ledger::StateStore& BaselineSystem::shard_store(ShardId s) const {
  return shards_[s.value]->store;
}

std::uint64_t BaselineSystem::total_account_balance() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->store.total_balance();
  return sum;
}

std::size_t BaselineSystem::held_locks() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->locks.held_locks();
  return n;
}

Hash256 BaselineSystem::ledger_digest() const {
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

}  // namespace jenga::baselines
