#include "consensus/bft.hpp"

#include <algorithm>
#include <cassert>

#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"

namespace jenga::consensus {

Hash256 vote_digest(const Hash256& value_digest, std::uint64_t height, std::uint32_t view,
                    bool commit_phase) {
  crypto::Sha256 h;
  h.update(commit_phase ? "jenga/bft-commit" : "jenga/bft-prepare");
  h.update(value_digest);
  h.update_u64(height);
  h.update_u64(view);
  return h.finish();
}

const GroupKeys& BftConfig::group_keys() const {
  if (keys_ == nullptr) {
    auto table = std::make_unique<GroupKeys>();
    table->keys.reserve(members.size());
    table->public_ids.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      table->keys.push_back(crypto::fast_keypair(crypto_seed * 0x9E3779B9ULL + i));
      table->public_ids.push_back(table->keys.back().public_id);
    }
    keys_ = std::move(table);
  }
  return *keys_;
}

namespace {

/// A leader with nothing to propose asks its app again after this long.
constexpr SimTime kProposeRetry = 50 * kMillisecond;
/// Every consensus message stays inside its group.
constexpr sim::TrafficClass kGroupTraffic = sim::TrafficClass::kIntraShard;

/// Rumor identity of a proposal broadcast: the same (group, height, view,
/// value) proposed by any sender dedups to one spread.
std::uint64_t proposal_rumor_id(std::uint64_t group_tag, std::uint64_t height,
                                std::uint32_t view, const Hash256& digest) {
  std::uint64_t w = 0;
  for (int i = 0; i < 8; ++i) w = (w << 8) | digest.bytes[static_cast<std::size_t>(i)];
  return sim::rumor_id_mix(group_tag, height, view, w);
}

/// `part` of the payload `msg` carries, kept alive by that payload.
template <typename T>
std::shared_ptr<const T> share(const sim::Message& msg, const T& part) {
  return std::shared_ptr<const T>(msg.payload, &part);
}

}  // namespace

Replica::Replica(sim::Network& net, NodeId self, std::shared_ptr<const BftConfig> config,
                 BftApp& app)
    : net_(net),
      self_(self),
      config_(std::move(config)),
      app_(app),
      keys_(config_->group_keys()),
      view_timer_(net.simulator(), [this] { on_view_timeout(timer_height_, timer_view_); }) {}

void Replica::start() {
  started_ = true;
  enter_height(next_height_);
}

void Replica::stop() {
  stopped_ = true;
  started_ = false;
  // The guards in on_message / broadcast / send_to neutralize the
  // captured-`this` lambdas (propose retries, exec-delay broadcasts, delayed
  // votes); the view timer's queued event stays queued and drops itself.
  view_timer_.cancel();
}

NodeId Replica::leader_for(std::uint32_t view) const {
  const std::size_t n = config_->members.size();
  return config_->members[(next_height_ + view) % n];
}

std::optional<std::size_t> Replica::member_index(NodeId id) const {
  for (std::size_t i = 0; i < config_->members.size(); ++i)
    if (config_->members[i] == id) return i;
  return std::nullopt;
}

bool Replica::verify_cert(const QuorumCert& cert, bool commit_phase) const {
  if (cert.sig.signer_count() < quorum()) return false;
  return crypto::fast_verify_multisig(
      keys_.public_ids, vote_digest(cert.value_digest, cert.height, cert.view, commit_phase),
      cert.sig);
}

void Replica::broadcast(const sim::Message& msg, bool gossip, std::uint64_t rumor_id) {
  if (stopped_) return;
  if (gossip) {
    net_.broadcast(sim::BroadcastKind::kProposal, self_, config_->members, rumor_id, msg,
                   kGroupTraffic);
  } else {
    net_.multicast(self_, config_->members, msg, kGroupTraffic);
  }
}

void Replica::send_to(NodeId to, const sim::Message& msg) {
  if (stopped_) return;
  if (to == self_) {
    // Local hand-off: no network traversal.
    net_.simulator().schedule_after(0, [this, msg] { on_message(msg); });
    return;
  }
  net_.send(self_, to, msg, kGroupTraffic);
}

void Replica::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  if (t == nullptr) {
    round_hist_ = nullptr;
    view_change_hist_ = nullptr;
    return;
  }
  round_hist_ = &t->registry.histogram("bft.round_us");
  view_change_hist_ = &t->registry.histogram("bft.view_change_us");
}

void Replica::enter_height(std::uint64_t height) {
  round_begin_ = net_.simulator().now();
  next_height_ = height;
  view_ = 0;
  proposal_ = nullptr;
  prepare_votes_.assign(config_->members.size(), false);
  commit_votes_.assign(config_->members.size(), false);
  prepared_cert_sent_ = false;
  commit_cert_sent_ = false;
  current_value_ = nullptr;
  seen_proposal_digest_.reset();
  sent_prepare_ = false;
  sent_commit_ = false;
  prepared_cert_.reset();
  view_votes_.clear();
  next_view_vote_ = 0;
  equivocation_view_change_sent_ = false;
  arm_view_timer();
  if (is_leader()) {
    net_.simulator().schedule_after(0, [this, height] {
      if (next_height_ == height) try_propose();
    });
  }
  if (!future_.empty()) {
    std::vector<sim::Message> replay;
    replay.swap(future_);
    for (auto& msg : replay) on_message(msg);
  }
}

void Replica::arm_view_timer() {
  timer_height_ = next_height_;
  timer_view_ = view_;
  // The failure detector (when attached) adapts the timeout: a suspected-dead
  // leader is cut loose faster, a merely-degraded network gets more slack
  // before replicas start voting the leader out.
  SimTime timeout = config_->view_timeout;
  if (view_timeout_hook_) timeout = view_timeout_hook_(self_, leader_for(view_), timeout);
  view_timer_.arm_after(timeout);
}

void Replica::on_view_timeout(std::uint64_t height, std::uint32_t view) {
  if (next_height_ != height || view_ != view) return;
  if (byz_ == ByzantineMode::kSilent) return;
  if (view_change_begin_ < 0) view_change_begin_ = net_.simulator().now();
  // Escalate one view further on each consecutive timeout, so a run of dead
  // leaders is eventually skipped.
  const std::uint32_t new_view = std::max(view + 1, next_view_vote_ + 1);
  next_view_vote_ = new_view;
  auto payload = std::make_shared<ViewChangePayload>();
  payload->group = config_->group_tag;
  payload->height = height;
  payload->new_view = new_view;
  payload->member_index = member_index(self_).value_or(0);
  if (prepared_cert_ && current_value_) {
    payload->prepared = *prepared_cert_;
    payload->prepared_value = *current_value_;
  }
  sim::Message msg;
  msg.type = sim::MsgType::kBftViewChange;
  msg.from = self_;
  msg.size_bytes = kViewChangeWireBytes;
  msg.payload = std::move(payload);

  // The prospective new leader for (height, new_view).
  const std::size_t n = config_->members.size();
  send_to(config_->members[(height + new_view) % n], msg);
  arm_view_timer();  // keep escalating if this view also stalls
}

void Replica::try_propose() {
  if (!started_ || stopped_ || !is_leader() || proposal_ != nullptr) return;
  if (byz_ == ByzantineMode::kSilent || byz_ == ByzantineMode::kMuteProposer) return;

  auto value = app_.propose(next_height_);
  if (!value) {
    const std::uint64_t h = next_height_;
    net_.simulator().schedule_after(kProposeRetry, [this, h] {
      if (next_height_ == h && is_leader()) try_propose();
    });
    return;
  }

  if (byz_ == ByzantineMode::kEquivocator) {
    propose_equivocating(*value);
    return;
  }

  auto payload = std::make_shared<ProposalPayload>();
  payload->group = config_->group_tag;
  payload->height = next_height_;
  payload->view = view_;
  payload->value = std::move(*value);
  current_value_ = std::shared_ptr<const ConsensusValue>(payload, &payload->value);
  proposal_ = current_value_;
  sim::Message msg;
  msg.type = sim::MsgType::kBftPrePrepare;
  msg.from = self_;
  msg.size_bytes = kProposalOverheadBytes + proposal_->size_bytes;
  msg.payload = std::move(payload);

  // The leader spends the block-assembly/execution time before the proposal
  // leaves its machine.
  const std::uint64_t h = next_height_;
  const std::uint32_t v = view_;
  const std::uint64_t rid = proposal_rumor_id(config_->group_tag, h, v, proposal_->digest);
  net_.simulator().schedule_after(proposal_->exec_delay, [this, h, v, msg, rid] {
    if (next_height_ != h || view_ != v) return;
    broadcast(msg, /*gossip=*/true, rid);
    const auto idx = member_index(self_);
    if (idx) {
      prepare_votes_[*idx] = true;
      sent_prepare_ = true;
      leader_try_assemble(/*prepared_phase=*/true);
    }
  });
}

void Replica::propose_equivocating(const ConsensusValue& value) {
  // A Byzantine leader splits the group: value A goes to one half, a
  // conflicting twin B to the other, and one victim gets both (so detection
  // has something to detect).  Neither half can reach quorum, the height
  // stalls, and honest replicas recover via view change.
  ConsensusValue twin = value;
  {
    crypto::Sha256 h;
    h.update("jenga/equivocation");
    h.update(value.digest);
    twin.digest = h.finish();
  }
  const std::uint64_t height = next_height_;
  const std::uint32_t v = view_;
  auto make = [&](const ConsensusValue& val) {
    auto payload = std::make_shared<ProposalPayload>();
    payload->group = config_->group_tag;
    payload->height = height;
    payload->view = v;
    payload->value = val;
    sim::Message m;
    m.type = sim::MsgType::kBftPrePrepare;
    m.from = self_;
    m.size_bytes = kProposalOverheadBytes + val.size_bytes;
    m.payload = std::move(payload);
    return m;
  };
  const sim::Message msg_a = make(value);
  const sim::Message msg_b = make(twin);
  NodeId victim{};  // first non-self member receives both conflicting halves
  bool victim_set = false;
  bool victim_got_a = false;
  for (std::size_t i = 0; i < config_->members.size(); ++i) {
    const NodeId to = config_->members[i];
    if (to == self_) continue;
    const bool give_a = i % 2 == 0;
    if (!victim_set) {
      victim = to;
      victim_set = true;
      victim_got_a = give_a;
    }
    net_.send(self_, to, give_a ? msg_a : msg_b, kGroupTraffic);
  }
  if (victim_set) net_.send(self_, victim, victim_got_a ? msg_b : msg_a, kGroupTraffic);
  // Deliberately do NOT set proposal_: the equivocator never assembles a
  // certificate; it only tries to wedge the height.
}

void Replica::spam_votes(std::uint64_t height, std::uint32_t view, const Hash256& digest) {
  const NodeId leader = leader_for(view_);
  if (leader == self_) return;
  const std::size_t n = config_->members.size();
  const std::size_t idx = member_index(self_).value_or(0);
  auto send_junk = [&](std::uint64_t h, std::size_t claimed_index, std::uint64_t sig) {
    auto vote = std::make_shared<VotePayload>();
    vote->group = config_->group_tag;
    vote->height = h;
    vote->view = view;
    vote->digest = digest;
    vote->member_index = claimed_index;
    vote->signature = sig;  // junk: never verifies against any member key
    sim::Message out;
    out.type = sim::MsgType::kBftPrepareVote;
    out.from = self_;
    out.size_bytes = kVoteWireBytes;
    out.payload = std::move(vote);
    send_to(leader, out);
  };
  // Invalid-signature votes, including ones impersonating other members.
  for (std::uint64_t i = 0; i < 3; ++i)
    send_junk(height, (idx + i) % n, 0xDEADBEEFULL + i);
  // Future-height votes: exercise peers' bounded future_ buffer.
  for (std::uint64_t i = 0; i < 2; ++i)
    send_junk(height + 3 + i, idx, 0xBADC0DEULL + i);
}

namespace {

/// Height carried by any BFT payload (for future-height buffering).
std::uint64_t message_height(const sim::Message& msg) {
  switch (msg.type) {
    case sim::MsgType::kBftPrePrepare:
      return sim::payload_as<ProposalPayload>(msg).height;
    case sim::MsgType::kBftPrepareVote:
    case sim::MsgType::kBftCommitVote:
      return sim::payload_as<VotePayload>(msg).height;
    case sim::MsgType::kBftPreparedCert:
    case sim::MsgType::kBftCommitCert:
      return sim::payload_as<CertPayload>(msg).cert.height;
    case sim::MsgType::kBftViewChange:
      return sim::payload_as<ViewChangePayload>(msg).height;
    case sim::MsgType::kBftNewView:
      return sim::payload_as<NewViewPayload>(msg).height;
    default:
      return 0;
  }
}

}  // namespace

void Replica::on_message(const sim::Message& msg) {
  if (stopped_) return;
  if (byz_ == ByzantineMode::kSilent) return;
  // Drop messages belonging to a different consensus group on this node.
  const auto* tagged = dynamic_cast<const GroupPayload*>(msg.payload.get());
  if (tagged == nullptr || tagged->group != config_->group_tag) return;
  const std::uint64_t mh = message_height(msg);
  if (mh > next_height_) {
    // Delivered ahead of this replica's progress; replay after we catch up.
    if (future_.size() < kFutureBufferCap) future_.push_back(msg);
    // A gap of two or more heights means this replica is genuinely behind
    // (crash recovery / healed partition), not just seeing one reordered
    // delivery — trigger the catch-up path.
    if (mh > next_height_ + 1) request_sync();
    return;
  }
  // A view change or proposal for a height this replica already decided
  // means the sender is stuck there: the commit certificate it missed is no
  // longer being rebroadcast (certs are sent once), and if the group has
  // drained its workload no higher-height traffic will ever trip the
  // sender's own request_sync gap detector — so push history reactively.
  // Late votes/certs for the previous height are NOT served: their senders
  // already advanced.  Rate-limited: a wave of view-change messages from one
  // stuck peer costs one response.
  if (mh > 0 && mh < next_height_ &&
      (msg.type == sim::MsgType::kBftViewChange ||
       msg.type == sim::MsgType::kBftPrePrepare)) {
    const SimTime now = net_.simulator().now();
    if (last_catch_up_served_ < 0 || now - last_catch_up_served_ >= kSyncCooldown) {
      last_catch_up_served_ = now;
      serve_history(msg.from, mh);
    }
  }
  switch (msg.type) {
    case sim::MsgType::kBftPrePrepare: handle_pre_prepare(msg); break;
    case sim::MsgType::kBftPrepareVote: handle_prepare_vote(msg); break;
    case sim::MsgType::kBftPreparedCert: handle_prepared_cert(msg); break;
    case sim::MsgType::kBftCommitVote: handle_commit_vote(msg); break;
    case sim::MsgType::kBftCommitCert: handle_commit_cert(msg); break;
    case sim::MsgType::kBftViewChange: handle_view_change(msg); break;
    case sim::MsgType::kBftNewView: handle_new_view(msg); break;
    case sim::MsgType::kBftSyncRequest: handle_sync_request(msg); break;
    case sim::MsgType::kBftSyncResponse: handle_sync_response(msg); break;
    default: break;
  }
}

void Replica::handle_pre_prepare(const sim::Message& msg) {
  const auto& p = sim::payload_as<ProposalPayload>(msg);
  if (p.height != next_height_ || p.view != view_) return;
  if (msg.from != leader_for(view_)) return;  // only the leader proposes

  // Equivocation detection: a second proposal from the same leader for the
  // same (height, view) with a different digest is proof of Byzantine
  // behaviour.  Vote for a view change immediately (once per view) instead of
  // waiting out the timer.  Checked before validation so an invalid twin
  // still counts as evidence.
  if (seen_proposal_digest_ && !(*seen_proposal_digest_ == p.value.digest)) {
    ++stats_.equivocations_detected;
    if (!equivocation_view_change_sent_) {
      equivocation_view_change_sent_ = true;
      on_view_timeout(next_height_, view_);
    }
    return;
  }
  seen_proposal_digest_ = p.value.digest;

  if (sent_prepare_) return;
  if (byz_ == ByzantineMode::kVoteSpammer) {
    spam_votes(p.height, p.view, p.value.digest);
    return;  // the spammer's only votes are the junk ones above
  }
  if (!app_.validate(p.height, p.value)) return;

  current_value_ = share(msg, p.value);
  sent_prepare_ = true;

  const auto idx = member_index(self_);
  if (!idx) return;
  auto vote = std::make_shared<VotePayload>();
  vote->group = config_->group_tag;
  vote->height = p.height;
  vote->view = p.view;
  vote->digest = p.value.digest;
  vote->member_index = *idx;
  vote->signature =
      crypto::fast_sign(keys_.keys[*idx], vote_digest(p.value.digest, p.height, p.view, false));
  sim::Message out;
  out.type = sim::MsgType::kBftPrepareVote;
  out.from = self_;
  out.size_bytes = kVoteWireBytes;
  out.payload = std::move(vote);
  // Verification (re-execution) time before the vote leaves this replica.
  // A laggard delays every vote by a third of the view timeout on top —
  // honest-but-slow, probing the protocol's timeout margins.
  const SimTime lag = byz_ == ByzantineMode::kLaggard ? config_->view_timeout / 3 : 0;
  const std::uint64_t h = p.height;
  const std::uint32_t v = p.view;
  const NodeId leader = leader_for(view_);
  net_.simulator().schedule_after(p.value.exec_delay + lag, [this, h, v, leader, out] {
    if (next_height_ != h || view_ != v) return;
    send_to(leader, out);
  });
}

void Replica::handle_prepare_vote(const sim::Message& msg) {
  const auto& v = sim::payload_as<VotePayload>(msg);
  if (v.height != next_height_ || v.view != view_ || !is_leader() || !proposal_) return;
  if (!(v.digest == proposal_->digest)) {
    ++stats_.invalid_votes_rejected;
    return;
  }
  if (v.member_index >= keys_.public_ids.size()) return;
  const Hash256 digest = vote_digest(v.digest, v.height, v.view, false);
  if (!crypto::fast_verify(keys_.public_ids[v.member_index], digest, v.signature)) {
    ++stats_.invalid_votes_rejected;
    return;
  }
  prepare_votes_[v.member_index] = true;
  leader_try_assemble(/*prepared_phase=*/true);
}

void Replica::leader_try_assemble(bool prepared_phase) {
  if (!proposal_) return;
  auto& votes = prepared_phase ? prepare_votes_ : commit_votes_;
  auto& sent = prepared_phase ? prepared_cert_sent_ : commit_cert_sent_;
  if (sent) return;
  const std::size_t count = static_cast<std::size_t>(
      std::count(votes.begin(), votes.end(), true));
  if (count < quorum()) return;
  sent = true;

  QuorumCert cert;
  cert.value_digest = proposal_->digest;
  cert.height = next_height_;
  cert.view = view_;
  const Hash256 digest = vote_digest(cert.value_digest, cert.height, cert.view, !prepared_phase);
  cert.sig = crypto::fast_aggregate(keys_.keys, votes, digest);

  auto payload = std::make_shared<CertPayload>();
  payload->group = config_->group_tag;
  payload->cert = cert;
  payload->value = *proposal_;
  sim::Message out;
  out.type = prepared_phase ? sim::MsgType::kBftPreparedCert : sim::MsgType::kBftCommitCert;
  out.from = self_;
  out.size_bytes = cert.wire_size();
  out.payload = std::move(payload);
  broadcast(out, /*gossip=*/false);
  // Deliver to self directly (broadcast skips the sender).
  on_message(out);
}

void Replica::handle_prepared_cert(const sim::Message& msg) {
  const auto& p = sim::payload_as<CertPayload>(msg);
  if (p.cert.height != next_height_ || p.cert.view != view_) return;
  if (sent_commit_) return;
  if (!verify_cert(p.cert, /*commit_phase=*/false)) {
    ++stats_.invalid_certs_rejected;
    return;
  }

  if (!current_value_) {
    // The proposal dissemination missed this replica; the certificate's
    // embedded copy fills the gap, so no pull is needed — just count the
    // recovery so lossy-transport runs can see how often the backup path
    // carried the round.
    current_value_ = share(msg, p.value);
    if (telemetry_ != nullptr) telemetry_->registry.counter("bft.value_recovered").inc();
  }
  prepared_cert_ = p.cert;
  sent_commit_ = true;

  const auto idx = member_index(self_);
  if (!idx) return;
  auto vote = std::make_shared<VotePayload>();
  vote->group = config_->group_tag;
  vote->height = p.cert.height;
  vote->view = p.cert.view;
  vote->digest = p.cert.value_digest;
  vote->member_index = *idx;
  vote->signature = crypto::fast_sign(
      keys_.keys[*idx], vote_digest(p.cert.value_digest, p.cert.height, p.cert.view, true));
  sim::Message out;
  out.type = sim::MsgType::kBftCommitVote;
  out.from = self_;
  out.size_bytes = kVoteWireBytes;
  out.payload = std::move(vote);
  if (byz_ == ByzantineMode::kLaggard) {
    const std::uint64_t h = p.cert.height;
    const std::uint32_t v = p.cert.view;
    const NodeId leader = leader_for(view_);
    net_.simulator().schedule_after(config_->view_timeout / 3, [this, h, v, leader, out] {
      if (next_height_ != h || view_ != v) return;
      send_to(leader, out);
    });
  } else {
    send_to(leader_for(view_), out);
  }
}

void Replica::handle_commit_vote(const sim::Message& msg) {
  const auto& v = sim::payload_as<VotePayload>(msg);
  if (v.height != next_height_ || v.view != view_ || !is_leader() || !proposal_) return;
  if (!(v.digest == proposal_->digest)) {
    ++stats_.invalid_votes_rejected;
    return;
  }
  if (v.member_index >= keys_.public_ids.size()) return;
  const Hash256 digest = vote_digest(v.digest, v.height, v.view, true);
  if (!crypto::fast_verify(keys_.public_ids[v.member_index], digest, v.signature)) {
    ++stats_.invalid_votes_rejected;
    return;
  }
  commit_votes_[v.member_index] = true;
  leader_try_assemble(/*prepared_phase=*/false);
}

void Replica::handle_commit_cert(const sim::Message& msg) {
  const auto& p = sim::payload_as<CertPayload>(msg);
  if (p.cert.height != next_height_) return;
  if (!verify_cert(p.cert, /*commit_phase=*/true)) {
    ++stats_.invalid_certs_rejected;
    return;
  }

  const bool have_local = current_value_ && current_value_->digest == p.cert.value_digest;
  if (!have_local && !(p.value.digest == p.cert.value_digest)) {
    // A valid commit certificate for a value this replica does not hold:
    // the height decided without us.  Pull it explicitly instead of silently
    // dropping the certificate and stalling until the view timer fires.
    request_sync();
    return;
  }
  if (!have_local && telemetry_ != nullptr)
    telemetry_->registry.counter("bft.value_recovered").inc();
  decide(have_local ? current_value_ : share(msg, p.value), share(msg, p.cert));
}

void Replica::decide(std::shared_ptr<const ConsensusValue> value,
                     std::shared_ptr<const QuorumCert> cert) {
  const std::uint64_t decided = next_height_;
  if (telemetry_ != nullptr) {
    const SimTime now = net_.simulator().now();
    if (round_begin_ >= 0) {
      round_hist_->record(now - round_begin_);
      telemetry_->registry.counter("bft.rounds").inc();
    }
    if (view_change_begin_ >= 0) {
      // Height resolved while a view change was still pending (e.g. a commit
      // certificate landed anyway) — the view change ends at the decide instant.
      view_change_hist_->record(now - view_change_begin_);
      telemetry_->registry.counter("bft.view_changes").inc();
    }
    if (telemetry_->flight.enabled()) {
      telemetry::FlightEvent e;
      e.at = now;
      e.node = self_.value;
      e.kind = telemetry::FlightEvent::Kind::kDecide;
      e.span = telemetry_->causal.current_context();
      e.a = config_->group_tag;
      e.b = decided;
      e.tx = value->digest;
      telemetry_->flight.record(self_.value, e);
    }
  }
  view_change_begin_ = -1;
  // Heights are consecutive, so the slot is the next free one until the
  // window is full, and the oldest height's from then on.
  const std::size_t slot = decided % kDecidedLogWindow;
  if (slot == decided_log_.size()) {
    decided_log_.push_back({value, cert});
  } else {
    decided_log_[slot] = {value, cert};
  }
  app_.on_decide(decided, *value, *cert);
  enter_height(decided + 1);
}

void Replica::handle_view_change(const sim::Message& msg) {
  const auto& p = sim::payload_as<ViewChangePayload>(msg);
  if (p.height != next_height_ || p.new_view <= view_) return;
  // Cap how far ahead a single vote can point: without this a Byzantine node
  // could inflate view_votes_ with unbounded view numbers.
  if (p.new_view > view_ + kMaxViewSkip) return;
  if (p.member_index >= config_->members.size()) return;
  auto& votes = view_votes_[p.new_view];
  if (votes.empty()) votes.assign(config_->members.size(), false);
  votes[p.member_index] = true;

  // Adopt the strongest prepared certificate seen so far, so a potentially
  // decided value survives the view change.  The certificate is re-verified
  // here: a forged one is dropped (the view-change vote itself still counts).
  if (p.prepared && p.prepared->height == next_height_ &&
      p.prepared->value_digest == p.prepared_value.digest &&
      (!prepared_cert_ || prepared_cert_->view < p.prepared->view)) {
    if (verify_cert(*p.prepared, /*commit_phase=*/false)) {
      prepared_cert_ = p.prepared;
      current_value_ = share(msg, p.prepared_value);
    } else {
      ++stats_.invalid_certs_rejected;
    }
  }

  const std::size_t count =
      static_cast<std::size_t>(std::count(votes.begin(), votes.end(), true));
  if (count < quorum()) return;
  // Only the designated leader of new_view may assemble NEW_VIEW.
  if (config_->members[(p.height + p.new_view) % config_->members.size()] != self_) return;

  // Quorum reached: this node becomes the leader of new_view.
  auto payload = std::make_shared<NewViewPayload>();
  payload->group = config_->group_tag;
  payload->height = p.height;
  payload->new_view = p.new_view;
  if (prepared_cert_ && current_value_) {
    payload->prepared = *prepared_cert_;
    payload->prepared_value = *current_value_;
  }
  sim::Message out;
  out.type = sim::MsgType::kBftNewView;
  out.from = self_;
  out.size_bytes = kViewChangeWireBytes;
  out.payload = std::move(payload);
  broadcast(out, /*gossip=*/false);
  on_message(out);
}

void Replica::handle_new_view(const sim::Message& msg) {
  const auto& p = sim::payload_as<NewViewPayload>(msg);
  if (p.height != next_height_ || p.new_view <= view_) return;
  if (p.new_view > view_ + kMaxViewSkip) return;
  const std::size_t n = config_->members.size();
  const NodeId expected_leader = config_->members[(p.height + p.new_view) % n];
  if (msg.from != expected_leader) return;
  // A NEW_VIEW carrying a forged or mismatched prepared certificate is
  // rejected wholesale: accepting it would let a Byzantine leader inject an
  // arbitrary "locked" value.
  if (p.prepared &&
      (p.prepared->height != next_height_ ||
       !(p.prepared->value_digest == p.prepared_value.digest) ||
       !verify_cert(*p.prepared, /*commit_phase=*/false))) {
    ++stats_.invalid_certs_rejected;
    return;
  }

  view_ = p.new_view;
  if (view_change_begin_ >= 0) {
    const SimTime now = net_.simulator().now();
    if (telemetry_ != nullptr) {
      view_change_hist_->record(now - view_change_begin_);
      telemetry_->registry.counter("bft.view_changes").inc();
      if (telemetry_->flight.enabled()) {
        telemetry::FlightEvent e;
        e.at = now;
        e.node = self_.value;
        e.kind = telemetry::FlightEvent::Kind::kViewChange;
        e.span = telemetry_->causal.current_context();
        e.a = config_->group_tag;
        e.b = next_height_;
        telemetry_->flight.record(self_.value, e);
      }
    }
    view_change_begin_ = -1;
  }
  proposal_ = nullptr;
  prepare_votes_.assign(n, false);
  commit_votes_.assign(n, false);
  prepared_cert_sent_ = false;
  commit_cert_sent_ = false;
  sent_prepare_ = false;
  sent_commit_ = false;
  seen_proposal_digest_.reset();
  equivocation_view_change_sent_ = false;
  if (p.prepared) {
    prepared_cert_ = p.prepared;
    current_value_ = share(msg, p.prepared_value);
  }
  arm_view_timer();

  if (is_leader()) {
    if (current_value_ && prepared_cert_) {
      // Must re-propose the locked value.
      proposal_ = current_value_;
      auto payload = std::make_shared<ProposalPayload>();
      payload->group = config_->group_tag;
      payload->height = next_height_;
      payload->view = view_;
      payload->value = *current_value_;
      sim::Message out;
      out.type = sim::MsgType::kBftPrePrepare;
      out.from = self_;
      out.size_bytes = kProposalOverheadBytes + current_value_->size_bytes;
      out.payload = std::move(payload);
      broadcast(out, /*gossip=*/true,
                proposal_rumor_id(config_->group_tag, next_height_, view_,
                                  current_value_->digest));
      const auto idx = member_index(self_);
      if (idx) {
        prepare_votes_[*idx] = true;
        sent_prepare_ = true;
        leader_try_assemble(true);
      }
    } else {
      try_propose();
    }
  }
}

void Replica::request_sync() {
  if (!started_ || stopped_) return;
  const SimTime now = net_.simulator().now();
  if (last_sync_request_ >= 0 && now - last_sync_request_ < kSyncCooldown) return;
  last_sync_request_ = now;
  ++stats_.sync_requests_sent;

  auto payload = std::make_shared<SyncRequestPayload>();
  payload->group = config_->group_tag;
  payload->from_height = next_height_;
  sim::Message msg;
  msg.type = sim::MsgType::kBftSyncRequest;
  msg.from = self_;
  msg.size_bytes = kSyncRequestWireBytes;
  msg.payload = std::move(payload);

  // Ask two distinct peers; rotate the choice with the height so a single
  // crashed or Byzantine peer cannot permanently wedge recovery.
  const auto& m = config_->members;
  const std::size_t n = m.size();
  const std::size_t idx = member_index(self_).value_or(0);
  std::size_t asked = 0;
  for (std::size_t off = 1; off < n && asked < 2; ++off) {
    const NodeId peer = m[(idx + off + next_height_) % n];
    if (peer == self_) continue;
    send_to(peer, msg);
    ++asked;
  }
}

void Replica::handle_sync_request(const sim::Message& msg) {
  const auto& p = sim::payload_as<SyncRequestPayload>(msg);
  serve_history(msg.from, p.from_height);
}

void Replica::serve_history(NodeId to, std::uint64_t from_height) {
  if (from_height >= next_height_) return;  // requester is not behind us
  if (from_height < next_height_ - decided_log_.size()) return;  // aged out of the window
  auto payload = std::make_shared<SyncResponsePayload>();
  payload->group = config_->group_tag;
  payload->start_height = from_height;
  std::uint32_t bytes = 0;
  for (std::uint64_t h = from_height;
       h < next_height_ && payload->entries.size() < kSyncBatchMax; ++h) {
    const DecidedEntry& e = decided_log_[h % kDecidedLogWindow];
    payload->entries.emplace_back(*e.value, *e.cert);
    bytes += e.value->size_bytes + e.cert->wire_size();
  }
  ++stats_.sync_responses_served;
  sim::Message out;
  out.type = sim::MsgType::kBftSyncResponse;
  out.from = self_;
  out.size_bytes = kSyncRequestWireBytes + bytes;
  out.payload = std::move(payload);
  send_to(to, out);
}

void Replica::handle_sync_response(const sim::Message& msg) {
  const auto& p = sim::payload_as<SyncResponsePayload>(msg);
  bool advanced = false;
  std::uint64_t h = p.start_height;
  for (const auto& [value, cert] : p.entries) {
    if (h < next_height_) {
      ++h;  // already have it (e.g. two peers answered)
      continue;
    }
    if (h > next_height_) break;  // non-consecutive; cannot verify a gap
    // Every entry is applied only under a valid commit certificate: a
    // Byzantine responder can withhold history but cannot rewrite it.  A
    // prepare certificate does not do: a later view may have replaced its
    // value.
    if (cert.height != h || !(cert.value_digest == value.digest) ||
        !verify_cert(cert, /*commit_phase=*/true)) {
      ++stats_.invalid_certs_rejected;
      return;
    }
    ++stats_.sync_heights_applied;
    decide(share(msg, value), share(msg, cert));  // advances next_height_, replays future_
    advanced = true;
    ++h;
  }
  // A full batch means there may be more history; follow up immediately.
  if (advanced && p.entries.size() >= kSyncBatchMax) {
    last_sync_request_ = -1;
    request_sync();
  }
}

}  // namespace jenga::consensus
