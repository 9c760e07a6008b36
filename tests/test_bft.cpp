// BFT consensus engine: agreement, liveness under crash faults, view change,
// certificate verification, and timing sanity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "consensus/bft.hpp"
#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::consensus {
namespace {

struct ValuePayload : sim::Payload {
  explicit ValuePayload(std::uint64_t n) : n(n) {}
  std::uint64_t n;
};

ConsensusValue make_value(std::uint64_t height, std::uint64_t salt = 0) {
  ConsensusValue v;
  crypto::Sha256 h;
  h.update("test-value");
  h.update_u64(height);
  if (salt != 0) h.update_u64(salt);
  v.digest = h.finish();
  v.size_bytes = 1024;
  v.data = std::make_shared<ValuePayload>(height);
  return v;
}

/// Proposes the canonical value for each height up to a cap; records decisions.
class TestApp : public BftApp {
 public:
  explicit TestApp(std::uint64_t max_heights) : max_heights_(max_heights) {}

  std::optional<ConsensusValue> propose(std::uint64_t height) override {
    if (height >= max_heights_) return std::nullopt;
    return make_value(height, salt);
  }
  bool validate(std::uint64_t, const ConsensusValue&) override { return true; }
  void on_decide(std::uint64_t height, const ConsensusValue& value,
                 const QuorumCert& cert) override {
    decided.emplace_back(height, value.digest);
    last_cert = cert;
    decide_times.push_back(now_fn ? now_fn() : 0);
  }

  std::uint64_t max_heights_;
  std::uint64_t salt = 0;  // nonzero: propose values no unsalted group proposes
  std::vector<std::pair<std::uint64_t, Hash256>> decided;
  std::vector<SimTime> decide_times;
  QuorumCert last_cert;
  std::function<SimTime()> now_fn;
};

class BftHarness {
 public:
  BftHarness(std::size_t n, std::uint64_t heights, SimTime view_timeout = 5 * kSecond)
      : net_(sim_, sim::NetConfig{}, Rng(42)) {
    auto config = std::make_shared<BftConfig>();
    for (std::uint32_t i = 0; i < n; ++i) config->members.push_back(NodeId{i});
    config->view_timeout = view_timeout;
    for (std::uint32_t i = 0; i < n; ++i) {
      apps_.push_back(std::make_unique<TestApp>(heights));
      apps_.back()->now_fn = [this] { return sim_.now(); };
      replicas_.push_back(std::make_unique<Replica>(net_, NodeId{i}, config, *apps_.back()));
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      Replica* r = replicas_[i].get();
      net_.register_node(NodeId{i}, [r](const sim::Message& m) { r->on_message(m); });
    }
  }

  void start_all() {
    for (auto& r : replicas_) r->start();
  }

  void run(SimTime until) { sim_.run_until(until); }

  /// Runs in 10 ms steps until `done()` holds or the clock reaches `limit`.
  template <typename Pred>
  void run_until(Pred done, SimTime limit) {
    while (!done() && sim_.now() < limit) sim_.run_until(sim_.now() + 10 * kMillisecond);
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<TestApp>> apps_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

TEST(Bft, FourNodesDecideSequence) {
  BftHarness h(4, 5);
  h.start_all();
  h.run(60 * kSecond);
  for (const auto& app : h.apps_) {
    ASSERT_EQ(app->decided.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(app->decided[i].first, i);
      EXPECT_EQ(app->decided[i].second, make_value(i).digest);
    }
  }
}

TEST(Bft, AllReplicasAgree) {
  BftHarness h(7, 3);
  h.start_all();
  h.run(60 * kSecond);
  for (std::size_t i = 1; i < h.apps_.size(); ++i)
    EXPECT_EQ(h.apps_[i]->decided, h.apps_[0]->decided);
}

TEST(Bft, DecisionLatencyIsFiveHops) {
  // Small messages, 100 ms latency, 5 message legs per height: decide ≈ 500 ms
  // plus epsilon for serialization.
  BftHarness h(4, 1);
  h.start_all();
  h.run(10 * kSecond);
  ASSERT_FALSE(h.apps_[3]->decide_times.empty());
  const SimTime t = h.apps_[3]->decide_times[0];
  EXPECT_GE(t, 450 * kMillisecond);
  EXPECT_LE(t, 700 * kMillisecond);
}

TEST(Bft, SilentNonLeaderMinorityTolerated) {
  BftHarness h(4, 3);
  h.replicas_[3]->set_byzantine(ByzantineMode::kSilent);  // leader for h0 is node 0
  h.start_all();
  h.run(60 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(h.apps_[i]->decided.size(), 3u) << i;
  EXPECT_TRUE(h.apps_[3]->decided.empty());
}

TEST(Bft, SilentLeaderTriggersViewChange) {
  BftHarness h(4, 2, /*view_timeout=*/2 * kSecond);
  h.replicas_[0]->set_byzantine(ByzantineMode::kSilent);  // node 0 leads height 0
  h.start_all();
  h.run(120 * kSecond);
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_GE(h.apps_[i]->decided.size(), 2u) << "replica " << i;
    EXPECT_EQ(h.apps_[i]->decided[0].first, 0u);
  }
}

TEST(Bft, MuteProposerStallsOnlyItsOwnHeights) {
  // Node 1 votes but never proposes; heights led by node 1 need a view change.
  BftHarness h(4, 3, /*view_timeout=*/2 * kSecond);
  h.replicas_[1]->set_byzantine(ByzantineMode::kMuteProposer);
  h.start_all();
  h.run(120 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.apps_[i]->decided.size(), 3u) << i;
}

TEST(Bft, ConsecutiveDeadLeadersSkipped) {
  BftHarness h(7, 1, /*view_timeout=*/2 * kSecond);
  // Leaders for height 0 are members (0+view)%7: kill nodes 0 and 1.
  h.replicas_[0]->set_byzantine(ByzantineMode::kSilent);
  h.replicas_[1]->set_byzantine(ByzantineMode::kSilent);
  h.start_all();
  h.run(200 * kSecond);
  for (std::size_t i = 2; i < 7; ++i) EXPECT_EQ(h.apps_[i]->decided.size(), 1u) << i;
}

TEST(Bft, QuorumSizes) {
  for (auto [n, q] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 3}, {7, 5}, {10, 7}, {13, 9}, {100, 67}}) {
    BftHarness h(n, 0);
    EXPECT_EQ(h.replicas_[0]->quorum(), q) << "n=" << n;
  }
}

TEST(Bft, CertificateVerification) {
  BftHarness h(4, 1);
  h.start_all();
  h.run(10 * kSecond);
  ASSERT_FALSE(h.apps_[0]->decided.empty());
  QuorumCert cert = h.apps_[0]->last_cert;
  EXPECT_TRUE(h.replicas_[0]->verify_cert(cert, /*commit_phase=*/true));
  // A commit certificate is not a prepare certificate.
  EXPECT_FALSE(h.replicas_[0]->verify_cert(cert, /*commit_phase=*/false));
  // Tampered digest must fail.
  QuorumCert bad = cert;
  bad.value_digest.bytes[0] ^= 1;
  EXPECT_FALSE(h.replicas_[0]->verify_cert(bad, /*commit_phase=*/true));
  // Dropping signers below quorum must fail.
  QuorumCert thin = cert;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < thin.sig.signers.size(); ++i) {
    if (thin.sig.signers[i] && ++kept > 2) thin.sig.signers[i] = false;
  }
  EXPECT_FALSE(h.replicas_[0]->verify_cert(thin, /*commit_phase=*/true));
}

TEST(Bft, DeterministicAcrossRuns) {
  std::vector<SimTime> first;
  for (int round = 0; round < 2; ++round) {
    BftHarness h(4, 4);
    h.start_all();
    h.run(60 * kSecond);
    if (round == 0) {
      first = h.apps_[0]->decide_times;
    } else {
      EXPECT_EQ(h.apps_[0]->decide_times, first);
    }
  }
}

TEST(Bft, NoProposalMeansNoProgressButNoCrash) {
  BftHarness h(4, 0);  // app never proposes
  h.start_all();
  h.run(3 * kSecond);
  for (const auto& app : h.apps_) EXPECT_TRUE(app->decided.empty());
}

TEST(Bft, LargeGroupDecides) {
  BftHarness h(40, 2);
  h.start_all();
  h.run(120 * kSecond);
  std::size_t complete = 0;
  for (const auto& app : h.apps_)
    if (app->decided.size() == 2) ++complete;
  EXPECT_EQ(complete, 40u);
}

TEST(Bft, StaleViewChangeAfterDecideIgnored) {
  // Regression: a view-change vote for a (height, view) that already decided
  // must not advance anyone's view at the current height — the view timer
  // re-armed at each height and the height check both have to hold.
  BftHarness h(4, 3);
  h.start_all();
  h.run(2 * kSecond);  // height 0 decided at view 0
  ASSERT_GE(h.apps_[0]->decided.size(), 1u);
  for (std::size_t target = 0; target < 4; ++target) {
    for (std::size_t from = 0; from < 4; ++from) {
      auto payload = std::make_shared<ViewChangePayload>();
      payload->group = 0;
      payload->height = 0;  // stale: everyone is past height 0 already
      payload->new_view = 1;
      payload->member_index = from;
      sim::Message msg;
      msg.type = sim::MsgType::kBftViewChange;
      msg.from = NodeId{static_cast<std::uint32_t>(from)};
      msg.size_bytes = kViewChangeWireBytes;
      msg.payload = std::move(payload);
      h.replicas_[target]->on_message(msg);
    }
  }
  // Run long enough for the remaining heights to decide but shorter than the
  // idle view timeout at the final (never-proposed) height.
  h.run(4 * kSecond);
  for (const auto& r : h.replicas_) EXPECT_EQ(r->view(), 0u);
  for (const auto& app : h.apps_) {
    ASSERT_EQ(app->decided.size(), 3u);
    EXPECT_EQ(app->last_cert.view, 0u);  // every height decided without a view change
  }
}

TEST(Bft, ViewTimersDoNotAccumulate) {
  // Every height re-arms each replica's view timer; none of the 300 heights
  // comes close to the timeout, so no timer is due before the end.
  constexpr SimTime kTimeout = 600 * kSecond;
  BftHarness h(4, 300, kTimeout);
  h.start_all();
  const auto all_decided = [&] {
    for (const auto& app : h.apps_)
      if (app->decided.size() < 300) return false;
    return true;
  };
  h.run_until(all_decided, kTimeout);
  ASSERT_TRUE(all_decided());
  // A view timer per replica, the leader's propose retry and a few messages
  // in flight: a few events per replica, not one per replica per height.
  EXPECT_LE(h.sim_.pending_events(), 3 * h.replicas_.size());

  // Stopped replicas stay silent past the timeout, and their cancelled
  // timers leave the queue.
  telemetry::Telemetry tel;
  h.net_.set_telemetry(&tel);
  for (auto& r : h.replicas_) r->stop();
  h.run(h.sim_.now() + 2 * kTimeout);
  h.net_.set_telemetry(nullptr);
  EXPECT_EQ(tel.net.per_type[static_cast<std::size_t>(sim::MsgType::kBftViewChange)].count, 0u);
  EXPECT_EQ(h.sim_.pending_events(), 0u);
  for (const auto& r : h.replicas_) EXPECT_EQ(r->view(), 0u);
}

TEST(Bft, EquivocatingLeaderRecoveredByViewChange) {
  BftHarness h(4, 2, /*view_timeout=*/2 * kSecond);
  h.replicas_[0]->set_byzantine(ByzantineMode::kEquivocator);  // leads height 0
  h.start_all();
  h.run(120 * kSecond);
  // The split proposals cannot reach quorum; the view change elects an honest
  // leader and both heights decide on every honest replica.
  for (std::size_t i = 1; i < 4; ++i) ASSERT_EQ(h.apps_[i]->decided.size(), 2u) << i;
  for (std::size_t i = 2; i < 4; ++i)
    EXPECT_EQ(h.apps_[i]->decided, h.apps_[1]->decided) << i;
  // At least the double-delivered victim observed the conflicting proposals.
  std::uint64_t detected = 0;
  for (const auto& r : h.replicas_) detected += r->stats().equivocations_detected;
  EXPECT_GE(detected, 1u);
}

TEST(Bft, VoteSpammerToleratedAndRejected) {
  BftHarness h(5, 3);  // quorum 3; four honest replicas carry the protocol
  h.replicas_[2]->set_byzantine(ByzantineMode::kVoteSpammer);
  h.start_all();
  h.run(60 * kSecond);
  for (std::size_t i : {0u, 1u, 3u, 4u})
    EXPECT_EQ(h.apps_[i]->decided.size(), 3u) << i;
  // Every junk vote bounced off a signature or digest check somewhere.
  std::uint64_t rejected = 0;
  for (const auto& r : h.replicas_) rejected += r->stats().invalid_votes_rejected;
  EXPECT_GT(rejected, 0u);
}

TEST(Bft, LaggardTolerated) {
  // Lag of view_timeout/3 = 2 s per vote: slower heights, no view changes
  // needed, everyone still decides everything.
  BftHarness h(4, 3, /*view_timeout=*/6 * kSecond);
  h.replicas_[2]->set_byzantine(ByzantineMode::kLaggard);
  h.start_all();
  h.run(120 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.apps_[i]->decided.size(), 3u) << i;
}

TEST(Bft, CrashedReplicaCatchesUpViaSync) {
  BftHarness h(4, 6);
  h.start_all();
  h.net_.set_node_down(NodeId{3}, true);
  h.run(30 * kSecond);  // the other three decide all heights meanwhile
  ASSERT_EQ(h.apps_[0]->decided.size(), 6u);
  EXPECT_LT(h.apps_[3]->decided.size(), 6u);

  h.net_.set_node_down(NodeId{3}, false);
  h.replicas_[3]->request_sync();
  h.run(60 * kSecond);
  EXPECT_EQ(h.apps_[3]->decided, h.apps_[0]->decided);
  EXPECT_GT(h.replicas_[3]->stats().sync_heights_applied, 0u);
  // Someone served the request.
  std::uint64_t served = 0;
  for (const auto& r : h.replicas_) served += r->stats().sync_responses_served;
  EXPECT_GT(served, 0u);
}

TEST(Bft, SyncRefusesPrepareCertificate) {
  // A twin group with the same vote keys (same crypto seed and size) that
  // proposes other values mints a prepare certificate for a value this group
  // never decides at height 0: the certificate a Byzantine member holds after
  // a view change replaced view 0's value.
  BftHarness twin(4, 1);
  for (auto& app : twin.apps_) app->salt = 1;
  std::optional<CertPayload> prepared;
  Replica* spied = twin.replicas_[1].get();
  twin.net_.register_node(NodeId{1}, [&prepared, spied](const sim::Message& m) {
    if (m.type == sim::MsgType::kBftPreparedCert && !prepared)
      prepared = sim::payload_as<CertPayload>(m);
    spied->on_message(m);
  });
  twin.start_all();
  twin.run(10 * kSecond);
  ASSERT_TRUE(prepared.has_value());
  ASSERT_EQ(prepared->cert.height, 0u);

  BftHarness h(4, 6);
  h.start_all();
  h.net_.set_node_down(NodeId{3}, true);
  h.run(30 * kSecond);
  ASSERT_EQ(h.apps_[0]->decided.size(), 6u);
  ASSERT_TRUE(h.apps_[3]->decided.empty());
  ASSERT_FALSE(prepared->value.digest == h.apps_[0]->decided[0].second);

  // Member 1 answers the lagging replica with (value, prepare certificate).
  h.net_.set_node_down(NodeId{3}, false);
  auto forged = std::make_shared<SyncResponsePayload>();
  forged->start_height = 0;
  forged->entries.emplace_back(prepared->value, prepared->cert);
  sim::Message msg;
  msg.type = sim::MsgType::kBftSyncResponse;
  msg.from = NodeId{1};
  msg.size_bytes = kSyncRequestWireBytes;
  msg.payload = std::move(forged);
  h.replicas_[3]->on_message(msg);
  EXPECT_TRUE(h.apps_[3]->decided.empty());
  EXPECT_EQ(h.replicas_[3]->stats().invalid_certs_rejected, 1u);

  // The commit-certified history still brings it level with the group.
  h.replicas_[3]->request_sync();
  h.run(90 * kSecond);
  EXPECT_EQ(h.apps_[3]->decided, h.apps_[0]->decided);
}

TEST(Bft, SyncCatchesUpAcrossWrappedWindow) {
  // Replica 3 goes down after 100 heights and the group goes on to 300, so
  // the 256-height decided log has wrapped: it holds heights 44..299.
  BftHarness h(4, 300);
  h.start_all();
  h.run_until([&] { return h.apps_[3]->decided.size() >= 100; }, 600 * kSecond);
  ASSERT_EQ(h.apps_[3]->decided.size(), 100u);
  h.net_.set_node_down(NodeId{3}, true);
  h.run_until([&] { return h.apps_[0]->decided.size() >= 300; }, 3000 * kSecond);
  ASSERT_EQ(h.apps_[0]->decided.size(), 300u);
  ASSERT_EQ(h.apps_[3]->decided.size(), 100u);

  h.net_.set_node_down(NodeId{3}, false);
  h.replicas_[3]->request_sync();
  h.run(h.sim_.now() + 60 * kSecond);
  // Heights 100..299 arrive in 32-height batches, each batch asking for the
  // next.
  EXPECT_EQ(h.apps_[3]->decided, h.apps_[0]->decided);
  EXPECT_EQ(h.replicas_[3]->stats().sync_heights_applied, 200u);
}

/// Keeps replica 3 down while the other three decide all `heights`, then
/// brings it back at height 0 and lets it ask for the history it missed.
void rejoin_from_genesis(BftHarness& h, std::uint64_t heights) {
  h.net_.set_node_down(NodeId{3}, true);
  h.start_all();
  h.run_until([&] { return h.apps_[0]->decided.size() >= heights; }, 3000 * kSecond);
  ASSERT_EQ(h.apps_[0]->decided.size(), heights);
  ASSERT_TRUE(h.apps_[3]->decided.empty());
  h.net_.set_node_down(NodeId{3}, false);
  h.replicas_[3]->request_sync();
  h.run(h.sim_.now() + 60 * kSecond);
}

TEST(Bft, SyncServesReplicaOneWindowBehind) {
  // 256 heights behind: the peers' logs still hold every height from 0.
  BftHarness h(4, 256);
  rejoin_from_genesis(h, 256);
  EXPECT_EQ(h.apps_[3]->decided, h.apps_[0]->decided);
  EXPECT_EQ(h.replicas_[3]->stats().sync_heights_applied, 256u);
}

TEST(Bft, SyncServesNothingPastTheWindow) {
  // 257 heights behind: height 0 has aged out of every peer's log, and a
  // response must start at the requested height, so nothing is served.
  BftHarness h(4, 257);
  rejoin_from_genesis(h, 257);
  EXPECT_TRUE(h.apps_[3]->decided.empty());
  EXPECT_EQ(h.replicas_[3]->stats().sync_heights_applied, 0u);
  std::uint64_t served = 0;
  for (const auto& r : h.replicas_) served += r->stats().sync_responses_served;
  EXPECT_EQ(served, 0u);
}

}  // namespace
}  // namespace jenga::consensus
