// Event queue and network timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "simnet/network.hpp"
#include "simnet/simulator.hpp"

namespace jenga::sim {
namespace {

struct IntPayload : Payload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> seen;
  sim.schedule_at(30, [&] { seen.push_back(3); });
  sim.schedule_at(10, [&] { seen.push_back(1); });
  sim.schedule_at(20, [&] { seen.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> seen;
  for (int i = 0; i < 10; ++i) sim.schedule_at(5, [&, i] { seen.push_back(i); });
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(50, [&] { observed = sim.now(); });  // in the past
  });
  sim.run_until_idle();
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(1000, [&] { ++fired; });
  sim.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(10, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run_until_idle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule_after(1, forever); };
  sim.schedule_at(0, forever);
  EXPECT_EQ(sim.run_until_idle(100), 100u);
}

/// One entry per handler run: when it ran, which event or timer it was, and
/// the causal context it ran under.
struct Ran {
  SimTime at;
  int id;
  std::uint64_t ctx;
  bool operator==(const Ran&) const = default;
};

/// A seeded script of plain events and kDeadlines re-armable deadlines.  Each
/// handler logs itself and then draws three actions, each under a fresh
/// non-zero context: a plain event at one of a few colliding times, a re-arm
/// that moves a deadline later or earlier (or into the past), or a cancel.
/// Subclasses implement the deadlines.
class DeadlineScript {
 public:
  static constexpr std::size_t kDeadlines = 32;

  explicit DeadlineScript(Simulator& sim) : sim_(sim) { deadline_.fill(-1); }
  virtual ~DeadlineScript() = default;

  std::vector<Ran> run() {
    sim_.schedule_at(0, [this] { handle(0); });
    sim_.run_until_idle();
    return log_;
  }

  int moved_later = 0;
  int moved_earlier = 0;
  int cancels = 0;

 protected:
  virtual void arm(std::size_t k, SimTime when) = 0;
  virtual void cancel(std::size_t k) = 0;
  void fire(std::size_t k) {
    deadline_[k] = -1;
    handle(kFiredId + static_cast<int>(k));
  }

  Simulator& sim_;

 private:
  static constexpr int kFiredId = 1'000'000;
  static constexpr std::size_t kMaxLog = 5'000;

  void handle(int id) {
    log_.push_back({sim_.now(), id, sim_.context()});
    if (log_.size() >= kMaxLog) return;  // let the queue drain
    for (int i = 0; i < 3; ++i) act();
  }

  void act() {
    sim_.set_context(rng_.next() | 1);
    const SimTime when = sim_.now() + (static_cast<SimTime>(rng_.uniform(6)) - 1) * 10;
    const std::size_t k = rng_.uniform(kDeadlines);
    const std::uint64_t pick = rng_.uniform(10);
    if (pick < 4) {
      const int id = next_id_++;
      sim_.schedule_at(when, [this, id] { handle(id); });
    } else if (pick < 8) {
      const SimTime at = std::max(when, sim_.now());
      if (deadline_[k] >= 0) (at >= deadline_[k] ? moved_later : moved_earlier) += 1;
      deadline_[k] = at;
      arm(k, when);
    } else {
      if (deadline_[k] >= 0) ++cancels;
      deadline_[k] = -1;
      cancel(k);
    }
  }

  Rng rng_{11};
  int next_id_ = 1;
  std::array<SimTime, kDeadlines> deadline_;
  std::vector<Ran> log_;
};

/// Each arm schedules a task that runs only if no later arm or cancel came.
class ScheduledDeadlines : public DeadlineScript {
 public:
  using DeadlineScript::DeadlineScript;

 private:
  void arm(std::size_t k, SimTime when) override {
    const std::uint64_t generation = ++generation_[k];
    sim_.schedule_at(when, [this, k, generation] {
      if (generation_[k] == generation) fire(k);
    });
  }
  void cancel(std::size_t k) override { ++generation_[k]; }

  std::array<std::uint64_t, kDeadlines> generation_{};
};

class TimerDeadlines : public DeadlineScript {
 public:
  explicit TimerDeadlines(Simulator& sim) : DeadlineScript(sim) {
    for (std::size_t k = 0; k < kDeadlines; ++k)
      timers_.push_back(std::make_unique<Simulator::Timer>(sim, [this, k] { fire(k); }));
  }

 private:
  void arm(std::size_t k, SimTime when) override { timers_[k]->arm(when); }
  void cancel(std::size_t k) override { timers_[k]->cancel(); }

  std::vector<std::unique_ptr<Simulator::Timer>> timers_;
};

TEST(Simulator, TimerRunsWhereScheduleAtWould) {
  Simulator scheduled_sim;
  Simulator timer_sim;
  ScheduledDeadlines scheduled(scheduled_sim);
  TimerDeadlines timers(timer_sim);
  const std::vector<Ran> expected = scheduled.run();
  const std::vector<Ran> got = timers.run();

  // The script covers every path: colliding times, re-arms both ways, cancels.
  ASSERT_GE(expected.size(), 5'000u);
  EXPECT_GT(scheduled.moved_later, 1'000);
  EXPECT_GT(scheduled.moved_earlier, 1'000);
  EXPECT_GT(scheduled.cancels, 1'000);
  std::size_t fired = 0;
  std::size_t same_time = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].id >= 1'000'000) ++fired;
    if (i > 0 && expected[i].at == expected[i - 1].at) ++same_time;
  }
  EXPECT_GT(fired, 200u);
  EXPECT_GT(same_time, 3'000u);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "handler " << i << ": at " << got[i].at << " id "
                                   << got[i].id << " ctx " << got[i].ctx;
  EXPECT_EQ(timer_sim.now(), scheduled_sim.now());
  // The only events the timers leave out are superseded tasks.
  EXPECT_LT(timer_sim.events_processed(), scheduled_sim.events_processed());
}

TEST(Simulator, TimerKeepsOneEventWhileDeadlinesMoveLater) {
  Simulator sim;
  std::vector<SimTime> fired;
  Simulator::Timer timer(sim, [&] { fired.push_back(sim.now()); });
  for (SimTime i = 1; i <= 1'000; ++i) {
    timer.arm(i * 10);
    ASSERT_EQ(sim.pending_events(), 1u);
  }
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<SimTime>{10'000}));
  EXPECT_EQ(sim.events_processed(), 2u);  // popped at 10 and re-queued, then fired

  // Re-armed from a running chain of events, each moving the deadline on.
  fired.clear();
  std::function<void()> tick = [&] {
    timer.arm_after(50);
    if (sim.now() < 20'000) sim.schedule_after(10, tick);
  };
  sim.schedule_after(10, tick);
  while (sim.step()) ASSERT_LE(sim.pending_events(), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{20'050}));
}

TEST(Simulator, CancelledTimerNeverFires) {
  Simulator sim;
  std::vector<SimTime> fired;
  Simulator::Timer timer(sim, [&] { fired.push_back(sim.now()); });
  timer.arm(100);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sim.run_until_idle();
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.now(), 100);  // the cancelled event popped and dropped

  // Re-armed after a cancel, before and after the cancelled event pops.
  timer.arm(200);
  timer.cancel();
  timer.arm(300);
  sim.run_until(250);
  timer.cancel();
  timer.arm(260);
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<SimTime>{260}));
  EXPECT_FALSE(timer.armed());
}

TEST(Simulator, DestroyedTimerEventsDropThemselves) {
  Simulator sim;
  int first = 0;
  int second = 0;
  auto timer = std::make_unique<Simulator::Timer>(sim, [&] { ++first; });
  timer->arm(100);
  timer->arm(50);  // queues a second event
  timer.reset();
  // The next timer takes the freed slot; the freed timer's events must not
  // fire it.
  Simulator::Timer reuse(sim, [&] { ++second; });
  reuse.arm(75);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until_idle();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, NetConfig{}, Rng(7)) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      net_.register_node(NodeId{i}, [this, i](const Message& m) {
        received_.push_back({NodeId{i}, m, sim_.now()});
      });
    }
  }

  Message make_msg(std::uint32_t size, int tag = 0) {
    return make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, size, tag);
  }

  struct Delivery {
    NodeId to;
    Message msg;
    SimTime at;
  };

  Simulator sim_;
  Network net_;
  std::vector<Delivery> received_;
};

TEST_F(NetworkTest, UnicastPaysLatencyAndSerialization) {
  // 25000 bytes at 20 Mbps = 10 ms serialization; +100 ms latency.
  net_.send(NodeId{0}, NodeId{1}, make_msg(25000), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 110 * kMillisecond);
}

TEST_F(NetworkTest, EgressQueueSerializesBackToBack) {
  net_.send(NodeId{0}, NodeId{1}, make_msg(25000), TrafficClass::kIntraShard);
  net_.send(NodeId{0}, NodeId{2}, make_msg(25000), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].at, 110 * kMillisecond);
  EXPECT_EQ(received_[1].at, 120 * kMillisecond);  // queued behind the first
}

TEST_F(NetworkTest, ZeroBandwidthModelDisabled) {
  NetConfig cfg;
  cfg.model_bandwidth = false;
  Network fast(sim_, cfg, Rng(1));
  SimTime arrival = -1;
  fast.register_node(NodeId{0}, [](const Message&) {});
  fast.register_node(NodeId{1}, [&](const Message&) { arrival = sim_.now(); });
  fast.send(NodeId{0}, NodeId{1}, make_msg(1 << 20), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(arrival, 100 * kMillisecond);
}

TEST_F(NetworkTest, MulticastSkipsSelf) {
  std::vector<NodeId> group{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  net_.multicast(NodeId{0}, group, make_msg(100), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(received_.size(), 3u);
  for (const auto& d : received_) EXPECT_NE(d.to, NodeId{0});
}

TEST_F(NetworkTest, GossipReachesEveryMemberExactlyOnce) {
  std::vector<NodeId> group;
  for (std::uint32_t i = 0; i < 8; ++i) group.push_back(NodeId{i});
  NetConfig cfg;
  cfg.gossip_fanout = 2;
  Network net(sim_, cfg, Rng(3));
  std::vector<int> count(8, 0);
  for (std::uint32_t i = 0; i < 8; ++i)
    net.register_node(NodeId{i}, [&count, i](const Message&) { ++count[i]; });
  net.gossip(NodeId{0}, group, make_msg(100), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(count[0], 0);  // sender does not self-deliver
  for (std::uint32_t i = 1; i < 8; ++i) EXPECT_EQ(count[i], 1) << "node " << i;
}

TEST_F(NetworkTest, GossipFasterThanLinearBroadcastForLargePayloads) {
  // 2 MB block to 63 peers: unicast from one sender serializes 63 copies;
  // gossip pays ~log_8(63) levels.
  constexpr std::uint32_t kBlock = 2 * 1024 * 1024;
  std::vector<NodeId> group;
  for (std::uint32_t i = 0; i < 64; ++i) group.push_back(NodeId{i});

  Simulator sim_a;
  Network a(sim_a, NetConfig{}, Rng(5));
  SimTime last_a = 0;
  for (std::uint32_t i = 0; i < 64; ++i)
    a.register_node(NodeId{i}, [&](const Message&) { last_a = sim_a.now(); });
  a.multicast(NodeId{0}, group, make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, kBlock, 1),
              TrafficClass::kIntraShard);
  sim_a.run_until_idle();

  Simulator sim_b;
  Network b(sim_b, NetConfig{}, Rng(5));
  SimTime last_b = 0;
  for (std::uint32_t i = 0; i < 64; ++i)
    b.register_node(NodeId{i}, [&](const Message&) { last_b = sim_b.now(); });
  b.gossip(NodeId{0}, group, make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, kBlock, 1),
           TrafficClass::kIntraShard);
  sim_b.run_until_idle();

  EXPECT_LT(last_b, last_a / 3);
}

TEST_F(NetworkTest, TrafficAccountingByClass) {
  net_.send(NodeId{0}, NodeId{1}, make_msg(100), TrafficClass::kIntraShard);
  net_.send(NodeId{0}, NodeId{2}, make_msg(200), TrafficClass::kCrossShard);
  net_.send(NodeId{0}, NodeId{3}, make_msg(200), TrafficClass::kCrossShard);
  net_.client_send(NodeId{1}, make_msg(50));
  sim_.run_until_idle();
  const auto& st = net_.stats();
  EXPECT_EQ(st.messages[0], 1u);
  EXPECT_EQ(st.messages[1], 2u);
  EXPECT_EQ(st.messages[2], 1u);
  EXPECT_EQ(st.bytes[1], 400u);
  EXPECT_NEAR(st.cross_shard_message_ratio(), 2.0 / 3.0, 1e-9);
}

TEST_F(NetworkTest, DownNodeDropsTraffic) {
  net_.set_node_down(NodeId{1}, true);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{1}, NodeId{2}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_TRUE(received_.empty());
  net_.set_node_down(NodeId{1}, false);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(NetworkTest, PayloadSharedAcrossDeliveries) {
  const Message m = make_msg(10, 42);
  std::vector<NodeId> group{NodeId{0}, NodeId{1}, NodeId{2}};
  net_.multicast(NodeId{0}, group, m, TrafficClass::kIntraShard);
  sim_.run_until_idle();
  for (const auto& d : received_) {
    EXPECT_EQ(payload_as<IntPayload>(d.msg).value, 42);
    EXPECT_EQ(d.msg.payload.get(), m.payload.get());  // same allocation
  }
}

TEST_F(NetworkTest, CertainDropBlocksDelivery) {
  LinkFaults faults;
  faults.drop_rate = 1.0;
  net_.set_fault_profile(faults);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{2}, NodeId{3}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.fault_stats().dropped, 2u);
  // Clearing the profile restores lossless delivery.
  net_.set_fault_profile(LinkFaults{});
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(NetworkTest, CertainDuplicationDeliversTwice) {
  LinkFaults faults;
  faults.duplicate_rate = 1.0;
  net_.set_fault_profile(faults);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10, 7), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  for (const auto& d : received_) {
    EXPECT_EQ(d.to, NodeId{1});
    EXPECT_EQ(payload_as<IntPayload>(d.msg).value, 7);
  }
  EXPECT_GT(received_[1].at, received_[0].at);  // copy arrives strictly later
  EXPECT_EQ(net_.fault_stats().duplicated, 1u);
}

TEST_F(NetworkTest, PartitionBlocksBothDirectionsUntilHealed) {
  const NodeId island[] = {NodeId{1}, NodeId{2}};
  net_.partition(island, 1);
  EXPECT_TRUE(net_.partitioned(NodeId{0}, NodeId{1}));
  EXPECT_FALSE(net_.partitioned(NodeId{1}, NodeId{2}));  // same side
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{1}, NodeId{0}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{1}, NodeId{2}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);  // only the intra-island message
  EXPECT_EQ(received_[0].to, NodeId{2});
  EXPECT_EQ(net_.fault_stats().partition_blocked, 2u);

  net_.heal_partitions();
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  EXPECT_EQ(received_.size(), 2u);
}

TEST_F(NetworkTest, PerLinkExtraDelayIsDirectional) {
  net_.set_link_delay(NodeId{0}, NodeId{1}, 500 * kMillisecond);
  net_.send(NodeId{0}, NodeId{1}, make_msg(25000), TrafficClass::kIntraShard);
  net_.send(NodeId{1}, NodeId{0}, make_msg(25000), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  // Reverse direction pays only serialization + base latency.
  EXPECT_EQ(received_[0].at, 110 * kMillisecond);
  EXPECT_EQ(received_[0].to, NodeId{0});
  EXPECT_EQ(received_[1].at, 610 * kMillisecond);
  EXPECT_EQ(received_[1].to, NodeId{1});

  net_.set_link_delay(NodeId{0}, NodeId{1}, 0);  // cleared
  received_.clear();
  const SimTime resend = sim_.now();
  net_.send(NodeId{0}, NodeId{1}, make_msg(25000), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at - resend, 110 * kMillisecond);
}

TEST(NetworkDeterminism, SameSeedSameFaultSchedule) {
  // Under a lossy+duplicating profile, the same seed must reproduce the exact
  // delivery schedule and fault counters.
  static std::vector<std::pair<std::uint32_t, SimTime>> first_run;
  static FaultStats first_faults;
  for (int round = 0; round < 2; ++round) {
    Simulator sim;
    NetConfig cfg;
    cfg.jitter_max = 5 * kMillisecond;
    Network net(sim, cfg, Rng(1234));
    LinkFaults faults;
    faults.drop_rate = 0.3;
    faults.duplicate_rate = 0.2;
    faults.extra_delay_max = 50 * kMillisecond;
    net.set_fault_profile(faults);
    std::vector<std::pair<std::uint32_t, SimTime>> arrivals;
    for (std::uint32_t i = 0; i < 12; ++i)
      net.register_node(NodeId{i}, [&arrivals, &sim, i](const Message&) {
        arrivals.emplace_back(i, sim.now());
      });
    std::vector<NodeId> group;
    for (std::uint32_t i = 0; i < 12; ++i) group.push_back(NodeId{i});
    for (int k = 0; k < 10; ++k) {
      net.gossip(NodeId{static_cast<std::uint32_t>(k % 12)}, group,
                 make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, 2000, k),
                 TrafficClass::kIntraShard);
    }
    sim.run_until_idle();
    if (round == 0) {
      first_run = arrivals;
      first_faults = net.fault_stats();
      EXPECT_GT(first_faults.dropped, 0u);
    } else {
      EXPECT_EQ(arrivals, first_run);
      EXPECT_EQ(net.fault_stats().dropped, first_faults.dropped);
      EXPECT_EQ(net.fault_stats().duplicated, first_faults.duplicated);
    }
  }
}

TEST(NetworkDeterminism, SameSeedSameSchedule) {
  for (int round = 0; round < 2; ++round) {
    static std::vector<SimTime> first_run;
    Simulator sim;
    NetConfig cfg;
    cfg.jitter_max = 10 * kMillisecond;
    Network net(sim, cfg, Rng(99));
    std::vector<SimTime> arrivals;
    for (std::uint32_t i = 0; i < 16; ++i)
      net.register_node(NodeId{i}, [&](const Message&) { arrivals.push_back(sim.now()); });
    std::vector<NodeId> group;
    for (std::uint32_t i = 0; i < 16; ++i) group.push_back(NodeId{i});
    net.gossip(NodeId{0}, group,
               make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, 5000, 0),
               TrafficClass::kIntraShard);
    sim.run_until_idle();
    if (round == 0)
      first_run = arrivals;
    else
      EXPECT_EQ(arrivals, first_run);
  }
}

TEST_F(NetworkTest, PerLinkFaultAttribution) {
  LinkFaults faults;
  faults.drop_rate = 1.0;
  net_.set_fault_profile(faults);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{0}, NodeId{1}, make_msg(10), TrafficClass::kIntraShard);
  net_.send(NodeId{2}, NodeId{3}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  const auto& fs = net_.fault_stats();
  EXPECT_EQ(fs.dropped, 3u);
  const std::uint64_t link01 = (std::uint64_t{0} << 32) | 1;
  const std::uint64_t link23 = (std::uint64_t{2} << 32) | 3;
  ASSERT_TRUE(fs.per_link.count(link01));
  ASSERT_TRUE(fs.per_link.count(link23));
  EXPECT_EQ(fs.per_link.at(link01).dropped, 2u);
  EXPECT_EQ(fs.per_link.at(link23).dropped, 1u);

  net_.set_fault_profile(LinkFaults{});
  LinkFaults dup;
  dup.duplicate_rate = 1.0;
  net_.set_fault_profile(dup);
  net_.send(NodeId{4}, NodeId{5}, make_msg(10), TrafficClass::kIntraShard);
  sim_.run_until_idle();
  const std::uint64_t link45 = (std::uint64_t{4} << 32) | 5;
  ASSERT_TRUE(net_.fault_stats().per_link.count(link45));
  EXPECT_EQ(net_.fault_stats().per_link.at(link45).duplicated, 1u);
}

TEST_F(NetworkTest, MessageTelemetryCountsTypesAndHops) {
  telemetry::Telemetry tel;
  net_.set_telemetry(&tel);
  net_.send(NodeId{0}, NodeId{1}, make_msg(100), TrafficClass::kIntraShard);
  net_.send(NodeId{0}, NodeId{2}, make_msg(200), TrafficClass::kCrossShard);
  sim_.run_until_idle();
  net_.set_telemetry(nullptr);

  const auto idx = static_cast<std::size_t>(MsgType::kClientTx);
  EXPECT_EQ(tel.net.per_type[idx].count, 2u);
  EXPECT_EQ(tel.net.per_type[idx].bytes, 300u);
  EXPECT_STREQ(tel.net.type_name[idx], "client_tx");
  // Two scheduled hops, each paying at least the base latency.
  EXPECT_EQ(tel.net.hop_delay_us.count(), 2u);
  EXPECT_GE(tel.net.hop_delay_us.min(), 100 * kMillisecond);
}

TEST(NetworkTelemetry, AttachingTelemetryDoesNotPerturbSchedule) {
  // Telemetry is passive: same seed with and without it attached must give a
  // bit-identical delivery schedule under a lossy profile.
  std::vector<std::pair<std::uint32_t, SimTime>> runs[2];
  for (int round = 0; round < 2; ++round) {
    Simulator sim;
    NetConfig cfg;
    cfg.jitter_max = 10 * kMillisecond;
    Network net(sim, cfg, Rng(42));
    telemetry::Telemetry tel;
    if (round == 1) net.set_telemetry(&tel);
    LinkFaults faults;
    faults.drop_rate = 0.3;
    faults.duplicate_rate = 0.2;
    net.set_fault_profile(faults);
    for (std::uint32_t i = 0; i < 8; ++i)
      net.register_node(NodeId{i}, [&, i](const Message&) {
        runs[round].push_back({i, sim.now()});
      });
    for (int k = 0; k < 50; ++k)
      net.send(NodeId{static_cast<std::uint32_t>(k % 4)},
               NodeId{static_cast<std::uint32_t>(4 + k % 4)},
               make_message<IntPayload>(MsgType::kClientTx, NodeId{0}, 1000, k),
               TrafficClass::kCrossShard);
    sim.run_until_idle();
    if (round == 1) net.set_telemetry(nullptr);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

}  // namespace
}  // namespace jenga::sim
