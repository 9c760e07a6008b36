// Simulated partially-synchronous P2P network.
//
// Timing model (DESIGN.md §5): each transmission pays
//   serialization (size / per-node egress bandwidth, FIFO per sender)
//   + base propagation latency (default 100 ms, paper's setting)
//   + optional uniform jitter.
// Broadcast to a group can go unicast (leader collecting votes — tiny
// messages) or via a gossip tree (block dissemination — large messages fan
// out through relays, paying log-depth rather than linear serialization).
//
// Every delivery is tagged intra-shard / cross-shard / client; those
// counters are the measurement behind Fig. 3e and the communication
// breakdowns discussed throughout the paper.
//
// Adversarial link model (DESIGN.md "Fault model"): on top of the timing
// model the network can probabilistically drop or duplicate messages, add
// per-link extra delay, enforce bidirectional partitions between node sets,
// and take nodes down/up (crash churn).  All fault draws come from the same
// deterministic rng stream as jitter, so a faulted run replays bit-identically
// for a given seed.  Fault knobs apply to node-to-node traffic only; client
// injection (`client_send`) is assumed reliable — clients retry out of band.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "simnet/message.hpp"
#include "simnet/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::sim {

enum class TrafficClass : std::uint8_t { kIntraShard = 0, kCrossShard = 1, kClient = 2 };

/// How a group broadcast physically spreads (DESIGN.md §12).
///   kNaive: sender unicasts to every member (O(n) copies through one uplink).
///   kTree:  one-shot fanout tree (log-depth, fragile under loss).
///   kRumor: push-pull rumor mongering via the attached RumorTransport
///           (constant per-node fanout, pull-digest loss repair, dup-drop).
enum class Transport : std::uint8_t { kNaive = 0, kTree = 1, kRumor = 2 };

/// Message classes that a Transport can be chosen for independently.
enum class BroadcastKind : std::uint8_t {
  kProposal = 0,  // BFT pre-prepare value dissemination inside a group
  kRelay = 1,     // certified grant/result batches relayed into a group
  kBeacon = 2,    // epoch VRF contributions to the whole network
};

[[nodiscard]] constexpr const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kNaive: return "naive";
    case Transport::kTree: return "tree";
    case Transport::kRumor: return "rumor";
  }
  return "?";
}

struct NetConfig {
  SimTime base_latency = 100 * kMillisecond;  // paper: 100 ms per message
  double bandwidth_bps = 20e6;                // paper: 20 Mbps per node
  SimTime jitter_max = 0;                     // uniform [0, jitter_max)
  std::size_t gossip_fanout = 8;
  /// If false, serialization delay is skipped (pure-latency model for tests).
  bool model_bandwidth = true;
  /// Per-message-class dissemination transport, indexed by BroadcastKind.
  /// Defaults reproduce the pre-rumor behaviour (fanout trees) bit-exactly.
  Transport transports[3] = {Transport::kTree, Transport::kTree, Transport::kTree};
  /// Batching window for certified relay traffic in rumor mode: messages to
  /// the same destination group flushed as one framed rumor per window.
  SimTime batch_window = 100 * kMillisecond;

  [[nodiscard]] Transport transport_for(BroadcastKind k) const {
    return transports[static_cast<std::size_t>(k)];
  }
  void set_all_transports(Transport t) { transports[0] = transports[1] = transports[2] = t; }
  [[nodiscard]] bool any_rumor() const {
    return transports[0] == Transport::kRumor || transports[1] == Transport::kRumor ||
           transports[2] == Transport::kRumor;
  }
};

/// Deterministic content-derived rumor id: mixes the logical identity of a
/// broadcast (group tag, height, digest, ...) so that the same logical rumor
/// started by different relays dedups to one spread.
[[nodiscard]] constexpr std::uint64_t rumor_id_mix(std::uint64_t a, std::uint64_t b = 0,
                                                   std::uint64_t c = 0,
                                                   std::uint64_t d = 0) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL;
  x ^= (b + 0xC2B2AE3D27D4EB4FULL) + (x << 6) + (x >> 2);
  x *= 0xD1B54A32D192ED03ULL;
  x ^= (c + 0x165667B19E3779F9ULL) + (x << 6) + (x >> 2);
  x *= 0x9E3779B97F4A7C15ULL;
  x ^= (d + 0xD6E8FEB86659FD93ULL) + (x << 6) + (x >> 2);
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return x;
}

/// Interface the rumor-spreading subsystem (src/gossip/RumorMesh) implements;
/// kept abstract here so simnet does not depend on gossip.  The mesh sends
/// its push/pull messages back through Network::send (so they pay the full
/// timing/fault model) and hands accepted rumor payloads to the registered
/// node handlers via Network::deliver_local.
class RumorTransport {
 public:
  virtual ~RumorTransport() = default;
  /// Starts spreading `msg` (identified by `rumor_id`) from `origin` inside
  /// `group`.  Duplicate ids (e.g. several subgroup relays starting the same
  /// certified batch) merge into one spread.
  virtual void broadcast(NodeId origin, std::span<const NodeId> group,
                         std::uint64_t rumor_id, const Message& msg, TrafficClass cls) = 0;
  /// Consumes a kRumorPush / kRumorPullReq / kRumorPullResp delivery.
  virtual void on_message(NodeId to, const Message& msg) = 0;
};

/// Passive observer of message arrivals, implemented by the phi-accrual
/// failure detector (src/security/detector.*).  Kept abstract here so simnet
/// does not depend on the detector.  Called inside the delivery event, after
/// the down-recheck, for node-to-node traffic only; implementations must be
/// pure bookkeeping (no scheduling, no rng) so an attached observer leaves
/// the event stream bit-identical.
class ArrivalObserver {
 public:
  virtual ~ArrivalObserver() = default;
  virtual void on_arrival(NodeId from, NodeId to, SimTime now) = 0;
};

/// Per-node gray-failure profile (DESIGN.md §14): the node is alive and
/// participating, just degraded.  Unlike LinkFaults these are scoped to one
/// node, so a gray window perturbs only traffic touching that node.
struct NodeGray {
  double ingress_drop_rate = 0.0;  // lossy NIC: inbound deliveries silently lost
  double serialize_factor = 1.0;   // slow node: egress serialization multiplier
  SimTime proc_delay = 0;          // slow node: fixed extra inbound processing delay

  [[nodiscard]] bool any() const {
    return ingress_drop_rate > 0 || serialize_factor != 1.0 || proc_delay > 0;
  }
};

/// Probabilistic link-fault profile.  Each delivery attempt is an independent
/// Bernoulli draw; duplication schedules a second attempt (itself subject to
/// the drop draw) shortly after the first.
struct LinkFaults {
  double drop_rate = 0.0;       // P(a delivery attempt is silently lost)
  double duplicate_rate = 0.0;  // P(an extra copy of the message is delivered)
  SimTime extra_delay_max = 0;  // uniform [0, max) added per delivery

  [[nodiscard]] bool any() const {
    return drop_rate > 0 || duplicate_rate > 0 || extra_delay_max > 0;
  }
};

/// Counters for injected faults (reported next to TrafficStats so chaos runs
/// can assert determinism over the whole fault schedule).
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t partition_blocked = 0;
  std::uint64_t down_blocked = 0;
  std::uint64_t gray_dropped = 0;  // inbound losses charged to a lossy NIC

  /// Per-directed-link drop/duplicate attribution, keyed (from << 32 | to).
  /// Lets a chaos report say *which* links the fault injector actually hit.
  struct LinkFaultCounts {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
  };
  std::unordered_map<std::uint64_t, LinkFaultCounts> per_link;

  [[nodiscard]] std::uint64_t total() const {
    return dropped + duplicated + partition_blocked + down_blocked + gray_dropped;
  }
};

struct TrafficStats {
  std::uint64_t messages[3]{};
  std::uint64_t bytes[3]{};

  [[nodiscard]] std::uint64_t total_messages() const {
    return messages[0] + messages[1] + messages[2];
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return bytes[0] + bytes[1] + bytes[2]; }
  [[nodiscard]] double cross_shard_message_ratio() const {
    const auto proto = messages[0] + messages[1];
    return proto == 0 ? 0.0 : static_cast<double>(messages[1]) / static_cast<double>(proto);
  }
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(Simulator& sim, NetConfig config, Rng rng)
      : sim_(sim), config_(config), rng_(std::move(rng)) {}

  /// Registers node `id`'s receive handler.  Ids must be dense from 0.
  void register_node(NodeId id, Handler handler);

  /// Unicast with full timing + accounting.
  void send(NodeId from, NodeId to, Message msg, TrafficClass cls);

  /// Unicast each member (skipping `from` itself).  Used for small messages
  /// (votes, certificates to a handful of shards).
  void multicast(NodeId from, std::span<const NodeId> group, const Message& msg,
                 TrafficClass cls);

  /// Gossip-tree dissemination inside a group: `from` sends to `fanout`
  /// relays, each relay forwards to its own children, etc.  Every member
  /// receives exactly one copy; each hop pays that relay's serialization +
  /// latency.  Matches how real sharded chains propagate 2 MB blocks without
  /// the leader serializing 200 copies.
  void gossip(NodeId from, std::span<const NodeId> group, const Message& msg,
              TrafficClass cls);

  /// Group dissemination via the transport configured for `kind`
  /// (naive unicast / fanout tree / rumor mongering).  `rumor_id` is the
  /// content-derived dedup key (rumor mode only; see rumor_id_mix).
  void broadcast(BroadcastKind kind, NodeId from, std::span<const NodeId> group,
                 std::uint64_t rumor_id, const Message& msg, TrafficClass cls);

  /// Attaches the rumor-spreading subsystem (nullptr detaches).  Required
  /// before any BroadcastKind is configured to Transport::kRumor; without a
  /// mesh, rumor-mode broadcasts fall back to the fanout tree.
  void set_rumor_mesh(RumorTransport* mesh) { rumor_ = mesh; }
  [[nodiscard]] RumorTransport* rumor_mesh() const { return rumor_; }

  /// Invokes `to`'s handler synchronously in the current causal context (the
  /// rumor mesh unpacks accepted rumors inside the carrying push's delivery).
  void deliver_local(NodeId to, const Message& msg);

  /// Message from a client (not one of the N nodes) into the system; pays
  /// latency but no node egress serialization.
  void client_send(NodeId to, Message msg);

  /// Cross-shard transmission relayed through a client (the baseline
  /// implementation the paper describes in §VII-E): two legs of latency and
  /// serialization, accounted as two cross-shard messages.
  void send_via_relay(NodeId from, NodeId to, Message msg, TrafficClass cls);

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }

  /// Per-node egress accounting (messages/bytes each node has sent), the
  /// measurement behind the dissemination bench's flatness criterion and the
  /// net.node_* gauges the harness folds into the registry snapshot.
  [[nodiscard]] std::span<const std::uint64_t> node_sent_msgs() const {
    return node_sent_msgs_;
  }
  [[nodiscard]] std::span<const std::uint64_t> node_sent_bytes() const {
    return node_sent_bytes_;
  }

  [[nodiscard]] const NetConfig& config() const { return config_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Drops all traffic from/to a node (crash-fault injection).
  void set_node_down(NodeId id, bool down);
  [[nodiscard]] bool node_down(NodeId id) const;

  // --- Adversarial link model ---------------------------------------------

  /// Installs the global probabilistic fault profile (drop/duplicate/delay).
  void set_fault_profile(const LinkFaults& faults) { faults_ = faults; }
  [[nodiscard]] const LinkFaults& fault_profile() const { return faults_; }

  /// Extra fixed delay on the directed link from -> to (0 clears it).
  void set_link_delay(NodeId from, NodeId to, SimTime extra);

  /// Installs (or clears, when `g.any()` is false) a per-node gray-failure
  /// profile.  A lossy NIC draws its drops from the shared rng stream, but
  /// only while at least one gray profile is installed — clean runs consume
  /// an untouched stream.
  void set_node_gray(NodeId id, const NodeGray& g);
  [[nodiscard]] NodeGray node_gray(NodeId id) const;

  /// Attaches a passive arrival observer (nullptr detaches); see
  /// ArrivalObserver for the determinism contract.
  void set_arrival_observer(ArrivalObserver* obs) { arrival_observer_ = obs; }

  /// Assigns `nodes` to partition `group`; traffic between nodes in
  /// different groups is blocked in both directions (checked when the send
  /// is initiated — messages already in flight still arrive).  Group 0 is
  /// the default connected component.
  void partition(std::span<const NodeId> nodes, std::uint8_t group);
  void set_partition_group(NodeId id, std::uint8_t group);
  /// Reconnects everything (all nodes back to group 0).
  void heal_partitions();
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;

  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  /// Attaches a telemetry context (nullptr detaches).  Recording is passive:
  /// an instrumented run consumes the same rng stream and schedules the same
  /// events as a bare one.  Also binds the causal tracer to the simulator's
  /// context cell so span parentage can be read at send time.
  void set_telemetry(telemetry::Telemetry* t);
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// The network's deterministic rng (the rumor mesh derives its own stream
  /// from a fixed permutation of a draw so fault schedules stay untouched).
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  [[nodiscard]] SimTime serialization_delay(std::uint32_t bytes) const;
  /// Scales `ser` by the node's gray serialize_factor (1.0 when clean).
  [[nodiscard]] SimTime egress_ser(NodeId from, SimTime ser) const;
  [[nodiscard]] SimTime jitter();
  /// Assigns `msg` a causal span (when tracing is enabled) whose parent is
  /// the message being handled right now, and mirrors the send into the
  /// flight recorder.  Pure observation — no-ops into msg.span = 0 otherwise.
  void stamp_span(Message& msg, std::uint32_t from, std::uint32_t to, SimTime send,
                  SimTime depart);
  /// Same with an explicit parent span (gossip relay hops are caused by the
  /// relay's inbound copy, not by the context that started the gossip).
  void stamp_span_with_parent(Message& msg, std::uint32_t from, std::uint32_t to, SimTime send,
                              SimTime depart, std::uint64_t parent);
  /// Reserves the sender's egress link and returns the departure time.
  SimTime reserve_egress(NodeId from, std::uint32_t bytes);
  void account_sender(NodeId from, std::uint32_t bytes);
  void deliver_at(SimTime when, NodeId to, Message msg);
  /// Applies partition / drop / duplicate / extra-delay faults, then
  /// delivers.  Returns true if at least one copy was scheduled (gossip uses
  /// this to cut off the subtree of a relay that never received the message).
  bool deliver_faulty(NodeId from, SimTime when, NodeId to, Message msg);
  void account(TrafficClass cls, MsgType type, std::uint32_t bytes);

  Simulator& sim_;
  NetConfig config_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<SimTime> egress_busy_until_;
  std::vector<bool> down_;
  std::vector<std::uint8_t> partition_group_;
  std::unordered_map<std::uint64_t, SimTime> link_delay_;  // (from<<32|to)
  std::unordered_map<std::uint32_t, NodeGray> gray_;       // empty when no gray fault armed
  LinkFaults faults_;
  TrafficStats stats_;
  FaultStats fault_stats_;
  std::vector<std::uint64_t> node_sent_msgs_;
  std::vector<std::uint64_t> node_sent_bytes_;
  telemetry::Telemetry* telemetry_ = nullptr;
  RumorTransport* rumor_ = nullptr;
  ArrivalObserver* arrival_observer_ = nullptr;
};

}  // namespace jenga::sim
