// Message taxonomy for the simulated P2P network.
//
// Payloads are shared immutable objects: a broadcast to 200 peers shares one
// allocation.  The wire size is charged explicitly (`size_bytes`) so the
// bandwidth model stays faithful even though payloads are never serialized
// inside the simulator.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace jenga::sim {

enum class MsgType : std::uint16_t {
  // Client traffic
  kClientTx = 1,

  // Intra-group BFT consensus (linear PBFT with aggregated certificates)
  kBftPrePrepare = 10,
  kBftPrepareVote = 11,
  kBftPreparedCert = 12,
  kBftCommitVote = 13,
  kBftCommitCert = 14,
  kBftViewChange = 15,
  kBftNewView = 16,
  kBftSyncRequest = 17,   // recovering replica asks a peer for decided heights
  kBftSyncResponse = 18,  // (value, commit cert) entries for missed heights

  // Jenga cross-shard protocol (travels via subgroup members, §V-C); a grant
  // with `available = false` asks for an abort, a result with `ok = false`
  // carries one.
  kStateGrant = 30,      // state shard -> execution channel (state + lock proof)
  kExecResult = 32,      // execution channel -> state shards (state updates)

  // Cross-shard hand-offs outside the grant/result exchange
  kSubTxResult = 40,     // every baseline work item sent between shards, plus
                         // Jenga w/o NWLS step continuations
  kTwoPcPrepare = 43,    // transfer txs: classic 2PC prepare
  kTwoPcCommit = 44,     // transfer txs: classic 2PC commit

  // Epoch reconfiguration (paper §V-D)
  kEpochVrf = 50,        // a member's VRF contribution to the next epoch's beacon

  // Rumor-spreading transport (src/gossip/, DESIGN.md §12).  Values must stay
  // below telemetry::MessageTelemetry::kMaxTypes (64).
  kRumorPush = 60,       // round-driven push: live rumors + known-id digest
  kRumorPullReq = 61,    // ids the receiver saw in a digest but doesn't hold
  kRumorPullResp = 62,   // payloads answering a pull request
  kBatchFrame = 63,      // coalesced (shard,channel) protocol messages + certs
};

/// Human-readable name for a message type (telemetry export); nullptr for
/// values outside the taxonomy.
[[nodiscard]] constexpr const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kClientTx: return "client_tx";
    case MsgType::kBftPrePrepare: return "bft_pre_prepare";
    case MsgType::kBftPrepareVote: return "bft_prepare_vote";
    case MsgType::kBftPreparedCert: return "bft_prepared_cert";
    case MsgType::kBftCommitVote: return "bft_commit_vote";
    case MsgType::kBftCommitCert: return "bft_commit_cert";
    case MsgType::kBftViewChange: return "bft_view_change";
    case MsgType::kBftNewView: return "bft_new_view";
    case MsgType::kBftSyncRequest: return "bft_sync_request";
    case MsgType::kBftSyncResponse: return "bft_sync_response";
    case MsgType::kStateGrant: return "state_grant";
    case MsgType::kExecResult: return "exec_result";
    case MsgType::kSubTxResult: return "subtx_result";
    case MsgType::kTwoPcPrepare: return "twopc_prepare";
    case MsgType::kTwoPcCommit: return "twopc_commit";
    case MsgType::kEpochVrf: return "epoch_vrf";
    case MsgType::kRumorPush: return "rumor_push";
    case MsgType::kRumorPullReq: return "rumor_pull_req";
    case MsgType::kRumorPullResp: return "rumor_pull_resp";
    case MsgType::kBatchFrame: return "batch_frame";
  }
  return nullptr;
}

[[nodiscard]] constexpr bool is_rumor_transport_type(MsgType t) {
  return t == MsgType::kRumorPush || t == MsgType::kRumorPullReq ||
         t == MsgType::kRumorPullResp;
}

/// Base class for all payloads; concrete types live with their protocols.
struct Payload {
  virtual ~Payload() = default;
};

struct Message {
  MsgType type{};
  NodeId from{};
  std::uint32_t size_bytes = 0;
  /// Causal span id assigned by the network at send time (0 when causal
  /// tracing is disabled).  Purely observational — no protocol reads it.
  std::uint64_t span = 0;
  std::shared_ptr<const Payload> payload;
};

/// Typed payload access.  The caller must know the concrete type from
/// `Message::type`; mismatches abort loudly (protocol bug, not runtime input).
template <typename T>
const T& payload_as(const Message& m) {
  const T* p = dynamic_cast<const T*>(m.payload.get());
  if (p == nullptr) __builtin_trap();
  return *p;
}

template <typename T, typename... Args>
Message make_message(MsgType type, NodeId from, std::uint32_t size_bytes, Args&&... args) {
  Message m;
  m.type = type;
  m.from = from;
  m.size_bytes = size_bytes;
  m.payload = std::make_shared<const T>(std::forward<Args>(args)...);
  return m;
}

}  // namespace jenga::sim
