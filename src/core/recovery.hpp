// Stuck-2PC recovery ladder (DESIGN.md §14).
//
// The watchdog in JengaSystem flags a 2PC round whose ack never came back
// (gray link, slow relayer, lost leg).  Flagging alone only records the
// violation; this module turns the flag into a repair.  Each wedged round
// walks a per-round ladder the coordinator drives from its watchdog scan:
//
//   rung 1..max_rerequests  — kProbe: re-offer the prepare to the destination
//                             shard.  If the prepare was lost the destination
//                             adopts it now; if the credit already happened
//                             the destination re-sends the lost ack.  Probes
//                             are idempotent (attempt-scoped dedup keys).
//   rung max_rerequests+1.. — kAbortQuery: settle the round NOW.  The
//                             destination answers kCredited (credit applied,
//                             treat as the ack) or kNeverCredited (credit
//                             tombstoned so it can never land later; the
//                             coordinator refunds the debit and retries the
//                             transfer as a fresh attempt).
//
// The ladder is pure policy — it decides WHAT to do next and when; the
// system performs the sends and state changes.  Keeping it a standalone
// value type makes the escalation schedule unit-testable without a network.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace jenga::core {

struct RecoveryConfig {
  /// Master switch: false restores the observe-only watchdog (flag + flight
  /// dump, no repair traffic).
  bool enabled = true;
  /// Probe rungs before the ladder escalates to a force-abort query.
  std::uint32_t max_rerequests = 2;
  /// Full retry cycles (refund + fresh attempt) before the transfer is
  /// terminally aborted.  Attempt 0 is the original round.
  std::uint32_t max_attempts = 3;
  /// Delay between consecutive ladder actions on one round.
  SimTime backoff = 10 * kSecond;
};

/// Per-round ladder position, embedded in the coordinator's inflight entry.
struct LadderState {
  std::uint32_t rung = 0;     // actions taken so far on this attempt
  SimTime next_action = 0;    // earliest time the next action may fire
};

enum class LadderAction : std::uint8_t {
  kWait = 0,        // backoff not elapsed, do nothing this scan
  kProbe = 1,       // re-request the round
  kAbortQuery = 2,  // force the round to settle
};

/// Advances `st` and returns the action due at `now` (kWait if the backoff
/// has not elapsed).  The first action on a freshly flagged round fires
/// immediately; subsequent ones respect cfg.backoff.
[[nodiscard]] LadderAction ladder_next(const RecoveryConfig& cfg, LadderState& st,
                                       SimTime now);

}  // namespace jenga::core
