// Discrete-event simulation core.
//
// A single-threaded event loop with virtual time.  All protocol behaviour in
// Jenga and the baselines is driven by events scheduled here; nothing ever
// consults a wall clock, so every run is deterministic and as fast as the
// host CPU allows.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace jenga::sim {

class Simulator {
 public:
  using Task = std::function<void()>;
  class Timer;

  Simulator() = default;
  // Timers hold a reference to their simulator.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `task` at absolute time `when` (clamped to now()).
  void schedule_at(SimTime when, Task task);

  /// Schedules `task` after `delay` microseconds.
  void schedule_after(SimTime delay, Task task) { schedule_at(now_ + delay, std::move(task)); }

  /// Runs the next event.  Returns false if the queue is empty.
  bool step();

  /// Runs events until virtual time exceeds `deadline` or the queue drains.
  /// Time is left at min(deadline, time of last event).
  void run_until(SimTime deadline);

  /// Runs until the queue drains (or `max_events` is hit, guarding against
  /// livelock in buggy protocols).  Returns the number of events processed.
  std::uint64_t run_until_idle(std::uint64_t max_events = UINT64_MAX);

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Causal context: an opaque span id carried alongside the event loop.
  /// `schedule_at` snapshots the current context into the new event and
  /// `step` restores it before running the task, so timer chains and
  /// self-scheduled work inherit the causal ancestor that armed them.  The
  /// network overrides the context to the delivered message's span at
  /// delivery time.  Purely observational: the context never influences
  /// ordering, timing, or any RNG, so runs are bit-identical whether or not
  /// anyone reads it.
  [[nodiscard]] std::uint64_t context() const { return ctx_; }
  void set_context(std::uint64_t ctx) { ctx_ = ctx; }
  /// Stable pointer to the current context, for passive observers
  /// (telemetry) that must not depend on this header.
  [[nodiscard]] const std::uint64_t* context_handle() const { return &ctx_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break keeps same-instant ordering deterministic
    // The causal context captured at schedule time, or, for a timer's event
    // (empty `task`), the timer's slot in `timers_`.
    std::uint64_t ctx;
    Task task;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t ctx_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Timer*> timers_;          // by slot; null once its timer is destroyed
  std::vector<std::uint32_t> free_slots_;
};

/// A re-armable one-shot deadline that keeps one event queued while its
/// deadline only moves later.
///
/// `arm(when)` takes the next seq and the current causal context exactly as
/// `schedule_at(when, task)` would, and the callback runs at that (when, seq)
/// and under that context: a timer fires where a task scheduled by its last
/// arm would run if every earlier arm's task were made a no-op, so replacing
/// such a generation-checked `schedule_at` with a Timer leaves every other
/// event's (when, seq) and the order of all callbacks unchanged.  What
/// changes is the queue: the timer's queued event, popped before the
/// deadline, re-queues itself at the deadline's stored (when, seq) without
/// drawing a seq; only a deadline moved earlier than the queued event queues
/// a second one, and the superseded event drops itself when popped.  Those
/// pops run nothing but count in `events_processed()`.
///
/// A Timer must not outlive its simulator; destroying it leaves its queued
/// events to drop themselves.
class Simulator::Timer {
 public:
  Timer(Simulator& sim, Task on_fire);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Sets the deadline to `when` (clamped to now()), replacing any other.
  void arm(SimTime when);
  void arm_after(SimTime delay) { arm(sim_.now_ + delay); }
  /// Disarms the timer; a queued event then drops itself.
  void cancel() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  friend class Simulator;
  /// Queues an event at the deadline.
  void queue();
  /// Runs when the event queued with `seq` is popped.
  void on_event(std::uint64_t seq);

  Simulator& sim_;
  Task on_fire_;
  std::uint32_t slot_ = 0;
  bool armed_ = false;
  bool queued_ = false;  // an event of this timer is queued at queued_*
  SimTime when_ = 0;     // the last arm's deadline, seq and causal context
  std::uint64_t seq_ = 0;
  std::uint64_t ctx_ = 0;
  SimTime queued_when_ = 0;
  std::uint64_t queued_seq_ = 0;
};

}  // namespace jenga::sim
