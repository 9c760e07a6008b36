#include "simnet/simulator.hpp"

#include <cassert>
#include <utility>

namespace jenga::sim {

void Simulator::schedule_at(SimTime when, Task task) {
  assert(task);  // an empty task marks a timer's event
  if (when < now_) when = now_;
  queue_.push(Event{when, next_seq_++, ctx_, std::move(task)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top() returns const&; the task must be moved out, so pop
  // into a local copy of the handle first.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  ++events_processed_;
  if (!ev.task) {
    if (Timer* timer = timers_[ev.ctx]) timer->on_event(ev.seq);
  } else {
    ctx_ = ev.ctx;
    ev.task();
  }
  ctx_ = 0;
  return true;
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

std::uint64_t Simulator::run_until_idle(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

Simulator::Timer::Timer(Simulator& sim, Task on_fire) : sim_(sim), on_fire_(std::move(on_fire)) {
  if (sim_.free_slots_.empty()) {
    slot_ = static_cast<std::uint32_t>(sim_.timers_.size());
    sim_.timers_.push_back(this);
  } else {
    slot_ = sim_.free_slots_.back();
    sim_.free_slots_.pop_back();
    sim_.timers_[slot_] = this;
  }
}

Simulator::Timer::~Timer() {
  // This timer's queued events find the slot empty, or held by a later
  // timer whose queued seq is not theirs, and drop.
  sim_.timers_[slot_] = nullptr;
  sim_.free_slots_.push_back(slot_);
}

void Simulator::Timer::arm(SimTime when) {
  armed_ = true;
  when_ = when < sim_.now_ ? sim_.now_ : when;
  seq_ = sim_.next_seq_++;
  ctx_ = sim_.ctx_;
  // The queued event comes before the new deadline (its seq is older), so
  // it moves on there when popped.
  if (queued_ && queued_when_ <= when_) return;
  queue();
}

void Simulator::Timer::queue() {
  queued_ = true;
  queued_when_ = when_;
  queued_seq_ = seq_;
  sim_.queue_.push(Event{when_, seq_, slot_, Task{}});
}

void Simulator::Timer::on_event(std::uint64_t seq) {
  if (!queued_ || seq != queued_seq_) return;  // superseded by an earlier deadline
  queued_ = false;
  if (!armed_) return;  // cancelled
  if (seq != seq_) {    // re-armed later since this event was queued
    queue();
    return;
  }
  armed_ = false;
  sim_.ctx_ = ctx_;
  on_fire_();
}

}  // namespace jenga::sim
