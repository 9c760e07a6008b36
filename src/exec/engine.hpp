// Deterministic parallel transaction execution engine (DESIGN.md §7).
//
// A batch of tasks — each a full VM invocation against its own private
// PortableState bundle — is claimed task by task by a fixed worker pool.  No
// task sees another's output, so tasks run in any order, side by side, and
// results come back in input order.  The results and every metric the engine
// records depend only on the batch contents, so a run with 8 workers is
// bit-identical to a serial one.  The calling thread claims tasks too, so
// `workers == 1` spawns no threads at all and is exactly the serial path.
//
// Each task owns its input bundle, so tasks of one batch may name the same
// contract or account and each sees only its own copy.  Jenga's pre-prepare
// locks each state a transaction touches before its channel executes it; a
// baseline hands in each run of exec items of a decided block, every bundle
// copied from its shard in block order (baselines/baseline_base.hpp).  Tasks
// that call one contract read its vm::ContractLogic concurrently; the VM
// never writes it.
//
// Threading contract: run_batch() blocks until the whole batch finished;
// claims are taken under one mutex (cheap next to a VM run), each task/result
// slot is touched by exactly one worker per batch, and telemetry is recorded
// on the calling thread after the join — the MetricsRegistry itself is never
// shared.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "exec/conflict.hpp"
#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"

namespace jenga::telemetry {
class MetricsRegistry;
}

namespace jenga::exec {

/// One unit of execution: a call chain over a private state bundle.
struct Task {
  Hash256 id;                                   // tx hash (labels, diagnostics)
  AccountId sender;
  std::vector<const vm::ContractLogic*> logic;  // per declared slot
  /// Steps either borrowed from caller-owned memory (the transaction) or
  /// owned by the task (non-contiguous subsequences); `own_steps` wins when
  /// non-empty.
  std::span<const vm::CallStep> steps_view;
  std::vector<vm::CallStep> own_steps;
  vm::ExecLimits limits;
  ledger::PortableState input;
  AccessSet access;  // not read by the engine

  [[nodiscard]] std::span<const vm::CallStep> steps() const {
    return own_steps.empty() ? steps_view : std::span<const vm::CallStep>(own_steps);
  }
};

struct TaskResult {
  vm::ExecResult vm;
  ledger::PortableState output;  // meaningful only when vm.ok()
};

struct EngineOptions {
  std::uint32_t workers = 1;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the batch and returns results in input order.  Deterministic in
  /// the batch alone — identical for every worker count.
  [[nodiscard]] std::vector<TaskResult> run_batch(std::vector<Task> tasks);

  /// Attaches a metrics registry (nullptr detaches).  Recording happens on
  /// the run_batch() caller's thread after the batch joined; every recorded
  /// value derives from the batch size, never from timing or worker count.
  void set_metrics(telemetry::MetricsRegistry* m) { metrics_ = m; }

 private:
  void worker_loop();
  void run_claimed(std::size_t t, vm::ExecScratch& scratch);

  telemetry::MetricsRegistry* metrics_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a batch opened / shutdown
  std::condition_variable done_cv_;  // run_batch: every claimed task finished
  bool shutdown_ = false;

  // Current batch (guarded by mu_; task/result slots are claimed exclusively).
  std::vector<Task>* tasks_ = nullptr;
  std::vector<TaskResult>* results_ = nullptr;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::size_t remaining_ = 0;

  std::vector<std::thread> pool_;
};

}  // namespace jenga::exec
