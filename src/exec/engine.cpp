#include "exec/engine.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace jenga::exec {

Engine::Engine(EngineOptions opts) {
  // The calling thread works too, so the pool holds workers-1 threads and
  // workers == 1 stays purely single-threaded.
  const std::uint32_t workers = std::max<std::uint32_t>(1, opts.workers);
  pool_.reserve(workers - 1);
  for (std::uint32_t i = 0; i + 1 < workers; ++i)
    pool_.emplace_back([this] { worker_loop(); });
}

Engine::~Engine() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void Engine::run_claimed(std::size_t t, vm::ExecScratch& scratch) {
  Task& task = (*tasks_)[t];
  TaskResult& out = (*results_)[t];
  ledger::PortableStateView view(std::move(task.input));
  vm::Interpreter interp(task.logic, view, task.limits, &scratch);
  out.vm = interp.run(task.sender, task.steps());
  out.output = view.take();
}

void Engine::worker_loop() {
  vm::ExecScratch scratch;
  std::unique_lock lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return shutdown_ || next_ < size_; });
    if (shutdown_) return;
    const std::size_t t = next_++;
    lk.unlock();
    run_claimed(t, scratch);
    lk.lock();
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

std::vector<TaskResult> Engine::run_batch(std::vector<Task> tasks) {
  std::vector<TaskResult> results(tasks.size());
  if (tasks.empty()) return results;

  vm::ExecScratch scratch;  // the calling thread's own scratch
  {
    std::unique_lock lk(mu_);
    tasks_ = &tasks;
    results_ = &results;
    next_ = 0;
    size_ = tasks.size();
    remaining_ = tasks.size();
    if (!pool_.empty() && tasks.size() > 1) work_cv_.notify_all();
    while (next_ < size_) {
      const std::size_t t = next_++;
      lk.unlock();
      run_claimed(t, scratch);
      lk.lock();
      --remaining_;
    }
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
    size_ = 0;  // nothing left to claim until the next batch opens
    next_ = 0;
  }

  if (metrics_ != nullptr) {
    auto& reg = *metrics_;
    reg.counter("exec.batches").inc();
    reg.counter("exec.tasks").inc(tasks.size());
    reg.histogram("exec.batch.tasks").record(static_cast<std::int64_t>(tasks.size()));
  }
  return results;
}

}  // namespace jenga::exec
