/// \file worker_pool.hpp
/// Persistent gang-scheduled worker threads for plan execution.
///
/// The pre-serving runtime spawned one std::thread per modeled processor
/// on every run() and joined them at the end — fine for a library that
/// executes one plan once, hopeless for a daemon executing thousands of
/// job instances per second. WorkerPool owns the threads for the life of
/// the process; a JobInstance borrows them per run.
///
/// Scheduling is *gang, all-or-nothing, FIFO*: run(tasks) blocks until
/// tasks.size() workers are simultaneously free and this caller is at
/// the head of the submission queue, then starts every task at once.
/// All-or-nothing matters for correctness, not just fairness — a plan's
/// workers block on each other's channels, so starting a 3-processor
/// job on 2 free workers deadlocks the pool. FIFO tickets make the wait
/// starvation-free when several jobs contend.
///
/// Tasks must not throw (JobInstance's worker bodies trap everything
/// and record the first error themselves); a throwing task terminates.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace spi::core {

class WorkerPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1). They idle on a
  /// condition variable until work arrives.
  explicit WorkerPool(std::size_t threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Waits for in-flight gangs to finish, then joins every thread.
  ~WorkerPool();

  [[nodiscard]] std::size_t size() const { return threads_.size(); }
  /// Workers currently parked (approximate; diagnostics only).
  [[nodiscard]] std::size_t idle() const;
  /// Gangs executed since construction.
  [[nodiscard]] std::int64_t gangs_run() const;

  /// Runs every task on a pool worker and returns when all of them have
  /// returned. Throws std::invalid_argument when tasks.size() exceeds
  /// the pool width (such a gang could never be co-scheduled). Safe to
  /// call from several threads concurrently — gangs queue FIFO.
  void run(std::span<const std::function<void()>> tasks);

 private:
  struct Gang {
    const std::function<void()>* tasks = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;  ///< next task index to hand to a worker
    std::size_t done = 0;  ///< tasks completed
  };

  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable submit_cv_;  ///< queued callers waiting for their turn
  std::condition_variable worker_cv_;  ///< parked workers waiting for tasks
  std::condition_variable done_cv_;    ///< callers waiting for gang completion
  std::deque<std::uint64_t> waiting_;  ///< FIFO submission tickets
  std::deque<Gang*> active_;           ///< gangs with tasks not yet all taken
  std::uint64_t next_ticket_ = 0;
  std::size_t idle_ = 0;    ///< workers parked in worker_cv_
  std::size_t claimed_ = 0; ///< tasks activated but not yet taken by a worker
  std::int64_t gangs_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace spi::core
