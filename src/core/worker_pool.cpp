#include "core/worker_pool.hpp"

#include <stdexcept>

namespace spi::core {

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  submit_cv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

std::size_t WorkerPool::idle() const {
  std::lock_guard lock(mutex_);
  return idle_ - claimed_;
}

std::int64_t WorkerPool::gangs_run() const {
  std::lock_guard lock(mutex_);
  return gangs_;
}

void WorkerPool::run(std::span<const std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() > threads_.size())
    throw std::invalid_argument("WorkerPool: gang wider than the pool (" +
                                std::to_string(tasks.size()) + " tasks, " +
                                std::to_string(threads_.size()) + " workers)");
  Gang gang;
  gang.tasks = tasks.data();
  gang.count = tasks.size();

  std::unique_lock lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  waiting_.push_back(ticket);
  // Head of the FIFO *and* enough unclaimed workers for the whole gang:
  // the all-or-nothing reservation that keeps co-scheduled workers from
  // deadlocking on each other's channels.
  submit_cv_.wait(lock, [&] {
    return stop_ || (waiting_.front() == ticket && idle_ - claimed_ >= gang.count);
  });
  waiting_.pop_front();
  if (stop_) {
    submit_cv_.notify_all();
    throw std::runtime_error("WorkerPool: pool is shutting down");
  }
  claimed_ += gang.count;
  active_.push_back(&gang);
  ++gangs_;
  worker_cv_.notify_all();
  // The next queued caller may also fit once workers free up; it is
  // re-woken by workers returning to idle.
  done_cv_.wait(lock, [&] { return gang.done == gang.count; });
}

void WorkerPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    ++idle_;
    submit_cv_.notify_all();
    worker_cv_.wait(lock, [&] { return stop_ || !active_.empty(); });
    if (stop_ && active_.empty()) {
      --idle_;
      return;
    }
    Gang* gang = active_.front();
    const std::size_t index = gang->next++;
    if (gang->next == gang->count) active_.pop_front();
    --idle_;
    --claimed_;
    lock.unlock();
    gang->tasks[index]();
    lock.lock();
    if (++gang->done == gang->count) done_cv_.notify_all();
  }
}

}  // namespace spi::core
