#include "device/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace bonsai {

namespace {

// Set for the duration of worker_loop so parallel_for can detect that it is
// being re-entered from inside its own pool.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

std::future<void> ThreadPool::submit_task(std::function<void()> task) {
  auto packaged = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> done = packaged->get_future();
  submit([packaged] { (*packaged)(); });
  return done;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                              std::size_t chunk) {
  if (n == 0) return;
  if (workers_.empty() || tls_worker_pool == this) {
    // Inline fallback (see header): nested invocation or worker-less pool.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller works alongside the workers, so it counts as one more thread.
  const std::size_t threads = num_threads() + 1;
  if (chunk == 0) {
    // ~4 chunks per thread balances load without excessive queue churn.
    chunk = std::max<std::size_t>(1, n / (4 * threads + 1));
  }
  // Shared cursor: each thread grabs the next chunk until exhausted.
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  const auto drain = [cursor, n, chunk, &fn] {
    for (;;) {
      const std::size_t begin = cursor->fetch_add(chunk);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  const std::size_t num_tasks = std::min(threads, (n + chunk - 1) / chunk) - 1;
  for (std::size_t t = 0; t < num_tasks; ++t) submit(drain);
  try {
    drain();
  } catch (...) {
    cursor->store(n);
    wait_idle();
    throw;
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace bonsai
