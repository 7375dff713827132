#include "ssdtrain/sweep/runner.hpp"

#include <algorithm>

namespace ssdtrain::sweep {

SweepRunner::SweepRunner(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void SweepRunner::run_batch(std::size_t size,
                            const std::function<void(std::size_t)>& point) {
  if (size == 0) return;
  std::lock_guard<std::mutex> batch_lock(batch_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  point_ = &point;
  size_ = size;
  // Every worker left the previous batch, so none still claims from the
  // cursor while it resets.
  cursor_.store(0);
  busy_ = threads_.size();
  ++generation_;
  work_cv_.notify_all();
  // Waiting for every worker, not just for the last point, is what keeps
  // a worker that wakes late from claiming from the next batch's cursor
  // with this batch's (then dangling) point function.
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  point_ = nullptr;
}

void SweepRunner::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const std::function<void(std::size_t)>& point = *point_;
    const std::size_t size = size_;
    lock.unlock();
    for (std::size_t i = cursor_.fetch_add(1); i < size;
         i = cursor_.fetch_add(1)) {
      point(i);
    }
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

}  // namespace ssdtrain::sweep
