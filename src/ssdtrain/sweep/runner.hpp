#pragma once

/// \file runner.hpp
/// Real OS-thread pool for running independent sweep points across hardware
/// cores. Unlike sim::SimThreadPool (which models host thread pools in
/// simulated time), SweepRunner runs actual std::threads: persistent
/// workers claim the next point from one shared cursor. Points therefore
/// start in grid order, and a worker that finishes a cheap point claims the
/// next one, so skewed point costs (one OOM-retry BERT config next to nine
/// cheap ones) still keep every core busy.
///
/// Every sweep point must build its own isolated state — its own Simulator,
/// TrainingSession, RNGs — because points execute concurrently. Results are
/// written into a slot per point, so the output order is deterministic (it
/// matches the input order) no matter how the points were scheduled, and a
/// throwing point fails only that point: the exception is captured into the
/// point's Outcome and the workers keep draining. A point that never
/// returns is not stopped here; sweep_orchestrate's --stall-timeout kills
/// the whole shard process.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sweep {

/// Result of one sweep point: either a value or the error that killed it.
template <typename R>
struct Outcome {
  std::optional<R> value;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }

  /// The value; contract violation if the point failed.
  [[nodiscard]] const R& get() const {
    util::check(ok(), "sweep point failed: " + error);
    return *value;
  }
};

class SweepRunner {
 public:
  /// \p workers = 0 uses every hardware thread (at least one).
  explicit SweepRunner(std::size_t workers = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// Runs fn(items[i]) for every item across the workers, starting the
  /// points in input order; out[i] holds the result (or the error message)
  /// for items[i] regardless of which worker ran it. The caller blocks
  /// until every worker has left the batch, so nothing still uses \p items
  /// or \p fn when map() returns. fn is called concurrently, from every
  /// worker at once. One map() runs at a time per runner.
  template <typename T, typename F>
  auto map(const std::vector<T>& items, F fn)
      -> std::vector<Outcome<std::invoke_result_t<F&, const T&>>> {
    using R = std::invoke_result_t<F&, const T&>;
    std::vector<Outcome<R>> out(items.size());
    run_batch(items.size(), [&](std::size_t i) noexcept {
      Outcome<R>& slot = out[i];
      try {
        slot.value.emplace(fn(items[i]));
      } catch (const std::exception& e) {
        slot.error = e.what();
        if (slot.error.empty()) slot.error = "unknown error";
      } catch (...) {
        slot.error = "unknown exception";
      }
    });
    return out;
  }

  /// SweepSpec convenience: fn(point) over spec.points().
  template <typename F>
  auto run(const SweepSpec& spec, F fn) {
    return map(spec.points(), std::move(fn));
  }

 private:
  /// Publishes a batch of \p size points and waits until every worker has
  /// left it; \p point(i) runs point i and never throws.
  void run_batch(std::size_t size,
                 const std::function<void(std::size_t)>& point);
  void worker_loop();

  std::mutex batch_mu_;  ///< one batch at a time

  std::mutex mu_;  ///< guards the batch fields below and the two condvars
  std::condition_variable work_cv_;  ///< workers: a new batch, or shutdown
  std::condition_variable done_cv_;  ///< caller: every worker left the batch
  const std::function<void(std::size_t)>* point_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped once per published batch
  std::size_t busy_ = 0;          ///< workers yet to leave the batch
  bool shutdown_ = false;
  /// Next unclaimed index of the batch; reset only while busy_ == 0.
  std::atomic<std::size_t> cursor_{0};

  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

}  // namespace ssdtrain::sweep
