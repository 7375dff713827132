#pragma once

/// \file stream.hpp
/// In-order execution queue with CUDA-stream semantics: tasks start in
/// enqueue order, each after the previous task on the stream has finished
/// and all of its explicit dependencies (completions from other streams)
/// have fired. The GPU compute queue, DMA engines, and host worker threads
/// are all modelled as streams.
///
/// The per-task path is allocation-free at steady state: completions come
/// from the simulator's slab pool, a single unfired dependency is waited
/// on directly (no when_all combiner), the finish callback is a 16-byte
/// FinishToken instead of a capturing closure, and task labels are only
/// materialised while an observer is attached — an unobserved stream
/// never copies label text.

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/ring_deque.hpp"
#include "ssdtrain/util/unique_function.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::sim {

class Stream {
 public:
  /// Record of one executed task, delivered to the observer for tracing.
  struct TaskRecord {
    std::string label;
    TimePoint start = 0.0;
    TimePoint end = 0.0;
  };

  /// Completes the stream's currently running task when invoked. Copyable
  /// and 16 bytes, so storing or scheduling it never allocates; invoking a
  /// stale token (task already finished) is a contract violation.
  class FinishToken {
   public:
    FinishToken() = default;
    void operator()() const;

   private:
    friend class Stream;
    FinishToken(Stream* stream, std::uint64_t token)
        : stream_(stream), token_(token) {}

    Stream* stream_ = nullptr;
    std::uint64_t token_ = 0;
  };

  /// A dynamic task receives a FinishToken and must eventually invoke it
  /// (possibly at a later simulated time, e.g. when an I/O flow drains).
  /// Slim 16-byte inline budget: dynamic starts capture a pointer or two
  /// (larger closures take one heap hop), which keeps the Task footprint
  /// — and therefore the queue's memory traffic — small for the
  /// fixed-duration tasks that dominate.
  using StartFn = util::UniqueFunction<void(FinishToken), 16>;

  using Observer = util::UniqueFunction<void(const TaskRecord&)>;

  Stream(Simulator& sim, std::string name);
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueues a fixed-duration task. Returns its completion.
  CompletionPtr enqueue(std::string_view label, util::Seconds duration,
                        std::vector<CompletionPtr> deps = {});

  /// Replay-path form: the label is an interned util::Label (rendered to
  /// text only while an observer is attached) and the dependencies arrive
  /// in a caller-owned scratch span — enqueuing allocates nothing.
  CompletionPtr enqueue_labeled(util::Label label, util::Seconds duration,
                                std::span<const CompletionPtr> deps = {});

  /// Fire-and-forget variant: no completion is minted for the task, so
  /// nothing can (or ever will) wait on it. Replay uses this for the many
  /// kernels whose completion the trace path also never observed.
  void enqueue_labeled_detached(util::Label label, util::Seconds duration,
                                std::span<const CompletionPtr> deps = {});

  /// Single-dependency overload: the common kernel-chain shape, kept free
  /// of the deps-vector allocation.
  CompletionPtr enqueue_after(std::string_view label, util::Seconds duration,
                              CompletionPtr dep);

  /// Enqueues a task whose duration is decided when it starts (bandwidth
  /// flows, lock waits). Returns its completion.
  CompletionPtr enqueue_dynamic(std::string_view label, StartFn start,
                                std::vector<CompletionPtr> deps = {});

  /// Zero-duration task: fires when all previously enqueued work is done
  /// (the analogue of cudaEventRecord on this stream).
  CompletionPtr record_marker(std::string_view label = "marker");

  /// Makes subsequently enqueued tasks wait for \p dep in addition to
  /// stream order (the analogue of cudaStreamWaitEvent).
  void wait_for(CompletionPtr dep);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Total simulated time this stream spent executing tasks.
  [[nodiscard]] util::Seconds busy_time() const { return busy_time_; }

  /// Number of tasks executed to completion.
  [[nodiscard]] std::uint64_t tasks_completed() const {
    return tasks_completed_;
  }

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] bool idle() const { return !running_ && queue_.empty(); }

  /// Observer invoked once per finished task (for chrome-trace export).
  /// Attach before enqueuing: labels of tasks enqueued while no observer
  /// was attached are not retained (lazy-label contract), so such tasks
  /// trace with empty names.
  void set_observer(Observer observer) {
    const bool was_observed = static_cast<bool>(observer_);
    observer_ = std::move(observer);
    if (!observer_) {
      labels_.clear();
    } else if (!was_observed) {
      // Align the label queue with already-enqueued (label-less) tasks;
      // swapping observers keeps labels already recorded for queued work.
      labels_.assign(queue_.size(), std::string());
    }
  }

 private:
  struct Task {
    CompletionPtr deps;  ///< combined dependency; may be null (ready)
    util::Seconds duration = 0.0;
    StartFn start;  ///< when set, overrides `duration`
    CompletionPtr done;
  };

  /// Folds pending_waits_ into \p deps, clearing them (the task that takes
  /// them orders every later task), and reduces to a single completion:
  /// nullptr when everything has already fired, the dep itself when one is
  /// unfired, a when_all combiner otherwise.
  CompletionPtr combine_deps(std::vector<CompletionPtr> deps);
  CompletionPtr combine_deps_span(std::span<const CompletionPtr> deps);
  CompletionPtr push_task(Task task, std::string_view label);
  void pump();
  void begin(Task task);
  void finish_task(std::uint64_t token);

  Simulator& sim_;
  std::string name_;
  util::Label name_label_;  ///< interned once; names task completions
  /// Power-of-two ring, not std::deque: sustained enqueue/finish traffic
  /// reaches its high-water capacity once and then never mallocs (a
  /// std::deque allocates a node every few tasks under the same load).
  util::RingDeque<Task> queue_;
  /// Task labels, parallel to queue_ — populated only while an observer
  /// is attached, so unobserved streams move no strings through the queue.
  std::deque<std::string> labels_;
  std::vector<CompletionPtr> pending_waits_;
  bool running_ = false;
  bool waiting_registered_ = false;
  std::uint64_t run_token_ = 0;  ///< guards FinishToken double-invoke
  TimePoint current_started_ = 0.0;
  std::string current_label_;
  CompletionPtr current_done_;
  util::Seconds busy_time_ = 0.0;
  std::uint64_t tasks_completed_ = 0;
  Observer observer_;
};

}  // namespace ssdtrain::sim
