#include "ssdtrain/sim/stream.hpp"

#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sim {

void Stream::FinishToken::operator()() const {
  util::expects(stream_ != nullptr, "finish token without a stream");
  stream_->finish_task(token_);
}

Stream::Stream(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), name_label_(name_) {}

CompletionPtr Stream::combine_deps(std::vector<CompletionPtr> deps) {
  deps.insert(deps.end(), pending_waits_.begin(), pending_waits_.end());
  if (deps.empty()) return nullptr;
  std::size_t unfired = 0;
  const CompletionPtr* last_unfired = nullptr;
  for (const auto& d : deps) {
    util::expects(static_cast<bool>(d), "null dependency");
    if (!d->done()) {
      ++unfired;
      last_unfired = &d;
    }
  }
  if (unfired == 0) return nullptr;
  if (unfired == 1) return *last_unfired;
  return when_all(sim_, deps, name_label_);
}

CompletionPtr Stream::combine_deps_span(std::span<const CompletionPtr> deps) {
  if (!pending_waits_.empty()) {
    // wait_for() is off the replay hot path; fold through the vector form.
    std::vector<CompletionPtr> all(deps.begin(), deps.end());
    return combine_deps(std::move(all));
  }
  std::size_t unfired = 0;
  const CompletionPtr* last_unfired = nullptr;
  for (const auto& d : deps) {
    util::expects(static_cast<bool>(d), "null dependency");
    if (!d->done()) {
      ++unfired;
      last_unfired = &d;
    }
  }
  if (unfired == 0) return nullptr;
  if (unfired == 1) return *last_unfired;
  return when_all_span(sim_, deps, name_label_);
}

CompletionPtr Stream::enqueue_labeled(util::Label label,
                                      util::Seconds duration,
                                      std::span<const CompletionPtr> deps) {
  util::expects(duration >= 0.0, "negative task duration");
  Task task;
  task.duration = duration;
  task.deps = combine_deps_span(deps);
  task.done = Completion::create(sim_, name_label_);
  CompletionPtr done = task.done;
  // The lazy-label contract, one layer up: the interned label renders to
  // text only when someone is actually watching.
  if (observer_) labels_.emplace_back(label.str());
  queue_.push_back(std::move(task));
  pump();
  return done;
}

void Stream::enqueue_labeled_detached(util::Label label,
                                      util::Seconds duration,
                                      std::span<const CompletionPtr> deps) {
  util::expects(duration >= 0.0, "negative task duration");
  Task task;
  task.duration = duration;
  task.deps = combine_deps_span(deps);
  if (observer_) labels_.emplace_back(label.str());
  queue_.push_back(std::move(task));
  pump();
}

CompletionPtr Stream::push_task(Task task, std::string_view label) {
  task.done = Completion::create(sim_, name_label_);
  CompletionPtr done = task.done;
  if (observer_) labels_.emplace_back(label);
  queue_.push_back(std::move(task));
  pump();
  return done;
}

CompletionPtr Stream::enqueue(std::string_view label, util::Seconds duration,
                              std::vector<CompletionPtr> deps) {
  util::expects(duration >= 0.0, "negative task duration");
  Task task;
  task.duration = duration;
  task.deps = combine_deps(std::move(deps));
  return push_task(std::move(task), label);
}

CompletionPtr Stream::enqueue_after(std::string_view label,
                                    util::Seconds duration,
                                    CompletionPtr dep) {
  util::expects(duration >= 0.0, "negative task duration");
  util::expects(static_cast<bool>(dep), "null dependency");
  Task task;
  task.duration = duration;
  if (pending_waits_.empty()) {
    task.deps = dep->done() ? nullptr : std::move(dep);
  } else {
    std::vector<CompletionPtr> deps;
    deps.reserve(1 + pending_waits_.size());
    deps.push_back(std::move(dep));
    task.deps = combine_deps(std::move(deps));
  }
  return push_task(std::move(task), label);
}

CompletionPtr Stream::enqueue_dynamic(std::string_view label, StartFn start,
                                      std::vector<CompletionPtr> deps) {
  util::expects(static_cast<bool>(start), "null start function");
  Task task;
  task.start = std::move(start);
  task.deps = combine_deps(std::move(deps));
  return push_task(std::move(task), label);
}

CompletionPtr Stream::record_marker(std::string_view label) {
  return enqueue(label, 0.0);
}

void Stream::wait_for(CompletionPtr dep) {
  util::expects(static_cast<bool>(dep), "null dependency");
  pending_waits_.push_back(std::move(dep));
}

void Stream::pump() {
  if (running_ || queue_.empty()) return;
  Task& head = queue_.front();
  if (head.deps && !head.deps->done()) {
    if (!waiting_registered_) {
      waiting_registered_ = true;
      head.deps->add_waiter([this]() {
        waiting_registered_ = false;
        pump();
      });
    }
    return;
  }
  Task task = std::move(queue_.front());
  queue_.pop_front();
  if (observer_ && !labels_.empty()) {
    current_label_ = std::move(labels_.front());
    labels_.pop_front();
  }
  begin(std::move(task));
}

void Stream::begin(Task task) {
  running_ = true;
  ++run_token_;
  current_started_ = sim_.now();
  current_done_ = std::move(task.done);
  const FinishToken finish{this, run_token_};
  if (task.start) {
    task.start(finish);
  } else {
    sim_.schedule_after(task.duration, finish);
  }
}

void Stream::finish_task(std::uint64_t token) {
  util::check(running_ && token == run_token_, "stream task finished twice");
  busy_time_ += sim_.now() - current_started_;
  ++tasks_completed_;
  CompletionPtr done = std::move(current_done_);
  if (observer_) {
    observer_(TaskRecord{std::move(current_label_), current_started_,
                         sim_.now()});
  }
  // Unconditional: a label recorded while observed must not leak onto a
  // later task finishing after an observer detach/re-attach cycle.
  current_label_.clear();
  running_ = false;
  if (done) done->fire();  // null for detached tasks
  pump();
}

}  // namespace ssdtrain::sim
