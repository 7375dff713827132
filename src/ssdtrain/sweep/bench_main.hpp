#pragma once

/// \file bench_main.hpp
/// The harness of every sweep bench and sweep example. BenchMain parses the
/// shared CLI (cli.hpp) once and owns what each binary would otherwise
/// copy: the ProgramCache its sessions share, the SweepRunner (--workers,
/// --point-timeout, --retries), failure reporting, and configure(), which
/// applies the session flags to every SessionConfig and ClusterConfig the
/// binary builds.
///
/// A binary declares the shape of its grid, and the shape decides which
/// flags it accepts:
///
///   streamed  each CSV row depends on one point, so rows are committed in
///             grid order through CsvProgress as points finish. Honours
///             --points, --shard and --chaos-exec, and resumes an existing
///             --csv file by the rows' key cells: the shape the workers of
///             sweep_orchestrate need.
///   batch     the output is rendered from the whole grid (columns relative
///             to another point, cross-point tables), so --points, --shard
///             and --chaos-exec are rejected.
///   analytic  a batch grid of closed-form models that builds no session:
///             the session flags are rejected as well.
///
/// A rejected flag is a contract violation that names it, raised before any
/// point runs, so no binary accepts a flag and then silently drops it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/progress.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::runtime {
struct SessionOptions;
class ProgramCache;
}  // namespace ssdtrain::runtime

namespace ssdtrain::sweep {

using Cells = std::vector<std::string>;

class BenchMain {
 public:
  enum class Shape { streamed, batch, analytic };

  /// Parses argv (parse_cli) and rejects every flag \p shape cannot honour.
  BenchMain(int argc, char** argv, Shape shape);
  ~BenchMain();
  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

  [[nodiscard]] const CliOptions& cli() const { return cli_; }

  /// True when the first positional argument is \p name ("smoke", ...).
  [[nodiscard]] bool mode(std::string_view name) const;

  /// Applies the session flags over the defaults the bench has already set:
  /// --no-replay, --pp/--tp/--dp/--zero, --faults (replaces the bench's
  /// specs), --fault-seed (a nonzero seed reseeds the bench's specs),
  /// --ckpt-interval/--ckpt-auto/--mtbf (replace the bench's policy), and
  /// the shared program cache (null under --no-program-cache). Without
  /// flags only program_cache changes. Thread-safe.
  void configure(runtime::SessionOptions& options) const;

  /// Batch grid: fn(item) for every item on the shared runner. Each failed
  /// item is reported on stderr as "<label> failed: <error>" (the item's
  /// label() when it has one, else its position); the values come back in
  /// item order, or nullopt when any item failed.
  template <typename T, typename F>
  auto run(const std::vector<T>& items, F fn)
      -> std::optional<std::vector<std::invoke_result_t<F&, const T&>>> {
    auto outcomes = runner().map(items, std::move(fn), cli_.map_options());
    std::vector<std::invoke_result_t<F&, const T&>> values;
    values.reserve(items.size());
    bool complete = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (outcomes[i].ok()) {
        values.push_back(std::move(*outcomes[i].value));
        continue;
      }
      complete = false;
      if constexpr (requires(const T& item) { item.label(); }) {
        report(items[i].label(), outcomes[i].error);
      } else {
        report(util::label("point ", static_cast<std::int64_t>(i)),
               outcomes[i].error);
      }
    }
    if (!complete) return std::nullopt;
    return values;
  }

  /// Batch CSV: writes \p rows under \p header to --csv (no-op without it).
  void write_csv(const Cells& header, const std::vector<Cells>& rows) const;

  /// Streamed grid: the spec's points narrowed by --points and --shard,
  /// then by the rows an earlier run left in --csv ("resuming:" is printed
  /// when it finds any). Each row is key(point) — one cell per axis, in
  /// axis order, and the cells an existing file is matched on — followed
  /// by cells(result); \p header names them in that order. Returns the
  /// points that ran and succeeded, in grid order, with their results; a
  /// failed point is reported and sets exit_code(). One call per binary.
  template <typename M, typename C,
            typename K = Cells (*)(const SweepPoint&),
            typename R = std::invoke_result_t<M&, const SweepPoint&>>
  std::vector<std::pair<SweepPoint, R>> stream(const SweepSpec& spec,
                                               const Cells& header, M measure,
                                               C cells, K key = &axis_cells) {
    open_stream(spec, header, key);
    std::vector<std::size_t> indices(todo_.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    auto outcomes = runner().map(
        indices,
        [this, measure, cells, key](std::size_t i) {
          R result = measure(todo_[i]);
          if (progress_) {
            Cells row = key(todo_[i]);
            Cells tail = cells(result);
            row.insert(row.end(), tail.begin(), tail.end());
            progress_->commit(i, std::move(row));
          }
          return result;
        },
        cli_.map_options());
    std::vector<std::pair<SweepPoint, R>> done;
    for (std::size_t i = 0; i < todo_.size(); ++i) {
      if (outcomes[i].ok()) {
        done.emplace_back(todo_[i], std::move(*outcomes[i].value));
      } else {
        report(todo_[i].label(), outcomes[i].error);
      }
    }
    return done;
  }

  /// 1 once any point failed, else 0: the binary's exit status.
  [[nodiscard]] int exit_code() const { return failed_ ? 1 : 0; }

 private:
  SweepRunner& runner();
  void report(const std::string& label, const std::string& error);
  /// Selects todo_ and opens progress_ for stream().
  void open_stream(const SweepSpec& spec, const Cells& header,
                   const std::function<Cells(const SweepPoint&)>& key);

  CliOptions cli_;
  std::unique_ptr<runtime::ProgramCache> cache_;
  std::vector<SweepPoint> todo_;
  std::unique_ptr<CsvProgress> progress_;
  bool failed_ = false;
  // Declared last, so destroyed first: a timed-out point keeps running
  // after map() returns, and until the runner joins it, it may still use
  // the cache, the point list and the CSV stream above.
  std::optional<SweepRunner> runner_;
};

}  // namespace ssdtrain::sweep
