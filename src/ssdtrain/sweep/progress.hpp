#pragma once

/// \file progress.hpp
/// Streaming CSV commits for resumable, supervised sweeps. The classic
/// bench shape — run the whole grid, then write every row — leaves nothing
/// on disk when the process dies, and gives a supervising driver no
/// heartbeat to watch. CsvProgress inverts that: each sweep point commits
/// its row(s) as soon as it finishes, and rows are *flushed in canonical
/// order* (an in-order commit window: SweepRunner starts points in grid
/// order, but concurrent workers finish them in any order), so
///
///   - the file on disk is always a clean prefix of the single-process
///     output plus at most one torn tail (which resume repairs), keeping
///     the byte-identity contract of golden CSVs and sweep_merge;
///   - the newline-terminated row count is a monotone progress heartbeat
///     the orchestrator polls (sweep::CsvResume counts rows the same way);
///   - a seeded --chaos-exec spec can SIGKILL/SIGSTOP the worker at an
///     exact committed-row boundary, making crash recovery testable.
///
/// A point that fails (throws) never commits, which stalls the window:
/// later rows stay buffered and are not written. That is the safe
/// behaviour — the bench exits nonzero, the orchestrator relaunches it, and
/// resume re-runs everything from the hole onward.

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/util/csv.hpp"

namespace ssdtrain::sweep {

class CsvProgress {
 public:
  /// Opens \p path with util::CsvWriter in append mode (an existing torn
  /// tail is truncated away — the CsvResume scan that chose the remaining
  /// points ignores it the same way). \p chaos is the worker-side
  /// enactment of the orchestrator's --chaos-exec spec (disabled default).
  CsvProgress(std::string path, const std::vector<std::string>& header,
              ChaosExec chaos = {});

  /// Commits the rows of the point at position \p index of this process's
  /// todo list (0-based, in canonical grid order). Thread-safe; rows reach
  /// the file once every earlier index has committed, each flushed before
  /// the chaos hook sees the new count. Every index must be committed at
  /// most once; gaps stall the window forever (see file comment).
  void commit(std::size_t index, std::vector<std::vector<std::string>> rows);

  /// One-row convenience.
  void commit(std::size_t index, std::vector<std::string> row);

 private:
  std::string path_;
  util::CsvWriter writer_;
  ChaosExec chaos_;
  std::mutex mu_;
  std::size_t next_ = 0;       ///< next point index the window can flush
  std::size_t committed_ = 0;  ///< rows flushed
  std::map<std::size_t, std::vector<std::vector<std::string>>> pending_;
};

}  // namespace ssdtrain::sweep
