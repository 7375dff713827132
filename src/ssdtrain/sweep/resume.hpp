#pragma once

/// \file resume.hpp
/// Resumable sweeps: when a bench is re-run with --csv pointing at a file
/// an earlier (possibly interrupted) run produced, the points whose key
/// columns already appear in the file are skipped and only the missing
/// rows are computed and appended. The key columns are the leading CSV
/// columns that identify a grid cell (they mirror the sweep axes).

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ssdtrain/sweep/spec.hpp"

namespace ssdtrain::sweep {

class CsvResume {
 public:
  /// Reads \p path when it exists. \p key_columns are the leading header
  /// columns identifying a grid cell; an existing file whose header does
  /// not start with them is a contract violation (a different sweep's
  /// output — refusing beats silently mixing grids).
  CsvResume(const std::string& path, std::vector<std::string> key_columns);

  /// True when \p path held at least a header from an earlier run.
  [[nodiscard]] bool resuming() const { return resuming_; }

  /// Completed rows found in the existing file.
  [[nodiscard]] std::size_t completed() const { return seen_.size(); }

  /// True when the existing file ended in an unterminated partial row —
  /// the previous run died mid-write. The tail is not counted as done here
  /// and CsvWriter's append mode truncates it; this flag makes the repair
  /// observable (orchestrator logs, "resuming:" messages) instead of
  /// silent.
  [[nodiscard]] bool repaired_tail() const { return repaired_tail_; }

  /// Newline-terminated rows that still lost cells (torn mid-row but
  /// terminated — e.g. a partial row another writer finished the line of).
  /// Not counted as done either.
  [[nodiscard]] std::size_t torn_rows() const { return torn_rows_; }

  /// True when a row with exactly these key-column cells is present.
  [[nodiscard]] bool contains(const std::vector<std::string>& key) const {
    return seen_.contains(key);
  }

  /// The subset of \p points not yet present in the file, in order. A
  /// point's row is found by its key(point) cells, one per key column: by
  /// default its coordinates rendered with sweep::to_string, or the
  /// bench's own rendering (a fixed-point "0.0100" rate).
  [[nodiscard]] std::vector<SweepPoint> remaining(
      std::vector<SweepPoint> points,
      const std::function<std::vector<std::string>(const SweepPoint&)>& key =
          axis_cells) const;

 private:
  std::vector<std::string> key_columns_;
  std::set<std::vector<std::string>> seen_;
  bool resuming_ = false;
  bool repaired_tail_ = false;
  std::size_t torn_rows_ = 0;
};

/// Splits one CSV line into cells (RFC 4180 quoting, as CsvWriter emits).
std::vector<std::string> split_csv_line(const std::string& line);

}  // namespace ssdtrain::sweep
