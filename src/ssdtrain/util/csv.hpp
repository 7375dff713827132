#pragma once

/// \file csv.hpp
/// Minimal CSV writer: benches optionally dump their series as CSV so the
/// figures can be re-plotted outside the harness. Also the one reader of
/// committed rows that resume, the orchestrator's heartbeat and the shard
/// merge share.

#include <fstream>
#include <string>
#include <vector>

namespace ssdtrain::util {

/// A CSV file split on '\n'. Only complete ('\n'-terminated) lines count:
/// a run killed mid-write leaves an unterminated tail that may hold the
/// right number of commas with a truncated final cell, so it is reported as
/// torn, never handed over looking whole.
struct CsvLines {
  bool exists = false;             ///< the file could be opened
  std::vector<std::string> lines;  ///< complete lines, without the '\n'
  bool torn_tail = false;          ///< an unterminated tail follows them
};

/// Reads and splits \p path (exists == false when it cannot be opened).
CsvLines read_csv_lines(const std::string& path);

/// Writes rows of cells to a CSV file. Cells containing commas, quotes, or
/// newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens \p path for writing and emits the header row. With \p append
  /// set and \p path already holding rows, new rows are appended instead
  /// and the header is not repeated (resumable sweeps).
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header,
            bool append = false);

  void add_row(const std::vector<std::string>& cells);

  /// Pushes buffered rows to the OS so they survive the process dying
  /// (streamed progress commits flush after every row; batch writers can
  /// keep relying on close()).
  void flush();

  /// Flushes and closes; also called by the destructor.
  void close();

  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;
  CsvWriter(CsvWriter&&) = delete;
  CsvWriter& operator=(CsvWriter&&) = delete;

 private:
  void write_row(const std::vector<std::string>& cells);
  static std::string escape(const std::string& cell);

  std::ofstream out_;
  std::size_t columns_ = 0;
};

}  // namespace ssdtrain::util
