#pragma once

/// \file merge.hpp
/// Verified shard-CSV merging. Shard i of N (a bench run with --shard i/N)
/// holds positions j of the filtered grid with j mod N == i, in grid order;
/// the inverse is a round-robin interleave that restores the canonical
/// single-process row order byte-identically.
///
/// Unlike a fail-fast reader, merge_shards inspects *every* shard and
/// reports every problem at once — a supervisor acting on the report needs
/// the full list of missing/torn shard indexes, not just the first one —
/// and refuses to write any output while a single shard is unusable
/// (merging around a hole would silently reorder the remaining rows).

#include <cstddef>
#include <string>
#include <vector>

namespace ssdtrain::orchestrate {

/// One unusable shard input: its index in the merge order, its path, and a
/// human-readable diagnosis (missing, empty, torn tail, short row, header
/// mismatch).
struct ShardIssue {
  std::size_t shard = 0;
  std::string path;
  std::string problem;
};

struct MergeReport {
  std::size_t rows = 0;  ///< data rows written (excluding the header)
  std::vector<ShardIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  /// Shard indexes with issues, deduplicated, in ascending order.
  [[nodiscard]] std::vector<std::size_t> bad_shards() const;
};

/// Interleaves \p shard_paths (argument order = shard order) into
/// \p out_path. On any issue nothing is written and the report lists every
/// offending shard; on success the merged file is byte-identical to the
/// CSV a single un-sharded process writes.
MergeReport merge_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path);

/// Multi-line diagnostic for a failed report ("shard 2 (path): torn ...").
std::string describe(const MergeReport& report);

/// Cheap progress scan of a shard CSV — the supervisor's heartbeat read.
/// Counts the complete data rows of util::read_csv_lines, the reader
/// sweep::CsvResume uses too (the header is not a row; an unterminated tail
/// is not a row, it is the torn-tail signal).
struct CsvScan {
  bool exists = false;
  std::size_t rows = 0;   ///< complete data rows
  bool torn_tail = false; ///< file ends in an unterminated partial row
};

CsvScan scan_csv(const std::string& path);

}  // namespace ssdtrain::orchestrate
