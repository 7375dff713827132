#pragma once

/// \file supervisor.hpp
/// The fault-tolerant sweep orchestrator's babysitting loop. A Supervisor
/// partitions a sweep into N shards, launches each as a worker process
/// through a Launcher, and drives every shard through a small state
/// machine until the whole sweep is merged and verified:
///
///   pending -> running -> done
///                |  ^
///                v  |  (backoff, attempts <= max_relaunch)
///              {exited nonzero | stalled} -> backoff -> running
///                |
///                v  (attempts exhausted)
///              failed
///
/// Heartbeats are the shard CSVs themselves: workers commit one row per
/// completed sweep point (flushed immediately), and the supervisor counts
/// newline-terminated rows the same way sweep::CsvResume does. A shard
/// whose row count has not advanced within `stall_timeout` seconds is
/// declared hung, SIGKILLed, and relaunched; a relaunched shard resumes
/// from its (tail-repaired) CSV, so completed points never re-run. Shards
/// that exhaust `max_relaunch` degrade into an explicit failed-shards
/// report instead of poisoning the merge: the merged CSV is only written
/// when every shard completed, and then it is byte-identical to the
/// single-process run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ssdtrain/orchestrate/chaos.hpp"
#include "ssdtrain/orchestrate/launcher.hpp"

namespace ssdtrain::orchestrate {

struct SupervisorConfig {
  /// Worker command prefix: the bench binary plus pass-through user args.
  /// The supervisor appends `--csv <workdir>/shard-I.csv --shard I/N` (and
  /// a --chaos-exec spec when chaos draws one) per launch.
  std::vector<std::string> worker_command;
  int shard_count = 1;
  std::string workdir;   ///< shard CSVs, per-shard logs, failure report
  std::string out_csv;   ///< merged output path

  double stall_timeout = 60.0;  ///< seconds without a new CSV row => hung
  double poll_interval = 0.2;   ///< supervision loop period, seconds
  int max_relaunch = 5;         ///< extra launches per shard after the first
  double backoff_initial = 0.5; ///< first relaunch delay, seconds
  double backoff_max = 8.0;     ///< exponential backoff cap, seconds

  ChaosSpec chaos;
  std::uint64_t chaos_seed = 0;

  Launcher* launcher = nullptr;  ///< required; not owned

  /// Supervision log sink (one line per event); defaults to std::cout
  /// prefixed with "[orchestrate] ".
  std::function<void(const std::string&)> log;
};

/// Terminal state of one shard after supervision.
struct ShardReport {
  int shard = 0;
  bool done = false;        ///< exited 0 with a clean CSV
  int launches = 0;         ///< total launches (1 = first try succeeded)
  int stalls = 0;           ///< hung-shard kills
  int crashes = 0;          ///< nonzero exits / signals
  int tail_repairs = 0;     ///< torn CSV tails observed before relaunches
  std::size_t rows = 0;     ///< data rows in the shard CSV at the end
  std::string last_error;   ///< last exit/stall diagnosis ("" when clean)
  std::string csv_path;
  std::string log_path;
};

struct SupervisorReport {
  bool ok = false;               ///< all shards done AND merge verified
  std::size_t merged_rows = 0;   ///< rows in the merged CSV (when ok)
  std::vector<ShardReport> shards;
  std::string failure_report_path;  ///< written when !ok ("" otherwise)
  std::string error;                ///< summary ("" when ok)

  [[nodiscard]] int failed_shards() const {
    int n = 0;
    for (const ShardReport& s : shards) n += s.done ? 0 : 1;
    return n;
  }
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);

  /// Runs the babysitting loop to completion: launches every shard,
  /// relaunches dead/hung ones with exponential backoff, then merges and
  /// verifies. Blocking; returns the full per-shard report.
  SupervisorReport run();

 private:
  SupervisorConfig config_;
};

}  // namespace ssdtrain::orchestrate
