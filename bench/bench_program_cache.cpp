// Program-cache microbenchmark: what a sweep point's *first* step costs
// when its configuration fingerprint is already cached, against the cold
// trace it pays without a cache.
//
//   cold       — fresh sessions, no cache: every session traces its first
//                step through the module tree while recording.
//   warm-mem   — fresh sessions sharing one in-process ProgramCache (the
//                repeated-config points of a threaded sweep): every first
//                step is a memory hit and replays immediately.
//   warm-disk  — fresh sessions, each with its OWN ProgramCache instance
//                over a shared pre-populated directory (the sibling-shard
//                process case): every first step deserializes the program
//                file and replays — no session ever traces.
//
// The hit/miss counters and per-session simulator event counts are
// deterministic and golden-tracked (bench/golden/program_cache.csv); the
// cold/warm event counts must be EQUAL (a cache hit replays exactly the
// work the trace would have simulated — the bit-identity contract).
// first-steps/sec is printed for CI-log trend visibility, and on the
// trace-bound keep-in-gpu configuration the full run asserts that warm
// first steps beat cold ones.
//
// A second section measures shard weak-scaling: a grid of distinct points
// split --shard style (position j to shard j mod N), each slice timed
// separately. Per-slice point counts and the grid's total event count are
// golden (partitioning must not change the simulated work); the parallel
// efficiency proxy t(1) / (N * max_i t_i) is a printed trend.
//
// Run with `smoke` for the sanitizer-friendly sizes.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/table.hpp"

namespace {

namespace fs = std::filesystem;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

// --pp/--tp/--dp/--zero override each measured session's parallelism.
sweep::CliOptions g_cli;

/// Scratch directory for the warm-disk tier; removed on destruction.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

struct Case {
  std::string name;
  m::ModelConfig model;
  rt::Strategy strategy = rt::Strategy::ssdtrain;
  bool trace_bound = false;  ///< gated by the warm-beats-cold check
};

struct Result {
  std::string config;
  std::string mode;  ///< "cold" | "warm-mem" | "warm-disk" | "shard-N"
  int sessions = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t events = 0;  ///< simulator events across the timed sessions
  double seconds = 0.0;      ///< wall clock of the timed first steps
};

rt::SessionConfig session_config(const Case& c) {
  rt::SessionConfig config;
  config.model = c.model;
  config.parallel.tensor_parallel = 2;
  g_cli.apply_parallel(config.parallel);
  config.strategy = c.strategy;
  return config;
}

/// One timed session: builds it, times the first step (the one the cache
/// can turn from a trace into a replay), and runs one more step so the
/// steady state is exercised too.
double timed_first_step(const rt::SessionConfig& config,
                        std::uint64_t* events) {
  rt::TrainingSession session(config);
  const auto start = std::chrono::steady_clock::now();
  session.run_step();
  const auto stop = std::chrono::steady_clock::now();
  session.run_step();
  *events += session.node().simulator().events_executed();
  return std::chrono::duration<double>(stop - start).count();
}

Result run_mode(const Case& c, const std::string& mode, int sessions,
                const std::string& disk_dir) {
  Result r;
  r.config = c.name;
  r.mode = mode;
  r.sessions = sessions;

  const rt::SessionConfig base = session_config(c);

  // warm tiers: populate once, untimed, through a throwaway session.
  std::unique_ptr<rt::ProgramCache> shared;
  if (mode != "cold") {
    shared = std::make_unique<rt::ProgramCache>(
        rt::ProgramCacheConfig{mode == "warm-disk" ? disk_dir : ""});
    rt::SessionConfig cfg = base;
    cfg.program_cache = shared.get();
    rt::TrainingSession populate(cfg);
    populate.run_step();
  }

  for (int i = 0; i < sessions; ++i) {
    rt::SessionConfig cfg = base;
    // warm-disk simulates sibling *processes*: a brand-new cache instance
    // per session, sharing only the directory.
    std::unique_ptr<rt::ProgramCache> own;
    if (mode == "warm-disk") {
      own = std::make_unique<rt::ProgramCache>(
          rt::ProgramCacheConfig{disk_dir});
      cfg.program_cache = own.get();
    } else if (mode == "warm-mem") {
      cfg.program_cache = shared.get();
    }
    r.seconds += timed_first_step(cfg, &r.events);
    const rt::ProgramCache* cache =
        own != nullptr ? own.get() : shared.get();
    if (cache != nullptr) {
      r.memory_hits += cache->stats().memory_hits;
      r.disk_hits += cache->stats().disk_hits;
      r.misses += cache->stats().misses;
    }
  }
  if (mode == "warm-mem") {
    // The per-session counters above re-read the shared cache cumulatively;
    // reduce to the final totals (populate's miss excluded).
    r.memory_hits = shared->stats().memory_hits;
    r.disk_hits = shared->stats().disk_hits;
    r.misses = shared->stats().misses - 1;
  }
  return r;
}

std::string format_rate(const Result& r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f/s",
                static_cast<double>(r.sessions) / r.seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_flags_except(
      options, {"--csv", "--pp", "--tp", "--dp", "--zero"},
      "this microbench applies only --csv and --pp/--tp/--dp/--zero");
  sweep::reject_positionals(options, {"smoke"});
  g_cli = options;
  const bool smoke =
      !options.positional.empty() && options.positional[0] == "smoke";

  std::vector<Case> cases;
  cases.push_back({"keep-small", m::bert_config(2048, 2, 2),
                   rt::Strategy::keep_in_gpu, /*trace_bound=*/true});
  cases.push_back({"ssd-small", m::bert_config(2048, 2, 4),
                   rt::Strategy::ssdtrain});
  if (!smoke) {
    cases.push_back({"keep-large", m::bert_config(4096, 4, 4),
                     rt::Strategy::keep_in_gpu, /*trace_bound=*/true});
    cases.push_back({"gqa", m::gpt_gqa_config(2048, 2, 2),
                     rt::Strategy::ssdtrain});
  }
  const int sessions = smoke ? 2 : 4;

  std::cout << "=== Program cache: first-step cost, cold vs warm ===\n\n";

  TempDir disk_dir("ssdtrain_bench_program_cache");
  std::vector<Result> results;
  for (const Case& c : cases) {
    // A per-case subdirectory keeps the warm-disk tier honest: every case
    // starts from exactly one program file.
    const std::string dir = disk_dir.path + "/" + c.name;
    for (const char* mode : {"cold", "warm-mem", "warm-disk"}) {
      results.push_back(run_mode(c, mode, sessions, dir));
    }
  }

  u::AsciiTable table({"config", "mode", "first-steps/sec", "mem hits",
                       "disk hits", "misses", "events"});
  for (const Result& r : results) {
    table.add_row({r.config, r.mode, format_rate(r),
                   std::to_string(r.memory_hits),
                   std::to_string(r.disk_hits), std::to_string(r.misses),
                   std::to_string(r.events)});
  }
  std::cout << table.render() << "\n";

  for (std::size_t i = 0; i + 2 < results.size(); i += 3) {
    const Result& cold = results[i];
    const Result& mem = results[i + 1];
    const Result& disk = results[i + 2];
    // The bit-identity contract in one number each: a cache hit replays
    // exactly the work the cold trace simulates.
    u::check(mem.events == cold.events,
             cold.config + ": warm-mem event count diverged from cold");
    u::check(disk.events == cold.events,
             cold.config + ": warm-disk event count diverged from cold");
    // Every warm session must have hit its tier; none may have traced.
    u::check(mem.memory_hits == static_cast<std::uint64_t>(mem.sessions) &&
                 mem.misses == 0,
             cold.config + ": warm-mem sessions missed the cache");
    u::check(disk.disk_hits == static_cast<std::uint64_t>(disk.sessions) &&
                 disk.misses == 0,
             cold.config + ": warm-disk sessions missed the cache");
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%-10s warm-mem %.1fx, warm-disk %.1fx vs cold\n",
                  cold.config.c_str(), cold.seconds / mem.seconds,
                  cold.seconds / disk.seconds);
    std::cout << buf;
    if (!smoke && cases[i / 3].trace_bound) {
      // The cache's throughput acceptance: on a trace-bound configuration a
      // warm first step (a replay) beats the cold trace. Floor well under
      // the expected ~3x so CI scheduler noise cannot fail a healthy build.
      // Only the memory tier is time-gated: warm-disk pays file read +
      // deserialization per session, whose wall clock swings with the
      // filesystem — its speedup is a printed trend, its correctness
      // (every session a disk hit, zero traces) is gated above.
      u::check(cold.seconds / mem.seconds >= 1.3,
               cold.config + ": warm-mem first step no faster than cold");
    }
  }

  // --- Shard weak-scaling: a grid of distinct points, split j mod N. ---
  std::cout << "\n=== Shard weak-scaling (grid split j mod N) ===\n\n";
  std::vector<int> hiddens = smoke ? std::vector<int>{2048, 2560}
                                   : std::vector<int>{1536, 2048, 2560,
                                                      3072, 3584, 4096};
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

  double single_process_seconds = 0.0;
  u::AsciiTable shard_table(
      {"shards", "max points", "max slice time", "efficiency", "events"});
  for (int n : shard_counts) {
    double max_slice = 0.0;
    int max_points = 0;
    std::uint64_t events = 0;
    for (int shard = 0; shard < n; ++shard) {
      double slice = 0.0;
      int points = 0;
      for (std::size_t j = 0; j < hiddens.size(); ++j) {
        if (static_cast<int>(j) % n != shard) continue;
        Case c{"grid", m::bert_config(hiddens[j], 2, 2),
               rt::Strategy::keep_in_gpu};
        slice += timed_first_step(session_config(c), &events);
        ++points;
      }
      max_slice = std::max(max_slice, slice);
      max_points = std::max(max_points, points);
    }
    if (n == 1) single_process_seconds = max_slice;
    // Slices run concurrently as real --shard processes; the makespan is
    // the slowest slice, so efficiency = t(1) / (N * max slice).
    const double efficiency =
        single_process_seconds / (static_cast<double>(n) * max_slice);
    char eff[16];
    std::snprintf(eff, sizeof(eff), "%.2f", efficiency);
    char secs[24];
    std::snprintf(secs, sizeof(secs), "%.3fs", max_slice);
    shard_table.add_row({std::to_string(n), std::to_string(max_points), secs,
                         eff, std::to_string(events)});
    Result r;
    r.config = "grid";
    r.mode = "shard-" + std::to_string(n);
    r.sessions = n;
    r.misses = static_cast<std::uint64_t>(max_points);
    r.events = events;
    results.push_back(r);
  }
  std::cout << shard_table.render() << "\n";

  // Partitioning must not change the simulated work: every shard count
  // executes the same grid-total event count.
  for (std::size_t i = results.size() - shard_counts.size();
       i < results.size(); ++i) {
    u::check(results[i].events == results.back().events,
             "shard partitioning changed the grid's total event count");
  }

  std::cout << "\nfirst-steps/sec and slice times are wall-clock (CI trend "
               "only); hit/miss\ncounters and event counts are deterministic "
               "and regression-gated.\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"config", "mode", "sessions", "memory_hits",
                      "disk_hits", "misses", "events"});
    for (const Result& r : results) {
      csv.add_row({r.config, r.mode, std::to_string(r.sessions),
                   std::to_string(r.memory_hits),
                   std::to_string(r.disk_hits), std::to_string(r.misses),
                   std::to_string(r.events)});
    }
  }
  return 0;
}
