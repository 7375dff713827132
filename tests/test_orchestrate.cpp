// Orchestrator suite: the fault-tolerant sweep supervision ladder end to
// end. This binary is dual-mode — run as `test_orchestrate` it is a normal
// gtest suite; run as `test_orchestrate orchestrate-worker ...` it becomes
// a tiny but *real* sweep worker (sweep::select_points + CsvResume +
// CsvProgress + ChaosExec, the machinery sweep::BenchMain's streamed shape
// runs for the benches) whose misbehaviour is scripted by positional
// tokens:
//
//   grid=N           sweep size (axis "i" = 0..N-1; row value = i*i+7)
//   crash-times=K    exit nonzero after committing one row, on the first K
//                    launches (launch counting survives relaunches through
//                    a <csv>.attempts side file)
//   stall-times=K    freeze forever (no rows, no exit) on the first K
//                    launches — the hung-worker case
//   sleep-ms=N       per-point delay, to keep stall detection honest
//   cache-dir=DIR    per point, run a tiny TrainingSession against a fresh
//                    on-disk ProgramCache in DIR — every point of every
//                    shard races the same key file
//
// The gtest half spawns this same binary (argv[0] via /proc/self/exe)
// through the real LocalLauncher under a real Supervisor, so crash
// relaunch, hung-shard kill, backoff exhaustion, seeded chaos kills, torn
// tail repair, and merge verification all run against actual processes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/orchestrate/chaos.hpp"
#include "ssdtrain/orchestrate/launcher.hpp"
#include "ssdtrain/orchestrate/merge.hpp"
#include "ssdtrain/orchestrate/supervisor.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/progress.hpp"
#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/util/check.hpp"

namespace fs = std::filesystem;
namespace m = ssdtrain::modules;
namespace orc = ssdtrain::orchestrate;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

// The shared tiny-session config: the worker's cache-dir points and the
// test's post-run verification must derive the *same* program key, so both
// call this (they are the same binary).
rt::SessionConfig cache_session_config() {
  rt::SessionConfig config;
  config.model = m::bert_config(512, 1, 2);
  return config;
}

// ---------------------------------------------------------------------------
// Worker mode
// ---------------------------------------------------------------------------

int run_worker(int argc, char** argv) {
  const sweep::CliOptions options = sweep::parse_cli(argc, argv);
  std::int64_t grid = 12;
  int crash_times = 0;
  int stall_times = 0;
  int sleep_ms = 0;
  std::string cache_dir;
  for (const std::string& token : options.positional) {
    if (token == "orchestrate-worker") continue;
    const std::size_t eq = token.find('=');
    u::check(eq != std::string::npos, "worker: bad token '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "grid") {
      grid = std::stoll(value);
    } else if (key == "crash-times") {
      crash_times = std::stoi(value);
    } else if (key == "stall-times") {
      stall_times = std::stoi(value);
    } else if (key == "sleep-ms") {
      sleep_ms = std::stoi(value);
    } else if (key == "cache-dir") {
      cache_dir = value;
    } else {
      u::check(false, "worker: unknown token '" + token + "'");
    }
  }
  u::check(options.csv_enabled(), "worker: needs --csv");

  // Launch counting that survives relaunches: the supervisor restarts this
  // process with the same --csv path, so a side file is the attempt clock.
  const std::string attempts_path = options.csv_path + ".attempts";
  int attempt = 1;
  {
    std::ifstream in(attempts_path);
    int stored = 0;
    if (in >> stored) attempt = stored + 1;
  }
  {
    std::ofstream out(attempts_path, std::ios::trunc);
    out << attempt;
  }

  // Hung worker: no rows, no exit — only the supervisor's stall timeout
  // (SIGKILL to our process group) ends this launch.
  if (attempt <= stall_times) {
    for (;;) ::pause();
  }

  std::vector<std::int64_t> axis(static_cast<std::size_t>(grid));
  std::iota(axis.begin(), axis.end(), std::int64_t{0});
  sweep::SweepSpec spec;
  spec.axis("i", axis);
  std::vector<sweep::SweepPoint> points = sweep::select_points(spec, options);
  const sweep::CsvResume resume(options.csv_path,
                                std::vector<std::string>{"i"});
  points = resume.remaining(std::move(points));

  sweep::CsvProgress progress(options.csv_path,
                              std::vector<std::string>{"i", "v"},
                              sweep::ChaosExec::parse(options.chaos_exec));
  for (std::size_t idx = 0; idx < points.size(); ++idx) {
    const std::int64_t i = points[idx].i64("i");
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    if (!cache_dir.empty()) {
      // Race the shared on-disk key: a *fresh* cache per point skips the
      // in-process tier, so every point of every shard does disk
      // lookup/store against the same prog-*.sprog file concurrently.
      auto cache = std::make_shared<rt::ProgramCache>(
          rt::ProgramCacheConfig{cache_dir});
      rt::SessionConfig config = cache_session_config();
      config.program_cache = cache.get();
      const rt::ProgramKey key = rt::session_program_key(config);
      rt::TrainingSession session(std::move(config));
      session.run_step();
      rt::ProgramCache fresh(rt::ProgramCacheConfig{cache_dir});
      u::check(fresh.lookup(key) != nullptr,
               "worker: program-cache round trip lost the stored program");
    }
    progress.commit(idx, {std::to_string(i), std::to_string(i * i + 7)});
    // Scripted crash: die *after* making one row of progress, so repeated
    // relaunches converge (the guarantee seeded chaos kills also keep).
    if (attempt <= crash_times) return 42;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// gtest helpers
// ---------------------------------------------------------------------------

std::string self_path() { return fs::canonical("/proc/self/exe").string(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string expected_csv(std::int64_t grid) {
  std::string out = "i,v\n";
  for (std::int64_t i = 0; i < grid; ++i) {
    out += std::to_string(i) + "," + std::to_string(i * i + 7) + "\n";
  }
  return out;
}

// A scratch dir per test plus a quiet supervisor config pointed at it.
struct Harness {
  explicit Harness(const std::string& name) {
    dir = fs::path(::testing::TempDir()) / ("orchestrate_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
  }

  orc::SupervisorConfig config(const std::vector<std::string>& tokens) {
    orc::SupervisorConfig config;
    config.worker_command = {self_path(), "orchestrate-worker"};
    config.worker_command.insert(config.worker_command.end(), tokens.begin(),
                                 tokens.end());
    config.workdir = (dir / "shards").string();
    config.out_csv = (dir / "merged.csv").string();
    config.launcher = &launcher;
    config.poll_interval = 0.02;
    config.backoff_initial = 0.02;
    config.backoff_max = 0.2;
    config.log = [this](const std::string& line) { logs.push_back(line); };
    return config;
  }

  [[nodiscard]] bool logged(std::string_view needle) const {
    for (const std::string& line : logs) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  fs::path dir;
  orc::LocalLauncher launcher;
  std::vector<std::string> logs;
};

// ---------------------------------------------------------------------------
// Unit: chaos grammar + seeded determinism
// ---------------------------------------------------------------------------

TEST(OrchestrateChaos, ParsesTheGrammar) {
  const orc::ChaosSpec both = orc::parse_chaos("kill:rate=0.3,stall:rate=0.1");
  EXPECT_DOUBLE_EQ(both.kill_rate, 0.3);
  EXPECT_DOUBLE_EQ(both.stall_rate, 0.1);
  EXPECT_TRUE(both.enabled());

  const orc::ChaosSpec fixed = orc::parse_chaos("kill:rate=1,after=2,tear=1");
  EXPECT_DOUBLE_EQ(fixed.kill_rate, 1.0);
  EXPECT_EQ(fixed.after, 2);
  EXPECT_DOUBLE_EQ(fixed.tear, 1.0);

  EXPECT_FALSE(orc::parse_chaos("").enabled());
  EXPECT_THROW(orc::parse_chaos("explode:rate=1"), u::ContractViolation);
  EXPECT_THROW(orc::parse_chaos("kill:rate=lots"), u::ContractViolation);
}

TEST(OrchestrateChaos, DrawsAreDeterministicPerShardAndAttempt) {
  const orc::ChaosSpec spec = orc::parse_chaos("kill:rate=0.5,stall:rate=0.2");
  const orc::ChaosEngine a(spec, 7);
  const orc::ChaosEngine b(spec, 7);
  const orc::ChaosEngine other(spec, 8);
  bool any_differs_across_seeds = false;
  for (int shard = 0; shard < 4; ++shard) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      const orc::ChaosDecision first = a.draw(shard, attempt);
      const orc::ChaosDecision again = a.draw(shard, attempt);
      const orc::ChaosDecision twin = b.draw(shard, attempt);
      EXPECT_EQ(first.kind, again.kind);
      EXPECT_EQ(first.after, again.after);
      EXPECT_EQ(first.tear, again.tear);
      EXPECT_EQ(first.kind, twin.kind);
      EXPECT_EQ(first.after, twin.after);
      if (other.draw(shard, attempt).kind != first.kind) {
        any_differs_across_seeds = true;
      }
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(OrchestrateChaos, DecisionsRenderAsExecSpecs) {
  orc::ChaosDecision kill;
  kill.kind = orc::ChaosDecision::Kind::kill;
  kill.after = 3;
  kill.tear = true;
  EXPECT_EQ(kill.to_exec_spec(), "kill:after=3,tear=1");

  orc::ChaosDecision stall;
  stall.kind = orc::ChaosDecision::Kind::stall;
  stall.after = 2;
  EXPECT_EQ(stall.to_exec_spec(), "stall:after=2");

  EXPECT_EQ(orc::ChaosDecision{}.to_exec_spec(), "");

  const sweep::ChaosExec exec = sweep::ChaosExec::parse(kill.to_exec_spec());
  EXPECT_TRUE(exec.enabled());
  EXPECT_EQ(exec.after, 3);
  EXPECT_TRUE(exec.tear);
  EXPECT_FALSE(sweep::ChaosExec::parse("").enabled());
  EXPECT_THROW(sweep::ChaosExec::parse("kill:after=0"), u::ContractViolation);
}

// ---------------------------------------------------------------------------
// Unit: CSV scan + merge diagnostics
// ---------------------------------------------------------------------------

TEST(OrchestrateMerge, ScanCountsCompleteRowsAndSpotsTornTails) {
  Harness h("scan");
  const std::string path = (h.dir / "scan.csv").string();
  write_file(path, "i,v\n0,7\n1,8\n2,");
  const orc::CsvScan scan = orc::scan_csv(path);
  EXPECT_TRUE(scan.exists);
  EXPECT_EQ(scan.rows, 2u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_FALSE(orc::scan_csv((h.dir / "nope.csv").string()).exists);
}

TEST(OrchestrateMerge, ReportsEveryBadShardAndWritesNothing) {
  Harness h("merge_bad");
  const std::string s0 = (h.dir / "shard-0.csv").string();
  const std::string s1 = (h.dir / "shard-1.csv").string();
  const std::string s2 = (h.dir / "shard-2.csv").string();
  write_file(s0, "i,v\n0,7\n");
  // shard 1 is missing entirely; shard 2 has a torn tail.
  write_file(s2, "i,v\n2,11\n3,");
  const std::string out = (h.dir / "merged.csv").string();
  const orc::MergeReport report = orc::merge_shards({s0, s1, s2}, out);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.bad_shards(), (std::vector<std::size_t>{1, 2}));
  const std::string text = orc::describe(report);
  EXPECT_NE(text.find("shard 1"), std::string::npos);
  EXPECT_NE(text.find("shard 2"), std::string::npos);
  EXPECT_FALSE(fs::exists(out));
}

TEST(OrchestrateMerge, InterleavesRoundRobinByteIdentically) {
  Harness h("merge_ok");
  const std::string s0 = (h.dir / "shard-0.csv").string();
  const std::string s1 = (h.dir / "shard-1.csv").string();
  const std::string s2 = (h.dir / "shard-2.csv").string();
  // Shard i of 3 holds grid positions j with j mod 3 == i (grid of 7, so
  // the shards are uneven: 3/2/2 rows).
  write_file(s0, "i,v\n0,7\n3,16\n6,43\n");
  write_file(s1, "i,v\n1,8\n4,23\n");
  write_file(s2, "i,v\n2,11\n5,32\n");
  const std::string out = (h.dir / "merged.csv").string();
  const orc::MergeReport report = orc::merge_shards({s0, s1, s2}, out);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.rows, 7u);
  EXPECT_EQ(read_file(out), expected_csv(7));
}

// ---------------------------------------------------------------------------
// Unit: launchers
// ---------------------------------------------------------------------------

TEST(OrchestrateLauncher, LocalReportsExitCodesAndKills) {
  Harness h("launcher");
  orc::LocalLauncher launcher;
  const std::string log = (h.dir / "worker.log").string();

  const int ok = launcher.spawn(0, {"/bin/sh", "-c", "echo hi; exit 3"}, log);
  const orc::ExitStatus status = launcher.wait(ok);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.signaled);
  EXPECT_EQ(status.code, 3);
  EXPECT_NE(read_file(log).find("hi"), std::string::npos);

  const int hung = launcher.spawn(0, {"/bin/sh", "-c", "sleep 30"}, log);
  EXPECT_FALSE(launcher.poll(hung).has_value());
  launcher.kill(hung);
  const orc::ExitStatus killed = launcher.wait(hung);
  EXPECT_TRUE(killed.signaled);
  EXPECT_EQ(killed.signal, SIGKILL);

  const int missing = launcher.spawn(0, {(h.dir / "no-such-bin").string()},
                                     log);
  EXPECT_EQ(launcher.wait(missing).code, 127);
}

TEST(OrchestrateLauncher, CommandTemplateFormatsQuotedCommands) {
  EXPECT_EQ(orc::shell_quote("plain"), "'plain'");
  EXPECT_EQ(orc::shell_quote("a b"), "'a b'");
  EXPECT_EQ(orc::shell_quote("it's"), "'it'\\''s'");

  const orc::CommandTemplateLauncher launcher("ssh {host} {cmd} # {shard}",
                                              {"gpu01", "gpu02"});
  const std::string formatted =
      launcher.format(3, {"/opt/bench", "--csv", "a b.csv"});
  EXPECT_EQ(formatted, "ssh gpu02 '/opt/bench' '--csv' 'a b.csv' # 3");
}

TEST(OrchestrateLauncher, CommandTemplateRunsThroughTheShell) {
  Harness h("template");
  // A local "transport": the template wraps the worker command in sh, the
  // same way `ssh {host} {cmd}` would on a real cluster.
  orc::CommandTemplateLauncher launcher("{cmd}", {});
  const std::string log = (h.dir / "t.log").string();
  const int handle = launcher.spawn(0, {"/bin/echo", "shard zero"}, log);
  EXPECT_TRUE(launcher.wait(handle).ok());
  EXPECT_NE(read_file(log).find("shard zero"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integration: the supervision ladder against real worker processes
// ---------------------------------------------------------------------------

TEST(OrchestrateSupervisor, CleanShardedRunMatchesSingleProcessBytes) {
  Harness h("clean");
  orc::SupervisorConfig config = h.config({"grid=12"});
  config.shard_count = 3;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.merged_rows, 12u);
  EXPECT_EQ(report.failed_shards(), 0);
  for (const orc::ShardReport& shard : report.shards) {
    EXPECT_EQ(shard.launches, 1);
  }
  EXPECT_EQ(read_file(config.out_csv), expected_csv(12));
}

TEST(OrchestrateSupervisor, CrashedShardsRelaunchAndResume) {
  Harness h("crash");
  orc::SupervisorConfig config = h.config({"grid=8", "crash-times=2"});
  config.shard_count = 2;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(read_file(config.out_csv), expected_csv(8));
  for (const orc::ShardReport& shard : report.shards) {
    EXPECT_EQ(shard.crashes, 2);
    EXPECT_EQ(shard.launches, 3);
    EXPECT_EQ(shard.rows, 4u);
  }
  EXPECT_TRUE(h.logged("relaunching"));
  EXPECT_TRUE(h.logged("resuming from"));
}

TEST(OrchestrateSupervisor, HungShardsAreKilledAndRelaunched) {
  Harness h("stall");
  orc::SupervisorConfig config = h.config({"grid=6", "stall-times=1"});
  config.stall_timeout = 0.4;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(read_file(config.out_csv), expected_csv(6));
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].stalls, 1);
  EXPECT_EQ(report.shards[0].launches, 2);
  EXPECT_TRUE(h.logged("no heartbeat"));
}

TEST(OrchestrateSupervisor, ExhaustedShardsDegradeIntoAFailureReport) {
  Harness h("exhaust");
  orc::SupervisorConfig config = h.config({"grid=12", "crash-times=100"});
  config.max_relaunch = 2;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failed_shards(), 1);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].launches, 1 + config.max_relaunch);
  // Partial progress is preserved for the next orchestrator run even
  // though the merge was refused.
  EXPECT_EQ(report.shards[0].rows, 3u);
  EXPECT_FALSE(fs::exists(config.out_csv));
  ASSERT_FALSE(report.failure_report_path.empty());
  const std::string text = read_file(report.failure_report_path);
  EXPECT_NE(text.find("shard 0"), std::string::npos);
  EXPECT_NE(text.find("FAILED"), std::string::npos);
}

TEST(OrchestrateSupervisor, SeededChaosKillsStayByteIdentical) {
  Harness h("chaos");
  orc::SupervisorConfig config = h.config({"grid=14"});
  config.shard_count = 2;
  // Every launch is killed (with a torn tail) two rows in, until the last
  // launch has only one row left and exits clean: 7 rows per shard means
  // exactly 3 kills + 1 clean launch per shard.
  config.chaos = orc::parse_chaos("kill:rate=1,after=2,tear=1");
  config.chaos_seed = 7;
  config.max_relaunch = 5;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(read_file(config.out_csv), expected_csv(14));
  for (const orc::ShardReport& shard : report.shards) {
    EXPECT_EQ(shard.crashes, 3);
    EXPECT_EQ(shard.launches, 4);
    // Satellite: CsvResume's repaired_tail flag surfaces in the report and
    // the supervision log.
    EXPECT_EQ(shard.tail_repairs, 3);
  }
  EXPECT_TRUE(h.logged("torn CSV tail"));
}

TEST(OrchestrateSupervisor, ShardsRaceOneProgramCacheKeySafely) {
  Harness h("cache_race");
  const std::string cache_dir = (h.dir / "progcache").string();
  orc::SupervisorConfig config =
      h.config({"grid=8", "cache-dir=" + cache_dir});
  config.shard_count = 2;
  const orc::SupervisorReport report = orc::Supervisor(config).run();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(read_file(config.out_csv), expected_csv(8));

  // Both shards hammered one key file (fresh cache per point, atomic
  // rename-on-write): the survivor must be a loadable program, not a torn
  // or rejected file.
  rt::ProgramCache cache(rt::ProgramCacheConfig{cache_dir});
  const rt::ProgramKey key = rt::session_program_key(cache_session_config());
  EXPECT_NE(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().disk_rejects, 0u);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    entries += entry.path().extension() == ".sprog" ? 1 : 0;
  }
  EXPECT_EQ(entries, 1u);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "orchestrate-worker") {
    return run_worker(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
