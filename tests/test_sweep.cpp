// Unit tests for the parallel sweep engine: SweepSpec grid enumeration,
// SweepRunner determinism across worker counts, error isolation, the CLI
// option parsing the bench binaries share, and the BenchMain harness that
// applies it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/units.hpp"

namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

TEST(SweepSpec, EnumeratesCartesianProductRowMajor) {
  sweep::SweepSpec spec;
  spec.axis("hidden", std::vector<std::int64_t>{8192, 12288})
      .axis("strategy", std::vector<std::string>{"keep", "ssd"})
      .axis("batch", std::vector<std::int64_t>{4, 8, 16});
  EXPECT_EQ(spec.size(), 12u);
  EXPECT_EQ(spec.axis_count(), 3u);

  const auto points = spec.points();
  ASSERT_EQ(points.size(), 12u);
  // Last axis varies fastest.
  EXPECT_EQ(points[0].i64("hidden"), 8192);
  EXPECT_EQ(points[0].str("strategy"), "keep");
  EXPECT_EQ(points[0].i64("batch"), 4);
  EXPECT_EQ(points[1].i64("batch"), 8);
  EXPECT_EQ(points[3].str("strategy"), "ssd");
  EXPECT_EQ(points[6].i64("hidden"), 12288);
  EXPECT_EQ(points[11].i64("batch"), 16);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index(), i);
  }
}

TEST(SweepSpec, EmptySpecHasNoPoints) {
  sweep::SweepSpec spec;
  EXPECT_EQ(spec.size(), 0u);
  EXPECT_TRUE(spec.points().empty());
}

TEST(SweepSpec, TypedAccessorsEnforceAxisTypes) {
  sweep::SweepSpec spec;
  spec.axis("n", std::vector<std::int64_t>{7})
      .axis("frac", std::vector<double>{0.5})
      .axis("name", std::vector<std::string>{"bert"});
  const auto point = spec.points().front();
  EXPECT_EQ(point.i64("n"), 7);
  EXPECT_DOUBLE_EQ(point.f64("frac"), 0.5);
  EXPECT_DOUBLE_EQ(point.f64("n"), 7.0);  // ints widen to double
  EXPECT_EQ(point.str("name"), "bert");
  EXPECT_THROW((void)point.i64("frac"), u::ContractViolation);
  EXPECT_THROW((void)point.str("n"), u::ContractViolation);
  EXPECT_THROW((void)point.i64("missing"), u::ContractViolation);
  EXPECT_EQ(point.label(), "n=7 frac=0.5 name=bert");
}

TEST(SweepSpec, RejectsDuplicateAxesAndEmptyValueLists) {
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{1});
  EXPECT_THROW(spec.axis("a", std::vector<std::int64_t>{2}),
               u::ContractViolation);
  EXPECT_THROW(spec.axis("b", std::vector<std::int64_t>{}),
               u::ContractViolation);
}

TEST(SweepRunner, ResultsArriveInPointOrderRegardlessOfWorkerCount) {
  std::vector<std::int64_t> items(64);
  std::iota(items.begin(), items.end(), 0);
  std::vector<std::vector<std::int64_t>> per_worker_results;
  for (std::size_t workers : {1u, 2u, 4u, 7u}) {
    sweep::SweepRunner runner(workers);
    EXPECT_EQ(runner.worker_count(), workers);
    const auto out = runner.map(items, [](std::int64_t v) {
      // Skewed cost so fast workers claim more of the points.
      if (v % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return v * v;
    });
    ASSERT_EQ(out.size(), items.size());
    std::vector<std::int64_t> values;
    for (const auto& o : out) {
      ASSERT_TRUE(o.ok());
      values.push_back(o.get());
    }
    per_worker_results.push_back(std::move(values));
  }
  for (std::size_t i = 1; i < per_worker_results.size(); ++i) {
    EXPECT_EQ(per_worker_results[i], per_worker_results[0]);
  }
  for (std::size_t i = 0; i < per_worker_results[0].size(); ++i) {
    EXPECT_EQ(per_worker_results[0][i],
              static_cast<std::int64_t>(i * i));
  }
}

TEST(SweepRunner, ThrowingPointFailsThatPointOnly) {
  sweep::SweepRunner runner(3);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
  const auto out = runner.map(items, [](int v) {
    if (v == 3) throw std::runtime_error("point exploded");
    if (v == 5) throw 42;  // non-std exception
    return v + 100;
  });
  ASSERT_EQ(out.size(), items.size());
  for (int v : items) {
    if (v == 3) {
      EXPECT_FALSE(out[static_cast<std::size_t>(v)].ok());
      EXPECT_EQ(out[static_cast<std::size_t>(v)].error, "point exploded");
    } else if (v == 5) {
      EXPECT_FALSE(out[static_cast<std::size_t>(v)].ok());
      EXPECT_EQ(out[static_cast<std::size_t>(v)].error, "unknown exception");
    } else {
      ASSERT_TRUE(out[static_cast<std::size_t>(v)].ok());
      EXPECT_EQ(out[static_cast<std::size_t>(v)].get(), v + 100);
    }
  }
}

TEST(SweepRunner, PoolSurvivesFailuresAcrossBatches) {
  sweep::SweepRunner runner(2);
  std::vector<int> items{1, 2, 3};
  const auto bad = runner.map(items, [](int) -> int {
    throw std::runtime_error("all points fail");
  });
  for (const auto& o : bad) EXPECT_FALSE(o.ok());
  // The pool must still drain a healthy batch afterwards.
  const auto good = runner.map(items, [](int v) { return v * 2; });
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(good[i].ok());
    EXPECT_EQ(good[i].get(), items[static_cast<std::size_t>(i)] * 2);
  }
}

TEST(SweepRunner, RunsSpecPointsDirectly) {
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{1, 2, 3})
      .axis("b", std::vector<std::int64_t>{10, 20});
  sweep::SweepRunner runner(2);
  const auto out = runner.run(
      spec, [](const sweep::SweepPoint& p) { return p.i64("a") * p.i64("b"); });
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].get(), 10);
  EXPECT_EQ(out[1].get(), 20);
  EXPECT_EQ(out[5].get(), 60);
}

TEST(SweepRunner, EmptyBatchReturnsImmediately) {
  sweep::SweepRunner runner(2);
  const auto out = runner.map(std::vector<int>{}, [](int v) { return v; });
  EXPECT_TRUE(out.empty());
}

TEST(SweepRunner, ManySmallPointsKeepEveryWorkerHonest) {
  sweep::SweepRunner runner(4);
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  std::atomic<int> executed{0};
  const auto out = runner.map(items, [&executed](int v) {
    executed.fetch_add(1, std::memory_order_relaxed);
    return v;
  });
  EXPECT_EQ(executed.load(), 1000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].get(), static_cast<int>(i));
  }
}

TEST(SweepRunner, BackToBackBatchesOfEverySize) {
  // Hammers the batch hand-off: every round publishes a new batch on the
  // same workers, including empty ones and batches smaller than the pool.
  sweep::SweepRunner runner(4);
  std::vector<std::size_t> sizes(10);
  std::iota(sizes.begin(), sizes.end(), std::size_t{0});
  sizes.push_back(100);
  for (int round = 0; round < 200; ++round) {
    for (const std::size_t size : sizes) {
      std::vector<int> items(size);
      std::iota(items.begin(), items.end(), round);
      const auto out = runner.map(items, [](int v) { return 3 * v; });
      ASSERT_EQ(out.size(), size);
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        ASSERT_EQ(out[i].get(), 3 * items[i]) << "round " << round;
      }
    }
  }
}

TEST(SweepCli, ParsesWorkersCsvAndPositionals) {
  const char* argv[] = {"bench", "12288", "--workers", "8",
                        "3",     "--csv", "out.csv",   "bert"};
  const auto options =
      sweep::parse_cli(8, const_cast<char**>(argv));
  EXPECT_EQ(options.workers, 8u);
  EXPECT_EQ(options.csv_path, "out.csv");
  EXPECT_TRUE(options.csv_enabled());
  EXPECT_EQ(options.positional,
            (std::vector<std::string>{"12288", "3", "bert"}));
}

TEST(SweepCli, ParsesParallelismOverrides) {
  const char* argv[] = {"bench", "--pp", "4", "--tp", "2",
                        "--dp",  "8",    "--zero", "2"};
  const auto options = sweep::parse_cli(9, const_cast<char**>(argv));
  ASSERT_TRUE(options.parallel_overridden());
  ssdtrain::parallel::ParallelConfig parallel;
  options.apply_parallel(parallel);
  EXPECT_EQ(parallel.pipeline_parallel, 4);
  EXPECT_EQ(parallel.tensor_parallel, 2);
  EXPECT_EQ(parallel.data_parallel, 8);
  EXPECT_EQ(parallel.zero, ssdtrain::parallel::ZeroStage::stage2);

  // Unset flags leave the bench's own defaults untouched (the golden-CSV
  // compatibility contract).
  const char* partial[] = {"bench", "--dp", "2", "--zero", "stage3"};
  const auto partial_options = sweep::parse_cli(5, const_cast<char**>(partial));
  ssdtrain::parallel::ParallelConfig defaults;
  defaults.tensor_parallel = 2;
  partial_options.apply_parallel(defaults);
  EXPECT_EQ(defaults.tensor_parallel, 2);
  EXPECT_EQ(defaults.pipeline_parallel, 1);
  EXPECT_EQ(defaults.data_parallel, 2);
  EXPECT_EQ(defaults.zero, ssdtrain::parallel::ZeroStage::stage3);

  const char* bare[] = {"bench"};
  EXPECT_FALSE(sweep::parse_cli(1, const_cast<char**>(bare))
                   .parallel_overridden());

  const char* zero_degree[] = {"bench", "--pp", "0"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(zero_degree)),
               u::ContractViolation);
  const char* bad_zero[] = {"bench", "--zero", "4"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(bad_zero)),
               u::ContractViolation);
}

TEST(SweepCli, PointsFilterSelectsSingleGridCell) {
  sweep::SweepSpec spec;
  spec.axis("hidden", std::vector<std::int64_t>{8192, 12288})
      .axis("strategy", std::vector<std::string>{"keep", "ssd"})
      .axis("batch", std::vector<std::int64_t>{4, 8, 16});

  const char* argv[] = {"bench", "--points", "hidden=12288,batch=8"};
  const auto options = sweep::parse_cli(3, const_cast<char**>(argv));
  ASSERT_TRUE(options.points_enabled());
  ASSERT_EQ(options.point_filter.size(), 2u);
  EXPECT_EQ(options.point_filter[0].first, "hidden");
  EXPECT_EQ(options.point_filter[0].second, "12288");

  const auto selected = sweep::select_points(spec, options);
  ASSERT_EQ(selected.size(), 2u);  // both strategies at that cell
  for (const auto& point : selected) {
    EXPECT_EQ(point.i64("hidden"), 12288);
    EXPECT_EQ(point.i64("batch"), 8);
  }

  // Fully pinned -> exactly one cell.
  const char* one[] = {"bench", "--points",
                       "hidden=8192,strategy=ssd,batch=16"};
  const auto pinned =
      sweep::select_points(spec, sweep::parse_cli(3, const_cast<char**>(one)));
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].str("strategy"), "ssd");
}

TEST(SweepCli, PointsFilterRepeatsAndRejectsGarbage) {
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{1, 2})
      .axis("b", std::vector<std::int64_t>{10, 20});

  // Repeated --points flags accumulate constraints.
  const char* argv[] = {"bench", "--points", "a=1", "--points", "b=20"};
  const auto options = sweep::parse_cli(5, const_cast<char**>(argv));
  const auto selected = sweep::select_points(spec, options);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].i64("b"), 20);

  // No --points: the whole grid.
  const char* bare[] = {"bench"};
  EXPECT_EQ(sweep::select_points(spec,
                                 sweep::parse_cli(1, const_cast<char**>(bare)))
                .size(),
            4u);

  const char* missing_value[] = {"bench", "--points"};
  EXPECT_THROW(sweep::parse_cli(2, const_cast<char**>(missing_value)),
               u::ContractViolation);
  const char* no_eq[] = {"bench", "--points", "a1"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(no_eq)),
               u::ContractViolation);
  const char* unknown_axis[] = {"bench", "--points", "zz=1"};
  EXPECT_THROW(
      sweep::select_points(spec,
                           sweep::parse_cli(3, const_cast<char**>(unknown_axis))),
      u::ContractViolation);
  const char* no_match[] = {"bench", "--points", "a=7"};
  EXPECT_THROW(
      sweep::select_points(spec,
                           sweep::parse_cli(3, const_cast<char**>(no_match))),
      u::ContractViolation);
}

namespace {

/// Temp-file helper for the resume tests.
struct TempCsv {
  std::string path;
  explicit TempCsv(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~TempCsv() { std::remove(path.c_str()); }
};

}  // namespace

TEST(SweepResume, SkipsPointsAlreadyInTheCsv) {
  TempCsv tmp("sweep_resume.csv");
  sweep::SweepSpec spec;
  spec.axis("hidden", std::vector<std::int64_t>{8192, 12288})
      .axis("batch", std::vector<std::int64_t>{4, 8});

  {
    u::CsvWriter csv(tmp.path, {"hidden", "batch", "result"});
    csv.add_row({"8192", "4", "1.0"});
    csv.add_row({"12288", "8", "2.0"});
  }

  sweep::CsvResume resume(tmp.path, {"hidden", "batch"});
  EXPECT_TRUE(resume.resuming());
  EXPECT_EQ(resume.completed(), 2u);
  EXPECT_TRUE(resume.contains({"8192", "4"}));
  EXPECT_FALSE(resume.contains({"8192", "8"}));

  const auto todo = resume.remaining(spec.points());
  ASSERT_EQ(todo.size(), 2u);
  EXPECT_EQ(todo[0].i64("hidden"), 8192);
  EXPECT_EQ(todo[0].i64("batch"), 8);
  EXPECT_EQ(todo[1].i64("hidden"), 12288);
  EXPECT_EQ(todo[1].i64("batch"), 4);

  // Appending the missing rows (append mode skips the header) makes the
  // next resume see a complete grid.
  {
    u::CsvWriter csv(tmp.path, {"hidden", "batch", "result"},
                     /*append=*/true);
    csv.add_row({"8192", "8", "3.0"});
    csv.add_row({"12288", "4", "4.0"});
  }
  sweep::CsvResume done(tmp.path, {"hidden", "batch"});
  EXPECT_EQ(done.completed(), 4u);
  EXPECT_TRUE(done.remaining(spec.points()).empty());

  std::ifstream in(tmp.path);
  std::string line;
  std::size_t headers = 0, lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.rfind("hidden,", 0) == 0) ++headers;
  }
  EXPECT_EQ(headers, 1u);  // append mode did not duplicate the header
  EXPECT_EQ(lines, 5u);
}

TEST(SweepResume, TruncatedTailRowIsNotTreatedAsCompleted) {
  TempCsv tmp("sweep_resume_truncated.csv");
  {
    // A run killed mid-write: the final row has its key cells but not the
    // metric column, and no trailing newline.
    std::ofstream out(tmp.path);
    out << "hidden,batch,result\n";
    out << "8192,4,1.0\n";
    out << "8192,8";  // unterminated partial row
  }
  sweep::CsvResume resume(tmp.path, {"hidden", "batch"});
  EXPECT_EQ(resume.completed(), 1u);
  EXPECT_TRUE(resume.contains({"8192", "4"}));
  EXPECT_FALSE(resume.contains({"8192", "8"}));  // must be re-run

  // Appending truncates the torn tail away before writing, so the repaired
  // file is byte-identical to one a clean run would have produced.
  {
    u::CsvWriter csv(tmp.path, {"hidden", "batch", "result"},
                     /*append=*/true);
    csv.add_row({"8192", "8", "2.0"});
  }
  std::ifstream in(tmp.path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "hidden,batch,result\n8192,4,1.0\n8192,8,2.0\n");
}

TEST(SweepResume, TruncatedFinalCellIsNotTreatedAsCompleted) {
  // The nastier mid-write kill: the tail row carries the header's full
  // comma count with only its last cell truncated ("2." of "2.75") and no
  // trailing newline. A getline-based scan sees a complete-looking row and
  // would skip the interrupted point forever — the regression this test
  // pins down.
  TempCsv tmp("sweep_resume_truncated_cell.csv");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "hidden,batch,result\n";
    out << "8192,4,1.0\n";
    out << "8192,8,2.";  // killed mid-metric, right comma count
  }
  sweep::CsvResume resume(tmp.path, {"hidden", "batch"});
  EXPECT_EQ(resume.completed(), 1u);
  EXPECT_TRUE(resume.contains({"8192", "4"}));
  EXPECT_FALSE(resume.contains({"8192", "8"}));  // must be re-run

  // Re-running the point repairs the file to the clean-run bytes.
  {
    u::CsvWriter csv(tmp.path, {"hidden", "batch", "result"},
                     /*append=*/true);
    csv.add_row({"8192", "8", "2.75"});
  }
  std::ifstream in(tmp.path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "hidden,batch,result\n8192,4,1.0\n8192,8,2.75\n");
}

TEST(SweepResume, FileTruncatedInsideHeaderStartsFresh) {
  TempCsv tmp("sweep_resume_torn_header.csv");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "hidden,bat";  // killed while writing the header itself
  }
  sweep::CsvResume resume(tmp.path, {"hidden", "batch"});
  EXPECT_FALSE(resume.resuming());
  EXPECT_EQ(resume.completed(), 0u);

  {
    u::CsvWriter csv(tmp.path, {"hidden", "batch", "result"},
                     /*append=*/true);
    csv.add_row({"8192", "4", "1.0"});
  }
  std::ifstream in(tmp.path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "hidden,batch,result\n8192,4,1.0\n");
}

TEST(SweepResume, MissingFileMeansNothingToSkip) {
  TempCsv tmp("sweep_resume_missing.csv");
  sweep::CsvResume resume(tmp.path, {"a"});
  EXPECT_FALSE(resume.resuming());
  EXPECT_EQ(resume.completed(), 0u);
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{1, 2, 3});
  EXPECT_EQ(resume.remaining(spec.points()).size(), 3u);
}

TEST(SweepResume, RefusesForeignCsvAndParsesQuotedCells) {
  TempCsv tmp("sweep_resume_foreign.csv");
  {
    u::CsvWriter csv(tmp.path, {"other", "columns"});
    csv.add_row({"1", "2"});
  }
  EXPECT_THROW(sweep::CsvResume(tmp.path, {"hidden", "batch"}),
               u::ContractViolation);

  EXPECT_EQ(sweep::split_csv_line("a,\"b,c\",\"d\"\"e\""),
            (std::vector<std::string>{"a", "b,c", "d\"e"}));
}

TEST(SweepCli, DefaultsAndErrors) {
  const char* bare[] = {"bench"};
  const auto defaults = sweep::parse_cli(1, const_cast<char**>(bare));
  EXPECT_EQ(defaults.workers, 0u);
  EXPECT_FALSE(defaults.csv_enabled());
  EXPECT_TRUE(defaults.positional.empty());

  const char* missing[] = {"bench", "--workers"};
  EXPECT_THROW(sweep::parse_cli(2, const_cast<char**>(missing)),
               u::ContractViolation);
  const char* garbage[] = {"bench", "--workers", "eight"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(garbage)),
               u::ContractViolation);
  const char* trailing[] = {"bench", "--workers", "4x"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(trailing)),
               u::ContractViolation);
  const char* unknown[] = {"bench", "--frobnicate"};
  EXPECT_THROW(sweep::parse_cli(2, const_cast<char**>(unknown)),
               u::ContractViolation);
  const char* timeout[] = {"bench", "--point-timeout", "9"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(timeout)),
               u::ContractViolation);
  const char* retries[] = {"bench", "--retries", "1"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(retries)),
               u::ContractViolation);
}

TEST(SweepCli, ParsesShardAndProgramCacheFlags) {
  const char* argv[] = {"bench", "--shard", "1/4", "--program-cache",
                        "/tmp/progs"};
  const auto options = sweep::parse_cli(5, const_cast<char**>(argv));
  EXPECT_EQ(options.shard_index, 1);
  EXPECT_EQ(options.shard_count, 4);
  EXPECT_TRUE(options.sharded());
  EXPECT_EQ(options.program_cache_dir, "/tmp/progs");
  EXPECT_TRUE(options.program_cache_enabled());

  const char* off[] = {"bench", "--no-program-cache"};
  const auto disabled = sweep::parse_cli(2, const_cast<char**>(off));
  EXPECT_FALSE(disabled.program_cache_enabled());
  EXPECT_FALSE(disabled.sharded());

  const char* out_of_range[] = {"bench", "--shard", "2/2"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(out_of_range)),
               u::ContractViolation);
  const char* garbage[] = {"bench", "--shard", "x/2"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(garbage)),
               u::ContractViolation);
  const char* no_slash[] = {"bench", "--shard", "1"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(no_slash)),
               u::ContractViolation);
  const char* negative[] = {"bench", "--shard", "-1/2"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(negative)),
               u::ContractViolation);
}

TEST(SweepCli, ShardPartitionsTheSelectionRoundRobin) {
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{0, 1, 2, 3, 4});

  // Position j of the selection belongs to shard j mod N, order preserved.
  const char* argv0[] = {"bench", "--shard", "0/2"};
  const auto shard0 = sweep::select_points(
      spec, sweep::parse_cli(3, const_cast<char**>(argv0)));
  ASSERT_EQ(shard0.size(), 3u);
  EXPECT_EQ(shard0[0].i64("a"), 0);
  EXPECT_EQ(shard0[1].i64("a"), 2);
  EXPECT_EQ(shard0[2].i64("a"), 4);

  const char* argv1[] = {"bench", "--shard", "1/2"};
  const auto shard1 = sweep::select_points(
      spec, sweep::parse_cli(3, const_cast<char**>(argv1)));
  ASSERT_EQ(shard1.size(), 2u);
  EXPECT_EQ(shard1[0].i64("a"), 1);
  EXPECT_EQ(shard1[1].i64("a"), 3);

  // Round-robin interleave (sweep_merge's algorithm) restores the
  // canonical single-process order exactly.
  std::vector<std::int64_t> merged;
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (const auto* shard : {&shard0, &shard1}) {
      if (round >= shard->size()) continue;
      merged.push_back((*shard)[round].i64("a"));
      any = true;
    }
    if (!any) break;
  }
  EXPECT_EQ(merged, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));

  // More shards than points: the excess shard is legitimately empty.
  const char* argv7[] = {"bench", "--shard", "6/7"};
  EXPECT_TRUE(sweep::select_points(
                  spec, sweep::parse_cli(3, const_cast<char**>(argv7)))
                  .empty());

  // Sharding composes with --points: the filter applies first.
  const char* filtered[] = {"bench", "--points", "a=3", "--shard", "0/2"};
  const auto only = sweep::select_points(
      spec, sweep::parse_cli(5, const_cast<char**>(filtered)));
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].i64("a"), 3);
}

TEST(SweepCli, FaultSeedTakesOnlyNonNegativeIntegers) {
  const char* zero[] = {"bench", "--fault-seed", "0"};
  EXPECT_EQ(sweep::parse_cli(3, const_cast<char**>(zero)).fault_seed, 0u);
  const char* seed[] = {"bench", "--fault-seed", "42"};
  EXPECT_EQ(sweep::parse_cli(3, const_cast<char**>(seed)).fault_seed, 42u);
  const char* max[] = {"bench", "--fault-seed", "18446744073709551615"};
  EXPECT_EQ(sweep::parse_cli(3, const_cast<char**>(max)).fault_seed,
            18446744073709551615u);

  // strtoull would wrap "-1" to 2^64-1; a sign or blank is not a seed.
  for (const char* bad : {"-1", "+1", " 1", "", "1x", "18446744073709551616"}) {
    const char* argv[] = {"bench", "--fault-seed", bad};
    EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(argv)),
                 u::ContractViolation)
        << "'" << bad << "'";
  }
  const char* missing[] = {"bench", "--fault-seed"};
  EXPECT_THROW(sweep::parse_cli(2, const_cast<char**>(missing)),
               u::ContractViolation);
}

TEST(SweepCli, RejectsFlagsThatWouldBeDropped) {
  // --mtbf only feeds --ckpt-auto; alone it would change nothing.
  const char* mtbf[] = {"bench", "--mtbf", "30"};
  EXPECT_THROW(sweep::parse_cli(3, const_cast<char**>(mtbf)),
               u::ContractViolation);
  const char* both_caches[] = {"bench", "--program-cache", "/tmp/progs",
                               "--no-program-cache"};
  EXPECT_THROW(sweep::parse_cli(4, const_cast<char**>(both_caches)),
               u::ContractViolation);
}

namespace {

using Shape = sweep::BenchMain::Shape;

/// Owns an argv array for BenchMain: "bench" followed by \p args.
struct Argv {
  std::vector<std::string> args;
  std::vector<char*> ptrs;

  explicit Argv(std::vector<std::string> flags) : args(std::move(flags)) {
    args.insert(args.begin(), "bench");
    for (std::string& arg : args) ptrs.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
};

/// Expects \p run to raise a contract violation whose message names \p what.
template <typename F>
void expect_refusal(F run, const std::string& what) {
  try {
    run();
    ADD_FAILURE() << what << " was accepted";
  } catch (const u::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// Expects BenchMain to refuse \p flags under \p shape with a message that
/// names \p flag.
void expect_rejected(Shape shape, std::vector<std::string> flags,
                     const std::string& flag) {
  Argv argv(std::move(flags));
  expect_refusal(
      [&] { sweep::BenchMain bench(argv.argc(), argv.argv(), shape); }, flag);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(BenchMain, SessionFlagsLandOnSessionAndClusterConfigs) {
  Argv argv({"--no-replay", "--pp", "2", "--tp", "4", "--dp", "3", "--zero",
             "3", "--faults", "gpu-straggler:factor=3", "--fault-seed", "9",
             "--ckpt-interval", "5", "--program-cache",
             ::testing::TempDir() + "bench_main_progs"});
  const sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::batch);

  rt::SessionConfig session;
  rt::ClusterConfig cluster;
  for (rt::SessionOptions* options :
       {static_cast<rt::SessionOptions*>(&session),
        static_cast<rt::SessionOptions*>(&cluster)}) {
    options->parallel.tensor_parallel = 2;  // a bench default, overridden
    bench.configure(*options);
    EXPECT_FALSE(options->use_replay);
    EXPECT_EQ(options->parallel.pipeline_parallel, 2);
    EXPECT_EQ(options->parallel.tensor_parallel, 4);
    EXPECT_EQ(options->parallel.data_parallel, 3);
    EXPECT_EQ(options->parallel.zero, ssdtrain::parallel::ZeroStage::stage3);
    ASSERT_EQ(options->faults.specs.size(), 1u);
    EXPECT_EQ(options->faults.specs[0].kind,
              ssdtrain::fault::FaultKind::gpu_straggler);
    EXPECT_EQ(options->faults.seed, 9u);
    EXPECT_EQ(options->checkpoint.every_steps, 5);
    ASSERT_NE(options->program_cache, nullptr);
    EXPECT_TRUE(options->program_cache->has_directory());
  }
  // Every session of the binary shares the one cache.
  EXPECT_EQ(session.program_cache, cluster.program_cache);

  // --ckpt-auto --mtbf replace the bench's cadence; a nonzero --fault-seed
  // without --faults reseeds the bench's own specs.
  Argv auto_argv({"--ckpt-auto", "--mtbf", "30", "--fault-seed", "11"});
  const sweep::BenchMain auto_bench(auto_argv.argc(), auto_argv.argv(),
                                    Shape::streamed);
  rt::ClusterConfig own;
  own.faults.specs.resize(1);
  own.faults.seed = 7;
  own.checkpoint.every_steps = 4;
  auto_bench.configure(own);
  EXPECT_EQ(own.faults.specs.size(), 1u);
  EXPECT_EQ(own.faults.seed, 11u);
  EXPECT_EQ(own.checkpoint.every_steps, 0);
  EXPECT_TRUE(own.checkpoint.auto_interval);
  EXPECT_DOUBLE_EQ(own.checkpoint.mtbf, 30.0);
}

TEST(BenchMain, WithoutFlagsConfigureSetsOnlyTheProgramCache) {
  Argv argv({});
  const sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::batch);

  rt::SessionConfig before;
  before.parallel.tensor_parallel = 2;
  before.faults.specs.resize(1);
  before.faults.seed = 7;
  before.checkpoint.every_steps = 4;
  rt::SessionConfig after = before;
  bench.configure(after);
  // The program key covers model, parallelism, machine, strategy, knobs and
  // faults; the rest of what configure() may touch is compared directly.
  EXPECT_EQ(rt::session_program_key(after).text,
            rt::session_program_key(before).text);
  EXPECT_EQ(after.use_replay, before.use_replay);
  EXPECT_EQ(after.faults.seed, before.faults.seed);
  EXPECT_EQ(after.checkpoint.every_steps, before.checkpoint.every_steps);
  EXPECT_FALSE(after.checkpoint.auto_interval);
  EXPECT_NE(after.program_cache, nullptr);

  rt::ClusterConfig cluster;
  cluster.parallel.pipeline_parallel = 4;
  bench.configure(cluster);
  EXPECT_EQ(cluster.parallel.pipeline_parallel, 4);
  EXPECT_EQ(cluster.parallel.tensor_parallel, 1);
  EXPECT_TRUE(cluster.use_replay);
  EXPECT_FALSE(cluster.faults.enabled());
  EXPECT_FALSE(cluster.checkpoint.enabled());
  EXPECT_EQ(cluster.program_cache, after.program_cache);

  Argv cold({"--no-program-cache"});
  const sweep::BenchMain cold_bench(cold.argc(), cold.argv(), Shape::batch);
  rt::SessionConfig uncached;
  cold_bench.configure(uncached);
  EXPECT_EQ(uncached.program_cache, nullptr);
}

TEST(BenchMain, ShapesRejectFlagsTheyCannotHonour) {
  for (const Shape shape : {Shape::batch, Shape::analytic}) {
    expect_rejected(shape, {"--points", "a=1"}, "--points");
    expect_rejected(shape, {"--shard", "1/2"}, "--shard");
    expect_rejected(shape, {"--csv", ::testing::TempDir() + "unused.csv",
                            "--chaos-exec", "kill:after=1"},
                    "--chaos-exec");
  }
  // Chaos fires at committed CSV rows, so a streamed run needs --csv.
  expect_rejected(Shape::streamed, {"--chaos-exec", "kill:after=1"},
                  "--chaos-exec");

  // A session-less binary refuses every session flag by name; a batch
  // binary takes them all.
  const std::vector<std::vector<std::string>> session_flags = {
      {"--no-replay"},
      {"--pp", "2"},
      {"--tp", "2"},
      {"--dp", "2"},
      {"--zero", "1"},
      {"--faults", "io-error:rate=0.1"},
      {"--fault-seed", "3"},
      {"--ckpt-interval", "2"},
      {"--ckpt-auto", "--mtbf", "5"},
      {"--program-cache", ::testing::TempDir() + "bench_main_progs"},
      {"--no-program-cache"},
  };
  for (const auto& flags : session_flags) {
    expect_rejected(Shape::analytic, flags, flags.front());
    Argv argv(flags);
    EXPECT_NO_THROW(sweep::BenchMain(argv.argc(), argv.argv(), Shape::batch))
        << flags.front();
  }
  Argv plain({"--workers", "2"});
  EXPECT_NO_THROW(
      sweep::BenchMain(plain.argc(), plain.argv(), Shape::analytic));
}

TEST(BenchMain, PositionalArgumentsAreOneDeclaredMode) {
  for (const Shape shape : {Shape::streamed, Shape::batch, Shape::analytic}) {
    // A mistyped mode would otherwise run the full grid instead of the
    // smoke cells, and a stray positional would be dropped.
    Argv typo({"smok"});
    expect_refusal(
        [&] {
          sweep::BenchMain bench(typo.argc(), typo.argv(), shape, {"smoke"});
        },
        "'smok'");
    Argv undeclared({"smoke"});
    expect_refusal(
        [&] {
          sweep::BenchMain bench(undeclared.argc(), undeclared.argv(), shape);
        },
        "'smoke'");
    Argv second({"smoke", "verify"});
    expect_refusal(
        [&] {
          sweep::BenchMain bench(second.argc(), second.argv(), shape,
                                 {"smoke", "verify"});
        },
        "'verify'");
  }

  Argv verify({"verify"});
  const sweep::BenchMain bench(verify.argc(), verify.argv(), Shape::streamed,
                               {"smoke", "verify"});
  EXPECT_TRUE(bench.mode("verify"));
  EXPECT_FALSE(bench.mode("smoke"));
  Argv none({});
  const sweep::BenchMain plain(none.argc(), none.argv(), Shape::streamed,
                               {"smoke"});
  EXPECT_FALSE(plain.mode("smoke"));

  // example_rok_explorer's grid arrives as positionals it parses itself.
  Argv grid({"4096", "2", "4", "gpt-moe"});
  const sweep::BenchMain explorer(grid.argc(), grid.argv(), Shape::batch,
                                  sweep::BenchMain::OwnPositionals{});
  EXPECT_EQ(explorer.cli().positional.size(), 4u);
}

TEST(SweepCli, MicrobenchesRejectEveryFlagTheyDoNotApply) {
  // bench_step_replay and bench_program_cache apply only these; every other
  // shared flag used to be accepted and dropped.
  const auto reject_unapplied = [](const sweep::CliOptions& options) {
    sweep::reject_flags_except(options,
                               {"--csv", "--pp", "--tp", "--dp", "--zero"},
                               "microbench");
  };
  const std::string csv = ::testing::TempDir() + "microbench.csv";
  const std::vector<std::vector<std::string>> dropped = {
      {"--workers", "2"},
      {"--points", "a=1"},
      {"--no-replay"},
      {"--faults", "io-error:rate=0.5"},
      {"--fault-seed", "3"},
      {"--ckpt-interval", "2"},
      {"--ckpt-auto", "--mtbf", "5"},
      {"--shard", "1/2"},
      {"--program-cache", ::testing::TempDir() + "microbench_progs"},
      {"--no-program-cache"},
      {"--chaos-exec", "kill:after=1", "--csv", csv},
  };
  for (const auto& flags : dropped) {
    Argv argv(flags);
    const auto options = sweep::parse_cli(argv.argc(), argv.argv());
    expect_refusal([&] { reject_unapplied(options); }, flags.front());
  }

  Argv applied({"smoke", "--csv", csv, "--pp", "2", "--tp", "2", "--dp", "2",
                "--zero", "1"});
  const auto options = sweep::parse_cli(applied.argc(), applied.argv());
  EXPECT_NO_THROW(reject_unapplied(options));
  EXPECT_NO_THROW(sweep::reject_positionals(options, {"smoke"}));
  // bench_sim_core applies --csv alone.
  expect_refusal(
      [&] {
        sweep::reject_flags_except(options, {"--csv"}, "microbench");
      },
      "--pp");

  // The command line bench_sim_core used to run to completion.
  Argv sim_core({"smoke", "--faults", "io-error:rate=0.5", "--points", "a=1",
                 "--shard", "1/2"});
  const auto dropped_all = sweep::parse_cli(sim_core.argc(), sim_core.argv());
  expect_refusal(
      [&] {
        sweep::reject_flags_except(dropped_all, {"--csv"}, "microbench");
      },
      "--points");
  Argv typo({"smok"});
  const auto mistyped = sweep::parse_cli(typo.argc(), typo.argv());
  expect_refusal([&] { sweep::reject_positionals(mistyped, {"smoke"}); },
                 "'smok'");
}

TEST(BenchMain, BatchRunReturnsValuesInOrderOrNothing) {
  Argv argv({"--workers", "2"});
  sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::batch);
  const auto squares =
      bench.run(std::vector<int>{1, 2, 3}, [](int x) { return x * x; });
  ASSERT_TRUE(squares.has_value());
  EXPECT_EQ(*squares, (std::vector<int>{1, 4, 9}));
  EXPECT_EQ(bench.exit_code(), 0);

  const auto holed = bench.run(std::vector<int>{1, 2, 3}, [](int x) {
    if (x == 2) throw std::runtime_error("boom");
    return x;
  });
  EXPECT_FALSE(holed.has_value());
  EXPECT_EQ(bench.exit_code(), 1);
}

TEST(BenchMain, StreamedResumesFixedPointKeysAndAppendsOnlyMissingRows) {
  TempCsv tmp("bench_main_resume.csv");
  sweep::SweepSpec spec;
  spec.axis("rate", std::vector<double>{0.0, 0.01})
      .axis("strategy", std::vector<std::string>{"a", "b"});
  const sweep::Cells header = {"rate", "strategy", "value"};
  // The bench's own key cells: fixed-point rates, as bench_resilience
  // writes them ("0.0100", where sweep::to_string gives "0.01").
  const auto key = [](const sweep::SweepPoint& p) -> sweep::Cells {
    return {u::format_fixed(p.f64("rate"), 4), p.str("strategy")};
  };
  const auto value = [](const std::string& v) -> sweep::Cells { return {v}; };
  {
    // An earlier run that finished two cells and died mid-row.
    std::ofstream out(tmp.path, std::ios::binary);
    out << "rate,strategy,value\n0.0000,a,0.0000a\n0.0100,b,0.0100b\n0.01";
  }

  std::atomic<int> measured{0};
  Argv argv({"--csv", tmp.path, "--workers", "2"});
  sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::streamed);
  const auto done = bench.stream(
      spec, header,
      [&measured, &key](const sweep::SweepPoint& p) {
        ++measured;
        const sweep::Cells cells = key(p);
        return cells[0] + cells[1];
      },
      value, key);

  EXPECT_EQ(measured.load(), 2);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].second, "0.0000b");
  EXPECT_EQ(done[1].second, "0.0100a");
  EXPECT_EQ(bench.exit_code(), 0);
  EXPECT_EQ(read_file(tmp.path),
            "rate,strategy,value\n0.0000,a,0.0000a\n0.0100,b,0.0100b\n"
            "0.0000,b,0.0000b\n0.0100,a,0.0100a\n");

  // A finished file leaves nothing to run.
  Argv again({"--csv", tmp.path});
  sweep::BenchMain rerun(again.argc(), again.argv(), Shape::streamed);
  EXPECT_TRUE(rerun
                  .stream(
                      spec, header,
                      [](const sweep::SweepPoint&) -> std::string {
                        throw std::runtime_error("must not run");
                      },
                      value, key)
                  .empty());
  EXPECT_EQ(rerun.exit_code(), 0);
}

TEST(BenchMain, StreamedRowsReachTheFileWhileTheGridRuns) {
  // The data-row count is sweep_orchestrate's heartbeat: a point's row must
  // be on disk once it and every earlier point finished, not only when the
  // whole grid has run. With one worker, point i starts after i rows.
  TempCsv tmp("bench_main_heartbeat.csv");
  sweep::SweepSpec spec;
  spec.axis("i", std::vector<std::int64_t>{0, 1, 2, 3, 4, 5});
  Argv argv({"--workers", "1", "--csv", tmp.path});
  sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::streamed);
  const auto done = bench.stream(
      spec, {"i", "rows_seen"},
      [&tmp](const sweep::SweepPoint&) -> std::int64_t {
        const std::string text = read_file(tmp.path);
        const auto lines = std::count(text.begin(), text.end(), '\n');
        return lines > 0 ? lines - 1 : 0;  // the header is not a row
      },
      [](std::int64_t rows) -> sweep::Cells {
        return {std::to_string(rows)};
      });
  ASSERT_EQ(done.size(), 6u);
  for (const auto& [point, rows_seen] : done) {
    EXPECT_EQ(rows_seen, point.i64("i"));
  }
  EXPECT_EQ(bench.exit_code(), 0);
}

TEST(BenchMain, StreamedHonoursPointsAndShardWithDefaultKeys) {
  TempCsv tmp("bench_main_shard.csv");
  sweep::SweepSpec spec;
  spec.axis("a", std::vector<std::int64_t>{0, 1, 2, 3})
      .axis("b", std::vector<std::string>{"x", "y"});
  Argv argv({"--csv", tmp.path, "--points", "b=y", "--shard", "1/2"});
  sweep::BenchMain bench(argv.argc(), argv.argv(), Shape::streamed);
  const auto done = bench.stream(
      spec, {"a", "b", "twice"},
      [](const sweep::SweepPoint& p) { return 2 * p.i64("a"); },
      [](std::int64_t twice) -> sweep::Cells {
        return {std::to_string(twice)};
      });
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first.i64("a"), 1);
  EXPECT_EQ(done[1].first.i64("a"), 3);
  EXPECT_EQ(read_file(tmp.path), "a,b,twice\n1,y,2\n3,y,6\n");
}
