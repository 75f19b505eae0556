// The parallel sweep runner: thread-count invariance (bit-identical
// outcomes for jobs=1 vs jobs=4), independent-but-reproducible replica
// seeds, aggregation math, error propagation, per-point telemetry
// artifacts, and the shared context of a sequential sweep.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>

#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace eslurm::core {
namespace {

SweepSpec tiny_spec(int replicas, int jobs) {
  SweepSpec spec;
  spec.replicas = replicas;
  spec.jobs = jobs;
  for (const std::size_t satellites : {1u, 2u}) {
    SweepPoint point;
    point.label = "satellites=" + std::to_string(satellites);
    point.params = {{"satellites", std::to_string(satellites)}};
    point.config.rm = "eslurm";
    point.config.compute_nodes = 64;
    point.config.satellite_count = satellites;
    point.config.horizon = hours(2);
    point.config.seed = 99;
    point.config.enable_failures = true;
    point.config.failure_params.node_mtbf_hours = 100.0;
    spec.points.push_back(std::move(point));
  }
  return spec;
}

MetricRow run_tiny_world(const SweepTask& task) {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.jobs_per_hour = 10;
  profile.max_nodes_per_job = 32;
  profile.seed = 7;
  trace::TraceGenerator generator(profile);
  Experiment experiment(task.config);
  experiment.submit_trace(generator.generate(hours(1)));
  experiment.run();
  MetricRow row = metrics_from_report(experiment.report());
  row.emplace_back("events",
                   static_cast<double>(experiment.engine().executed_events()));
  return row;
}

TEST(SweepRunner, ParallelMatchesSequentialBitForBit) {
  const auto sequential = run_sweep(tiny_spec(3, 1), run_tiny_world);
  const auto parallel = run_sweep(tiny_spec(3, 4), run_tiny_world);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t p = 0; p < sequential.size(); ++p) {
    EXPECT_EQ(sequential[p].point.label, parallel[p].point.label);
    ASSERT_EQ(sequential[p].replicas.size(), 3u);
    // Raw per-replica metric values must match exactly, not just within
    // tolerance -- scheduling order must not depend on the thread count.
    EXPECT_EQ(sequential[p].replicas, parallel[p].replicas);
  }
}

TEST(SweepRunner, ReplicaSeedsAreDerivedStreams) {
  std::mutex mutex;
  std::set<std::uint64_t> seeds;
  SweepSpec spec = tiny_spec(3, 2);
  spec.points.resize(1);
  run_sweep(spec, [&](const SweepTask& task) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      seeds.insert(task.config.seed);
      EXPECT_EQ(task.config.seed, derive_seed(99, task.replica));
    }
    return MetricRow{{"m", static_cast<double>(task.replica)}};
  });
  // All three replicas saw distinct seeds, none of them the raw base.
  EXPECT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds.count(99), 0u);
}

TEST(SweepRunner, AggregatesMeanStddevMinMax) {
  const MetricStats stats = aggregate({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  // Sample stddev of {1,2,3,4}.
  EXPECT_NEAR(stats.stddev, 1.2909944487358056, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_EQ(stats.n, 4u);

  const MetricStats single = aggregate({7.0});
  EXPECT_DOUBLE_EQ(single.mean, 7.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_EQ(single.n, 1u);
}

TEST(SweepRunner, TaskExceptionPropagates) {
  SweepSpec spec = tiny_spec(1, 2);
  EXPECT_THROW(run_sweep(spec,
                         [](const SweepTask& task) -> MetricRow {
                           if (task.point_index == 1)
                             throw std::runtime_error("boom");
                           return {{"m", 1.0}};
                         }),
               std::runtime_error);
}

TEST(SweepRunner, WritesOneTelemetryArtifactPerPoint) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "eslurm_sweep_telemetry_test";
  fs::remove_all(dir);
  SweepSpec spec = tiny_spec(2, 2);
  spec.telemetry_dir = dir.string();
  const auto outcomes = run_sweep(spec, run_tiny_world);
  for (const PointOutcome& outcome : outcomes) {
    ASSERT_FALSE(outcome.telemetry_path.empty());
    EXPECT_TRUE(fs::exists(outcome.telemetry_path)) << outcome.telemetry_path;
    // Instrumented replica 0 must still be bit-identical to replica 0 of
    // an uninstrumented run -- telemetry must not perturb the sim.
  }
  const auto plain = run_sweep(tiny_spec(2, 1), run_tiny_world);
  for (std::size_t p = 0; p < outcomes.size(); ++p)
    EXPECT_EQ(outcomes[p].replicas[0], plain[p].replicas[0]);
  fs::remove_all(dir);
}

TEST(SweepRunner, SequentialSweepRecordsIntoTheSharedContext) {
  // A single --telemetry-out context rides along a sequential sweep and
  // collects every world; a parallel sweep leaves it untouched.
  telemetry::Telemetry shared;
  shared.enable();
  SweepSpec spec = tiny_spec(2, 1);
  spec.telemetry = &shared;
  std::set<const telemetry::Telemetry*> seen;
  const auto outcomes = run_sweep(spec, [&](const SweepTask& task) {
    seen.insert(task.config.telemetry);
    return run_tiny_world(task);
  });
  EXPECT_EQ(seen, (std::set<const telemetry::Telemetry*>{&shared}));
  EXPECT_FALSE(shared.metrics.counters().empty());
  const auto plain = run_sweep(tiny_spec(2, 1), run_tiny_world);
  for (std::size_t p = 0; p < outcomes.size(); ++p)
    EXPECT_EQ(outcomes[p].replicas, plain[p].replicas);

  telemetry::Telemetry unused;
  unused.enable();
  spec.jobs = 2;
  spec.telemetry = &unused;
  std::atomic<int> attached{0};
  run_sweep(spec, [&](const SweepTask& task) {
    if (task.config.telemetry) attached.fetch_add(1);
    return MetricRow{{"m", 1.0}};
  });
  EXPECT_EQ(attached.load(), 0);
  EXPECT_TRUE(unused.metrics.counters().empty());
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesFirstError) {
  EXPECT_THROW(parallel_for(8, 3,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("bad cell");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace eslurm::core
