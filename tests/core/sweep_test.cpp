// The parallel sweep runner: thread-count invariance (bit-identical
// outcomes for jobs=1 vs jobs=4), independent-but-reproducible replica
// seeds, aggregation math, error propagation, the shared context of a
// sequential sweep, and the per-world telemetry contexts folded in task
// order whatever the thread count.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>

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

TEST(SweepRunner, SequentialSweepRecordsIntoTheSharedContext) {
  // A sequential sweep hands every world a context of its own and folds
  // them all into the caller's shared one, one lane per world; the
  // instrumented replicas stay bit-identical to uninstrumented ones.
  telemetry::Telemetry shared;
  shared.enable();
  SweepSpec spec = tiny_spec(2, 1);
  spec.telemetry = &shared;
  std::set<const telemetry::Telemetry*> seen;
  const auto outcomes = run_sweep(spec, [&](const SweepTask& task) {
    seen.insert(task.config.telemetry);
    return run_tiny_world(task);
  });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.count(&shared), 0u);
  EXPECT_EQ(seen.count(nullptr), 0u);
  EXPECT_FALSE(shared.metrics.counters().empty());
  EXPECT_EQ(shared.lanes().size(), 4u);
  const auto plain = run_sweep(tiny_spec(2, 1), run_tiny_world);
  for (std::size_t p = 0; p < outcomes.size(); ++p)
    EXPECT_EQ(outcomes[p].replicas, plain[p].replicas);

  // A disabled context collects nothing and hands no world a context.
  telemetry::Telemetry disabled;
  spec.jobs = 2;
  spec.telemetry = &disabled;
  std::atomic<int> attached{0};
  run_sweep(spec, [&](const SweepTask& task) {
    if (task.config.telemetry) attached.fetch_add(1);
    return MetricRow{{"m", 1.0}};
  });
  EXPECT_EQ(attached.load(), 0);
  EXPECT_TRUE(disabled.metrics.counters().empty());
  EXPECT_TRUE(disabled.lanes().empty());
}

TEST(SweepRunner, TelemetryFoldsEveryWorldTheSameForAnyJobs) {
  // The contexts fold in task order: the combined context -- events, lanes,
  // metrics -- is the same at jobs=1 and jobs=4, each lane keeps its own
  // metrics snapshot, and instrumented replicas stay bit-identical to
  // uninstrumented ones.
  std::vector<std::string> artifacts;
  for (const int jobs : {1, 4}) {
    telemetry::Telemetry combined;
    combined.enable();
    SweepSpec spec = tiny_spec(2, jobs);
    spec.telemetry = &combined;
    const auto outcomes = run_sweep(spec, run_tiny_world);
    ASSERT_EQ(combined.lanes().size(), 4u);
    EXPECT_EQ(combined.lanes()[0].name, "satellites=1 r0");
    EXPECT_EQ(combined.lanes()[3].name, "satellites=2 r1");
    EXPECT_GT(combined.tracer.event_count(), 0u);
    EXPECT_EQ(combined.tracer.events().back().tid, 4u);
    // The top-level metrics are the lanes' summed.
    double lane_events = 0.0;
    for (const telemetry::Lane& lane : combined.lanes())
      lane_events += lane.metrics.counters().at("sim.events_executed").value();
    EXPECT_DOUBLE_EQ(combined.metrics.counters().at("sim.events_executed").value(),
                     lane_events);

    const auto plain = run_sweep(tiny_spec(2, jobs), run_tiny_world);
    for (std::size_t p = 0; p < outcomes.size(); ++p)
      EXPECT_EQ(outcomes[p].replicas, plain[p].replicas);
    std::ostringstream os;
    combined.tracer.write_chrome_trace(os, &combined.metrics, combined.lanes());
    artifacts.push_back(os.str());
  }
  EXPECT_EQ(artifacts[0], artifacts[1]);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, GivesEachTaskItsOwnContextFoldedInTaskOrder) {
  telemetry::Telemetry combined;
  combined.enable();
  parallel_for(6, 3, &combined, [&](std::size_t i, telemetry::Telemetry* context) {
    // A fresh enabled context of the task's own.
    ASSERT_NE(context, &combined);
    ASSERT_TRUE(context->enabled());
    EXPECT_TRUE(context->metrics.empty());
    context->metrics.counter("tasks").inc();
    context->tracer.instant("task" + std::to_string(i), "test");
  });
  EXPECT_DOUBLE_EQ(combined.metrics.counters().at("tasks").value(), 6.0);
  ASSERT_EQ(combined.lanes().size(), 6u);
  ASSERT_EQ(combined.tracer.event_count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(combined.lanes()[i].name, "task " + std::to_string(i));
    EXPECT_EQ(combined.tracer.events()[i].name, "task" + std::to_string(i));
    EXPECT_EQ(combined.tracer.events()[i].tid, i + 1);
  }
  // Without a context the tasks get none.
  parallel_for(2, 2, nullptr, [](std::size_t, telemetry::Telemetry* context) {
    EXPECT_EQ(context, nullptr);
  });
}

TEST(ParallelFor, NamesLanesByTheCallersLabels) {
  telemetry::Telemetry combined;
  combined.enable();
  parallel_for(
      3, 2, &combined, [](std::size_t i) { return "cell " + std::to_string(10 * i); },
      [](std::size_t, telemetry::Telemetry* context) {
        context->metrics.counter("tasks").inc();
      });
  ASSERT_EQ(combined.lanes().size(), 3u);
  EXPECT_EQ(combined.lanes()[0].name, "cell 0");
  EXPECT_EQ(combined.lanes()[1].name, "cell 10");
  EXPECT_EQ(combined.lanes()[2].name, "cell 20");
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
