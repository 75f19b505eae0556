// Golden-sequence determinism: the event core may be rebuilt for speed,
// but never for order.  This test hashes the executed (time, seq) stream
// of a 512-node mixed RM/broadcast/chaos world and pins it to the value
// captured on the pre-pool engine (unordered_map handlers, per-event
// std::function allocation).  Any engine change that reorders even one
// event -- a different tie-break, a pool that recycles sequence numbers,
// a compaction that drops a live entry -- changes the hash.
//
// The stream is (execution time, scheduling sequence number) per event,
// folded with FNV-1a, plus the network's message/byte totals so the
// world's observable traffic is pinned along with the event order.  The
// sweep variant runs the identical world on two worker threads and
// expects the identical hash: event order must not depend on the thread
// the world runs on.
#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "trace/generator.hpp"

namespace eslurm::core {
namespace {

/// FNV-1a over the byte stream of the values fed in.
struct StreamHasher {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
};

/// The pinned scenario: ESLURM RM with two satellites on 512 compute
/// nodes, node failures, ambient chaos (drops + duplicates + delay
/// spikes) and a bursty workload -- every event source the repo has.
ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 512;
  config.satellite_count = 2;
  config.horizon = hours(2);
  config.seed = 0xE5;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 150.0;
  config.rm_config.use_runtime_estimation = true;
  config.chaos.drop_prob = 0.01;
  config.chaos.duplicate_prob = 0.005;
  config.chaos.delay_spike_prob = 0.01;
  config.chaos.delay_spike_ms = 50.0;
  config.rm_config.use_reliable_transport = true;
  return config;
}

/// The golden workload: one hour of a bursty Tianhe-2A-like trace.
trace::WorkloadProfile golden_profile() {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.jobs_per_hour = 40;
  profile.max_nodes_per_job = 128;
  profile.seed = 0x60'1D;
  return profile;
}

/// Runs the golden scenario and returns the stream hash; `inspect`, when
/// set, sees the finished world before it is torn down.
std::uint64_t run_golden(const ExperimentConfig& config,
                         const trace::WorkloadProfile& profile = golden_profile(),
                         const std::function<void(Experiment&)>& inspect = {}) {
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(hours(1));

  StreamHasher hasher;
  Experiment experiment(config);
  experiment.engine().set_exec_observer(
      [](void* ctx, SimTime time, std::uint64_t seq) {
        auto* h = static_cast<StreamHasher*>(ctx);
        h->add(static_cast<std::uint64_t>(time));
        h->add(seq);
      },
      &hasher);
  experiment.submit_trace(jobs);
  experiment.run();
  hasher.add(experiment.engine().executed_events());
  hasher.add(experiment.network().total_messages());
  hasher.add(experiment.network().total_bytes());
  if (inspect) inspect(experiment);
  return hasher.hash;
}

/// Captured from the pre-refactor engine (unordered_map handlers,
/// std::function events) -- the optimized engine must reproduce it
/// bit-for-bit.  If an *intentional* event-order change ever lands,
/// re-capture this constant and explain the change in DESIGN.md.
constexpr std::uint64_t kGoldenHash = 0x2b50230f13b538f1ull;

TEST(GoldenSequence, MatchesPreRefactorEngine) {
  const std::uint64_t hash = run_golden(golden_config());
  printf("golden hash: 0x%016llx\n", static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, kGoldenHash);
}

TEST(GoldenSequence, HaDisabledIsInert) {
  // The HA subsystem (WAL, replication, standby heartbeats) must be
  // completely absent from the world when ha.enabled is false: no extra
  // events, no rng draws, no network traffic.  Explicitly disabling it --
  // even with every other HA knob turned to aggressive values -- must
  // reproduce the pinned pre-HA hash bit-for-bit.
  ExperimentConfig config = golden_config();
  config.rm_config.ha.enabled = false;
  config.rm_config.ha.snapshot_interval = seconds(30);
  config.rm_config.ha.group_commit_interval = milliseconds(5);
  config.rm_config.ha.standby_hb_interval = milliseconds(500);
  config.rm_config.ha.hb_miss_threshold = 1;
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

TEST(GoldenSequence, PolicyDisabledIsInert) {
  // The policy suite (QoS, account limits, reservations, preemption) must
  // run zero code while disabled: every knob below is set aggressively,
  // but with enabled=false the scheduler stays plain EASY and the pinned
  // hash must reproduce bit-for-bit.
  ExperimentConfig config = golden_config();
  config.rm_config.policy.enabled = false;
  config.rm_config.policy.preempt_mode = sched::policy::PreemptMode::Cancel;
  config.rm_config.policy.preempt_wait = seconds(10);
  config.rm_config.policy.qos_weight = 100.0;
  config.rm_config.policy.accounts.set_user(
      "user1", "acct0", 1.0, sched::policy::UserLimits{.max_running_jobs = 1});
  config.rm_config.policy.reservations.add(sched::policy::Reservation{
      .name = "maint", .start = minutes(10), .end = hours(1), .nodes = 256});
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

/// Captured with the string-keyed account tree; the policy layer may be
/// rebuilt for speed but must make every decision identically.
constexpr std::uint64_t kPolicyGoldenHash = 0xd50bd39aba4cbf05ull;

TEST(GoldenSequence, PolicyEnabledFairTreeAndLimits) {
  // The golden world with the policy suite on: a trace tagged with the
  // standard QoS mix and a two-level account tree, Fair Tree priorities,
  // a node cap on every division, a running-job cap on one user and
  // requeue preemption.  Pins the policy decisions themselves, not just
  // their absence.
  trace::WorkloadProfile profile = golden_profile();
  profile.jobs_per_hour = 1000;  // a queue deep enough for holds and evictions
  profile.qos_high_frac = 0.10;
  profile.qos_low_frac = 0.20;
  profile.account_count = 8;
  ExperimentConfig config = golden_config();
  config.rm_config.scheduler = "policy";
  auto& policy = config.rm_config.policy;
  policy.enabled = true;
  policy.preempt_mode = sched::policy::PreemptMode::Requeue;
  policy.preempt_wait = seconds(60);
  for (const auto& [account, parent] : trace::account_hierarchy(profile)) {
    sched::policy::AccountLimits limits;
    if (account.rfind("div", 0) == 0) limits.max_nodes = 320;
    policy.accounts.add_account(account, parent, 1.0, limits);
  }
  policy.accounts.set_user("user1", trace::account_for_user(profile, "user1"), 1.0,
                           sched::policy::UserLimits{.max_running_jobs = 1});

  const std::uint64_t hash = run_golden(config, profile, [](Experiment& experiment) {
    const auto* scheduler = experiment.manager().policy();
    ASSERT_NE(scheduler, nullptr);
    EXPECT_GT(scheduler->limit_holds(), 0u);
    EXPECT_GT(scheduler->preempt_orders_issued(), 0u);
    EXPECT_GT(scheduler->backfilled_jobs(), 0u);
    EXPECT_EQ(scheduler->limit_violations(), 0u);
  });
  printf("policy golden hash: 0x%016llx\n", static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, kPolicyGoldenHash);
}

TEST(GoldenSequence, RecoveryDisabledIsInert) {
  // The fault-tolerance subsystem (node-death retry machine, checkpoint
  // model, proactive drain, failure-aware placement) must run zero code
  // while disabled.  The golden world HAS node failures enabled, so this
  // pins the sharpest edge: with recovery off the RM must not register a
  // cluster observer, re-order the free list, or draw extra rng -- even
  // with every recovery knob turned to aggressive values.
  ExperimentConfig config = golden_config();
  config.rm_config.recovery.enabled = false;
  config.rm_config.recovery.max_retries = 100;
  config.rm_config.recovery.backoff_base = milliseconds(1);
  config.rm_config.recovery.checkpoint_interval = seconds(30);
  config.rm_config.recovery.checkpoint_cost = seconds(30);
  config.rm_config.recovery.proactive_drain = true;
  config.rm_config.recovery.fault_aware_placement = true;
  config.rm_config.recovery.placement_risk_weight = 100.0;
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

TEST(GoldenSequence, RerunIsBitIdentical) {
  EXPECT_EQ(run_golden(golden_config()), run_golden(golden_config()));
}

TEST(GoldenSequence, IdenticalAcrossSweepThreads) {
  // Two identical points on two worker threads; derive_seed(seed, 0) is
  // replica 0's seed for both, so both worlds are the golden world (with
  // a derived seed) and must hash identically regardless of which thread
  // runs which point.
  SweepSpec spec;
  for (int i = 0; i < 2; ++i) {
    SweepPoint point;
    point.label = "golden-" + std::to_string(i);
    point.config = golden_config();
    spec.points.push_back(point);
  }
  spec.jobs = 2;
  spec.replicas = 1;
  const auto outcomes = run_sweep(spec, [](const SweepTask& task) -> MetricRow {
    const std::uint64_t hash = run_golden(task.config);
    return {{"hash_hi", static_cast<double>(hash >> 32)},
            {"hash_lo", static_cast<double>(hash & 0xFFFFFFFFull)}};
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].replicas[0], outcomes[1].replicas[0]);
}

}  // namespace
}  // namespace eslurm::core
