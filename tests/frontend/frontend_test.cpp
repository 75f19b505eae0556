// Integration tests of the RPC front-end over the simulated cluster:
// satellite read offloading, admission-control lane ordering, retry
// storms after mass sheds, satellite-failure fallback, and the guarded
// empty-stream accessors.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "frontend/frontend.hpp"
#include "rm/centralized_rm.hpp"
#include "rm/eslurm_rm.hpp"

namespace eslurm::frontend {
namespace {

using rm::NodeId;

struct FrontendFixture : ::testing::Test {
  static constexpr std::size_t kCompute = 64;
  static constexpr std::size_t kSatellites = 2;
  sim::Engine engine;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;
  rm::RmDeployment deployment;
  rm::RmRuntimeConfig rm_config;

  void SetUp() override {
    net::LinkModel link;
    link.jitter_frac = 0.0;
    const std::size_t total = 1 + kSatellites + kCompute;
    net.emplace(engine, total, link, Rng(1));
    cluster_model.emplace(engine, total);
    net->set_liveness(cluster_model->liveness());
    deployment.master = 0;
    for (std::size_t i = 0; i < kSatellites; ++i)
      deployment.satellites.push_back(static_cast<NodeId>(1 + i));
    for (std::size_t i = 0; i < kCompute; ++i)
      deployment.compute.push_back(static_cast<NodeId>(1 + kSatellites + i));
    rm_config.sched_interval = seconds(5);
    rm_config.sample_interval = seconds(10);
  }
};

TEST_F(FrontendFixture, SatelliteReadsOffloadTheMaster) {
  rm::EslurmRm manager(engine, *net, *cluster_model, rm::eslurm_profile(),
                       deployment, rm_config);
  FrontendConfig config;
  config.clients.users = 20000;
  config.clients.session_cycle_mean = hours(4);
  config.clients.seed = 7;
  config.gateway.cache_ttl = seconds(10);
  FrontEnd frontend(engine, *net, manager, config);

  const SimTime horizon = minutes(5);
  manager.start(horizon);
  frontend.start(horizon);
  engine.run_until(horizon + minutes(2));  // let in-flight requests settle

  const auto& clients = frontend.clients();
  const auto& gateway = frontend.gateway();
  ASSERT_GT(clients.completed(), 100u);
  EXPECT_EQ(clients.started(), clients.completed());
  EXPECT_EQ(gateway.pending_count(), 0u);
  // The read-heavy mix served from satellite snapshots keeps well over
  // half of the requests off the master (the Section II-B mechanism).
  EXPECT_GT(gateway.served_by_satellite(), gateway.served_by_master());
  EXPECT_GT(gateway.master_offload(), 0.5);
  EXPECT_GT(gateway.cache_hit_ratio(), 0.5);
  EXPECT_LT(clients.failure_rate(), 0.01);
  // Latency percentiles come from the streaming histogram and must
  // bracket the mean.
  const Histogram& hist = clients.latency_histogram();
  EXPECT_GT(hist.p95(), 0.0);
  EXPECT_LE(hist.p50(), hist.p95());
  EXPECT_LE(hist.p95(), hist.p99());
}

TEST_F(FrontendFixture, TransportedGatewayLeavesNoResponseHandler) {
  rm::CentralizedRm manager(engine, *net, *cluster_model, rm::slurm_profile(),
                            deployment, rm_config);
  GatewayConfig config;
  config.reliable_responses = true;
  config.satellite_reads = false;
  {
    Gateway gateway(engine, *net, manager, config);
    for (const NodeId node : deployment.compute)
      ASSERT_TRUE(net->has_handler(node, kMsgRpcResponse)) << node;
  }
  for (const NodeId node : deployment.compute)
    EXPECT_FALSE(net->has_handler(node, kMsgRpcResponse)) << node;
}

TEST_F(FrontendFixture, MutatingLaneDrainsBeforeQueuedReads) {
  rm::CentralizedRm manager(engine, *net, *cluster_model, rm::slurm_profile(),
                            deployment, rm_config);
  GatewayConfig config;
  config.master_connection_cap = 1;
  config.read_queue_limit = 2;
  config.mutating_queue_limit = 2;
  config.satellite_reads = false;
  Gateway gateway(engine, *net, manager, config);

  std::vector<std::pair<char, RpcOutcome>> outcomes;  // (tag, outcome) in order
  auto record = [&outcomes](char tag) {
    return [&outcomes, tag](RpcOutcome outcome) { outcomes.emplace_back(tag, outcome); };
  };
  const NodeId source = deployment.compute[0];
  engine.schedule_at(0, [&] {
    gateway.issue(RpcKind::QueryQueue, source, record('a'));  // takes the slot
    gateway.issue(RpcKind::QueryQueue, source, record('b'));  // queued read 1
    gateway.issue(RpcKind::QueryQueue, source, record('c'));  // queued read 2
    gateway.issue(RpcKind::QueryQueue, source, record('d'));  // read queue full: shed
    gateway.issue(RpcKind::SubmitJob, source, record('e'));   // queued mutating 1
    gateway.issue(RpcKind::CancelJob, source, record('f'));   // queued mutating 2
  });
  engine.run_until(minutes(2));

  ASSERT_EQ(outcomes.size(), 6u);
  // The overflowing read is shed immediately with a retry hint.
  EXPECT_EQ(outcomes[0].first, 'd');
  EXPECT_EQ(outcomes[0].second, RpcOutcome::RetryHint);
  // Then the in-flight read, then the mutating lane drains ahead of the
  // queued reads.
  EXPECT_EQ(outcomes[1].first, 'a');
  EXPECT_EQ(outcomes[2].first, 'e');
  EXPECT_EQ(outcomes[3].first, 'f');
  EXPECT_EQ(outcomes[4].first, 'b');
  EXPECT_EQ(outcomes[5].first, 'c');
  for (std::size_t i = 1; i < outcomes.size(); ++i)
    EXPECT_EQ(outcomes[i].second, RpcOutcome::Ok) << outcomes[i].first;
  EXPECT_EQ(gateway.shed_reads(), 1u);
  EXPECT_EQ(gateway.refused_mutating(), 0u);
  EXPECT_EQ(gateway.master_inflight(), 0);
}

TEST_F(FrontendFixture, LateResponseForARecycledSlotIsCountedNotDelivered) {
  // A request that times out frees its slot, and the request issued from
  // its callback reuses it.  The old request's master response lands
  // while the new one is in flight: it must count as late and leave the
  // new request to resolve on its own reply.
  rm::CentralizedRm manager(engine, *net, *cluster_model, rm::slurm_profile(),
                            deployment, rm_config);
  GatewayConfig config;
  config.satellite_reads = false;
  const NodeId source = deployment.compute[0];

  // Round trips on an idle gateway with the default timeout.  SubmitJob's
  // handler runs ten times longer than JobInfo's, so its reply comes later.
  SimTime info_rtt = 0;
  SimTime submit_rtt = 0;
  {
    Gateway calibration(engine, *net, manager, config);
    const auto round_trip = [&](RpcKind kind) {
      const SimTime start = engine.now();
      SimTime took = -1;
      calibration.issue(kind, source, [&took, &engine = engine, start](RpcOutcome outcome) {
        EXPECT_EQ(outcome, RpcOutcome::Ok);
        took = engine.now() - start;
      });
      engine.run_until(start + seconds(1));
      return took;
    };
    info_rtt = round_trip(RpcKind::JobInfo);
    submit_rtt = round_trip(RpcKind::SubmitJob);
  }
  ASSERT_GT(info_rtt, 0);
  ASSERT_GT(submit_rtt, info_rtt + microseconds(100));

  // Times the SubmitJob out between the two round trips: its response
  // arrives after the timeout and before the JobInfo's reply.
  config.request_timeout = (info_rtt + submit_rtt) / 2;
  Gateway gateway(engine, *net, manager, config);
  struct Log {
    std::vector<RpcOutcome> old_outcomes;
    std::vector<RpcOutcome> new_outcomes;
    SimTime reissued_at = -1;
    SimTime resolved_at = -1;
  } log;
  const SimTime start = engine.now();
  gateway.issue(RpcKind::SubmitJob, source, [&, source](RpcOutcome outcome) {
    log.old_outcomes.push_back(outcome);
    log.reissued_at = engine.now();
    gateway.issue(RpcKind::JobInfo, source, [&log, &engine = engine](RpcOutcome o) {
      log.new_outcomes.push_back(o);
      log.resolved_at = engine.now();
    });
  });
  engine.run_until(start + seconds(1));

  ASSERT_EQ(log.old_outcomes.size(), 1u);
  EXPECT_EQ(log.old_outcomes[0], RpcOutcome::Unavailable);
  EXPECT_EQ(gateway.timeouts(), 1u);
  EXPECT_EQ(log.reissued_at, start + config.request_timeout);
  EXPECT_EQ(gateway.late_responses(), 1u);
  ASSERT_EQ(log.new_outcomes.size(), 1u);
  EXPECT_EQ(log.new_outcomes[0], RpcOutcome::Ok);
  // Resolved by its own reply, one full round trip after it was issued --
  // not early, by the old request's response.
  EXPECT_EQ(log.resolved_at, log.reissued_at + info_rtt);
  EXPECT_EQ(gateway.served_by_master(), 1u);
  EXPECT_EQ(gateway.pending_count(), 0u);
  EXPECT_EQ(gateway.master_inflight(), 0);
}

TEST_F(FrontendFixture, RetryStormAfterMassShedConverges) {
  rm::CentralizedRm manager(engine, *net, *cluster_model, rm::slurm_profile(),
                            deployment, rm_config);
  FrontendConfig config;
  // A needle-eye gateway: almost everything is shed on first contact and
  // comes back as a jittered backoff storm.
  config.gateway.master_connection_cap = 1;
  config.gateway.read_queue_limit = 2;
  config.gateway.mutating_queue_limit = 2;
  config.gateway.satellite_reads = false;
  // Offered attempt rate far above the single slot's throughput: the
  // bulk of first attempts shed and return as backoff waves.
  config.clients.users = 20000;
  config.clients.session_cycle_mean = minutes(2);
  config.clients.think_time_mean = seconds(2);
  config.clients.give_up = seconds(20);
  config.clients.seed = 11;
  FrontEnd frontend(engine, *net, manager, config);

  const SimTime horizon = minutes(2);
  manager.start(horizon);
  frontend.start(horizon);
  // Drain: every straggler resolves within give_up + the server-side
  // request timeout.
  engine.run_until(horizon + config.clients.give_up +
                   config.gateway.request_timeout + seconds(10));

  const auto& clients = frontend.clients();
  const auto& gateway = frontend.gateway();
  ASSERT_GT(clients.started(), 200u);
  // The storm happened...
  EXPECT_GT(gateway.shed_reads(), 0u);
  EXPECT_GT(clients.retries(), clients.started());
  EXPECT_GT(clients.gave_up(), 0u);
  // ...and every logical request still reached a terminal outcome, with
  // no leaked in-flight slots or pending entries.
  EXPECT_EQ(clients.completed(), clients.started());
  // Give-ups plus responses that landed after the deadline.
  EXPECT_GE(clients.failed(), clients.gave_up());
  EXPECT_EQ(gateway.pending_count(), 0u);
  EXPECT_EQ(gateway.master_inflight(), 0);
  EXPECT_GT(clients.failure_rate(), 0.0);
  EXPECT_LT(clients.failure_rate(), 1.0);
}

TEST_F(FrontendFixture, ReadsFallBackWhenSatellitesDie) {
  rm::EslurmRm manager(engine, *net, *cluster_model, rm::eslurm_profile(),
                       deployment, rm_config);
  FrontendConfig config;
  config.clients.users = 10000;
  config.clients.session_cycle_mean = hours(4);
  config.clients.seed = 13;
  config.gateway.cache_ttl = seconds(10);
  config.gateway.satellite_retry_cooldown = minutes(30);  // no coming back
  FrontEnd frontend(engine, *net, manager, config);

  const SimTime horizon = minutes(6);
  manager.start(horizon);
  frontend.start(horizon);
  // Mid-run, both satellites die (FAULT and, after the dwell, DOWN).
  engine.schedule_at(minutes(3), [&] {
    for (const NodeId sat : deployment.satellites) cluster_model->fail(sat);
  });
  engine.run_until(horizon + minutes(2));

  const auto& clients = frontend.clients();
  const auto& gateway = frontend.gateway();
  ASSERT_GT(clients.completed(), 100u);
  EXPECT_EQ(clients.started(), clients.completed());
  // Both halves of the run are visible: satellite-served reads before
  // the failure, master-served reads after the fallback.
  EXPECT_GT(gateway.served_by_satellite(), 0u);
  EXPECT_GT(gateway.served_by_master(), 0u);
  // The requests caught mid-failover resolve (timeout or dead-peer
  // detection), clients retry, and the system converges: nothing leaks.
  EXPECT_EQ(gateway.pending_count(), 0u);
  EXPECT_EQ(gateway.master_inflight(), 0);
  EXPECT_LT(clients.failure_rate(), 0.05);
}

TEST_F(FrontendFixture, NoRequestStartsAfterTheHorizon) {
  // Multi-request sessions leave think-time timers armed at the horizon;
  // when they fire they must end their session, not start a request.
  rm::EslurmRm manager(engine, *net, *cluster_model, rm::eslurm_profile(),
                       deployment, rm_config);
  FrontendConfig config;
  config.clients.users = 20000;
  config.clients.session_cycle_mean = hours(4);
  config.clients.session_requests_mean = 6.0;
  config.clients.think_time_mean = seconds(10);
  config.clients.seed = 7;
  FrontEnd frontend(engine, *net, manager, config);

  const SimTime horizon = minutes(3);
  manager.start(horizon);
  frontend.start(horizon);
  engine.run_until(horizon);
  const auto& clients = frontend.clients();
  const std::uint64_t started_at_horizon = clients.started();
  ASSERT_GT(started_at_horizon, 100u);

  engine.run_until(horizon + minutes(10));  // drain
  EXPECT_EQ(clients.started(), started_at_horizon);
  EXPECT_EQ(clients.completed(), clients.started());
}

TEST_F(FrontendFixture, EmptyStreamAccessorsAreGuarded) {
  rm::EslurmRm manager(engine, *net, *cluster_model, rm::eslurm_profile(),
                       deployment, rm_config);
  FrontendConfig config;  // users == 0: no traffic at all
  FrontEnd frontend(engine, *net, manager, config);
  manager.start(minutes(1));
  frontend.start(minutes(1));
  engine.run_until(minutes(1));

  EXPECT_EQ(frontend.clients().completed(), 0u);
  EXPECT_DOUBLE_EQ(frontend.clients().failure_rate(), 0.0);
  EXPECT_DOUBLE_EQ(frontend.clients().latency_seconds().mean(), 0.0);
  EXPECT_DOUBLE_EQ(frontend.clients().latency_histogram().p95(), 0.0);
  EXPECT_DOUBLE_EQ(frontend.gateway().master_offload(), 0.0);
  EXPECT_DOUBLE_EQ(frontend.gateway().cache_hit_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(manager.request_failure_rate(), 0.0);
}

}  // namespace
}  // namespace eslurm::frontend
