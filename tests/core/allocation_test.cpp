// Zero-allocation steady-state checks for the event core.
//
// This TU replaces the global operator new/delete with counting versions
// (which is why it lives in its own test binary: the override is
// process-wide).  Each test warms a workload up until every pool and
// scratch buffer has reached its plateau, then turns the counter on and
// asserts that the steady-state loop performs no heap allocation at all:
//   * engine: pooled event slots + inline captures, so schedule/execute
//     cycles touch no allocator;
//   * network: recycled SendOp slots, flat handler tables and inline
//     {this, op} event captures across all legs of a send;
//   * reliable transport: pooled pending sends, the flat channel table and
//     full dedup rings, so a transported round trip (ping, handler reply,
//     completions) allocates nothing once its channels are warm;
//   * policy pass: the Fair Tree walk, the live-usage rebuild and
//     admission checks reuse their storage and report holds as enums;
//   * front-end gateway: pooled request slots, one-word request bodies,
//     ring lanes and inline response/send callbacks, across satellite
//     cache reads and refreshes, master RPCs and shed reads.
//
// Under ASan/TSan the runtime owns operator new, so the hook is compiled
// out and the tests skip (the sanitizer jobs cover memory correctness;
// this binary covers allocation count in plain builds).  The transport,
// policy and front-end cases still run there, as memory-correctness
// checks of the reused storage, with a count that is trivially zero.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/cluster.hpp"
#include "frontend/gateway.hpp"
#include "net/chaos.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "rm/eslurm_rm.hpp"
#include "sched/policy/accounts.hpp"
#include "sim/engine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ESLURM_ALLOC_HOOK 0
#endif
#if !defined(ESLURM_ALLOC_HOOK) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ESLURM_ALLOC_HOOK 0
#endif
#endif
#ifndef ESLURM_ALLOC_HOOK
#define ESLURM_ALLOC_HOOK 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

/// RAII window: allocations are counted only while one of these is live.
class CountingScope {
 public:
  CountingScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  static std::uint64_t count() { return g_allocations.load(std::memory_order_relaxed); }
};

}  // namespace

#if ESLURM_ALLOC_HOOK

namespace {

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // ESLURM_ALLOC_HOOK

namespace eslurm {
namespace {

constexpr net::MessageType kPing = 7;
constexpr net::MessageType kPong = 8;

TEST(ZeroAllocation, EngineSteadyStateChurn) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  // 64 self-rescheduling chains, the bench_engine churn shape.
  struct Chain {
    sim::Engine& engine;
    SimTime period;
    std::uint64_t fired = 0;
    void fire() {
      ++fired;
      engine.schedule_after(period, [this] { fire(); });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(64);
  for (int c = 0; c < 64; ++c)
    chains.push_back(Chain{engine, microseconds(10 + c)});
  for (auto& chain : chains) chain.fire();

  engine.run_until(milliseconds(10));  // warm-up: pool + heap reach capacity
  const std::size_t warm_capacity = engine.event_pool_capacity();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(milliseconds(200));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "engine steady state must not touch the allocator";
  EXPECT_EQ(engine.event_pool_capacity(), warm_capacity);
  EXPECT_EQ(engine.heap_fallback_events(), 0u)
      << "all engine-internal captures must fit the inline buffer";
  EXPECT_GT(engine.executed_events(), 10'000u);  // the loop actually ran
}

TEST(ZeroAllocation, EngineCancelRecyclesSlots) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  // Watchdog shape: arm far in the future, cancel, re-arm every cycle.
  struct Watchdog {
    sim::Engine& engine;
    sim::EventId pending = sim::kInvalidEvent;
    void cycle() {
      if (pending != sim::kInvalidEvent) engine.cancel(pending);
      pending = engine.schedule_after(hours(10), [] {});
      engine.schedule_after(microseconds(25), [this] { cycle(); });
    }
  };
  Watchdog dog{engine};
  dog.cycle();
  engine.run_until(milliseconds(5));

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(milliseconds(100));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "arm/cancel cycles must recycle slots, not allocate";
}

TEST(ZeroAllocation, NetworkSteadyStatePingPong) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  network.register_handler(1, kPing, [](const net::Message&) {});

  // Completion-driven ping chain: each ack immediately launches the next
  // send, so the op pool and event pool stay at their plateau.
  struct Pinger {
    net::Network& network;
    std::uint64_t sent = 0;
    void fire() {
      ++sent;
      net::Message msg;
      msg.type = kPing;
      msg.bytes = 64;
      network.send(0, 1, std::move(msg), /*timeout=*/0, [this](bool) { fire(); });
    }
  };
  Pinger pinger{network};
  pinger.fire();
  engine.run_until(milliseconds(50));  // warm-up
  const std::size_t warm_ops = network.send_op_pool_capacity();
  const std::uint64_t warm_sent = pinger.sent;

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(1));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a full send/deliver/ack exchange must recycle "
                              "its op slot and event slots";
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_GT(pinger.sent, warm_sent + 100);  // traffic actually flowed
  EXPECT_EQ(network.failed_sends(), 0u);
}

/// Transported round trips over a fixed set of channels: node 0 pings
/// node 1 with a small payload, node 1's handler pongs back, and the
/// ping's completion launches the next ping.  With `duplicate` every
/// frame also arrives twice, so the suppression path runs on every leg.
void transport_ping_pong_allocates_nothing(bool duplicate) {
  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  net::ChaosInjector chaos(engine, 4, Rng(7));
  if (duplicate) {
    net::ChaosPlan plan;
    plan.ambient(0.0, /*duplicate=*/1.0);
    chaos.set_plan(std::move(plan));
    network.set_chaos(&chaos);
  }
  net::ReliableTransport transport(network, Rng(9));
  std::uint64_t pongs = 0;
  transport.register_handler(1, kPing, [&](const net::Message& m) {
    net::Message reply;
    reply.type = kPong;
    reply.bytes = 64;
    reply.payload = m.body<std::uint64_t>();
    transport.send(1, 0, std::move(reply));
  });
  transport.register_handler(0, kPong, [&](const net::Message&) { ++pongs; });

  struct Pinger {
    net::ReliableTransport& transport;
    std::uint64_t sent = 0;
    void fire() {
      net::Message msg;
      msg.type = kPing;
      msg.bytes = 64;
      msg.payload = sent++;
      transport.send(0, 1, std::move(msg), /*timeout=*/0, [this](bool) { fire(); });
    }
  };
  Pinger pinger{transport};
  pinger.fire();
  // Warm-up: past dedup_window frames per channel, so every ring is full.
  engine.run_until(seconds(1));
  ASSERT_GT(pinger.sent, 2 * transport.options().dedup_window);
  const std::uint64_t warm_sent = pinger.sent;
  const std::size_t warm_ops = network.send_op_pool_capacity();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(3));
    allocated = CountingScope::count();
  }
  // Without the hook (sanitizer builds) the count is 0 by construction;
  // the rest still checks the pooled, reentrant send path under ASan/TSan.
  EXPECT_EQ(allocated, 0u) << "a transported round trip must recycle its "
                              "pending-send slot and touch no channel state";
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_GT(pinger.sent, warm_sent + 100);  // traffic actually flowed
  EXPECT_GT(pongs, warm_sent);
  EXPECT_EQ(transport.channels(), 2u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
  if (duplicate) {
    EXPECT_GT(transport.duplicates_suppressed(), warm_sent);
  } else {
    EXPECT_EQ(transport.duplicates_suppressed(), 0u);
  }
}

TEST(ZeroAllocation, TransportSteadyStatePingPong) {
  transport_ping_pong_allocates_nothing(/*duplicate=*/false);
}

TEST(ZeroAllocation, TransportSteadyStatePingPongWithChaosDuplicates) {
  transport_ping_pong_allocates_nothing(/*duplicate=*/true);
}

TEST(ZeroAllocation, FrontendRequestSteadyState) {
  // Runs under sanitizers too, as a memory check of the recycled slots.
  using frontend::RpcKind;
  using frontend::RpcOutcome;

  // An ESLURM deployment (master, two satellites, four login nodes) with
  // a gateway sized so every path runs each burst: one read per
  // satellite, a third read to the master, a fourth into the one-deep
  // read lane or shed off it, and a submission through the mutating lane.
  // The short cache TTL makes satellites refresh from the master often.
  sim::Engine engine;
  net::LinkModel link;
  link.jitter_frac = 0.0;
  net::Network network(engine, 7, link, Rng(1));
  cluster::ClusterModel cluster_model(engine, 7);
  network.set_liveness(cluster_model.liveness());
  rm::RmDeployment deployment;
  deployment.master = 0;
  deployment.satellites = {1, 2};
  deployment.compute = {3, 4, 5, 6};
  rm::RmRuntimeConfig rm_config;
  rm::EslurmRm manager(engine, network, cluster_model, rm::eslurm_profile(), deployment,
                       rm_config);
  frontend::GatewayConfig config;
  config.master_connection_cap = 1;
  config.read_queue_limit = 1;
  config.satellite_connection_cap = 1;
  config.cache_ttl = milliseconds(20);
  frontend::Gateway gateway(engine, network, manager, config);

  struct Client {
    sim::Engine& engine;
    frontend::Gateway& gateway;
    std::uint64_t bursts = 0;
    std::uint64_t served = 0;
    std::uint64_t submitted = 0;
    void burst() {
      const net::NodeId source = static_cast<net::NodeId>(3 + bursts++ % 4);
      for (const RpcKind kind : {RpcKind::QueryQueue, RpcKind::QueryNodes,
                                 RpcKind::QueryQueue, RpcKind::JobInfo,
                                 RpcKind::SubmitJob}) {
        gateway.issue(kind, source, [this, kind](RpcOutcome outcome) {
          if (outcome != RpcOutcome::Ok) return;
          ++served;
          if (kind == RpcKind::SubmitJob) ++submitted;
        });
      }
      engine.schedule_after(milliseconds(2), [this] { burst(); });
    }
  };
  Client client{engine, gateway};
  client.burst();
  // Warm-up: past the transport's dedup window on every response channel.
  engine.run_until(seconds(5));
  ASSERT_GT(gateway.served_by_satellite(), 0u);
  ASSERT_GT(client.submitted, 0u);
  ASSERT_GT(gateway.shed_reads(), 0u);
  ASSERT_GT(gateway.cache_refreshes(), 0u);
  const std::size_t warm_slots = gateway.pending_slots();
  const std::uint64_t warm_served = client.served;
  const std::uint64_t warm_submitted = client.submitted;
  const std::uint64_t warm_sat = gateway.served_by_satellite();
  const std::uint64_t warm_shed = gateway.shed_reads();
  const std::uint64_t warm_refreshes = gateway.cache_refreshes();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(10));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a warm gateway must serve, queue, shed and refresh "
                              "without touching the allocator";
  EXPECT_EQ(gateway.pending_slots(), warm_slots);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  // Every path kept running in the counted window.
  EXPECT_GT(client.served, warm_served + 1000);
  EXPECT_GT(client.submitted, warm_submitted);
  EXPECT_GT(gateway.served_by_satellite(), warm_sat);
  EXPECT_GT(gateway.shed_reads(), warm_shed);
  EXPECT_GT(gateway.cache_refreshes(), warm_refreshes);
  EXPECT_EQ(gateway.timeouts(), 0u);
}

TEST(ZeroAllocation, PolicyPassSteadyState) {
  // A 300-user tree under 8 accounts (2 divisions of 3 projects each),
  // usage charged everywhere, 60 running jobs and one pending job held by
  // its user's cap: one scheduling pass's worth of policy work.
  using namespace sched::policy;
  AccountTree tree(hours(12));
  for (int d = 0; d < 2; ++d) {
    const std::string division = "div" + std::to_string(d);
    tree.add_account(division, "", 1.0, AccountLimits{.max_nodes = 400});
    for (int p = 0; p < 3; ++p)
      tree.add_account("proj" + std::to_string(3 * d + p), division, 1.0 + p);
  }
  sched::JobPool pool;
  for (int u = 0; u < 300; ++u) {
    const std::string user = "user" + std::to_string(u);
    tree.set_user(user, "proj" + std::to_string(u % 6), 1.0,
                  UserLimits{.max_running_jobs = u == 5 ? 1 : 100});
    sched::Job job;
    job.id = static_cast<sched::JobId>(u + 1);
    job.user = user;
    job.nodes = 1 + u % 4;
    tree.charge(job, 1000.0 * (u % 13), minutes(u));
    if (u % 5 == 0) {
      pool.submit(job);
      pool.mark_starting(job.id);
      pool.mark_running(job.id, minutes(u));
    }
  }
  sched::Job held;
  held.id = 1000;
  held.user = "user5";  // capped at one job and already running it
  held.nodes = 2;
  pool.submit(held);
  sched::Job free_job;
  free_job.id = 1001;
  free_job.user = "user8";
  free_job.nodes = 2;
  pool.submit(free_job);
  const JobKeys held_keys = tree.keys_of(held);
  const JobKeys free_keys = tree.keys_of(free_job);
  const QosClass qos;

  std::vector<double> factors;
  LiveUsage usage;
  std::size_t holds = 0;
  const auto pass = [&](SimTime now) {
    tree.fair_tree_factors(now, factors);
    tree.usage_from(pool, usage);
    holds += tree.may_start(held, held_keys, qos, usage).has_value();
    holds += tree.may_start(free_job, free_keys, qos, usage).has_value();
    tree.add_usage(usage, free_job, free_keys);
  };
  pass(hours(1));  // warm-up: every reused buffer reaches its size

  std::uint64_t allocated;
  {
    CountingScope scope;
    for (int i = 0; i < 200; ++i) pass(hours(1) + minutes(i));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a steady-state policy pass must not touch the allocator";
  ASSERT_EQ(factors.size(), 300u);
  EXPECT_NE(factors[0], factors[1]);
  EXPECT_EQ(holds, 201u);  // exactly the capped job, every pass
  EXPECT_STREQ(hold_reason_name(*tree.may_start(held, held_keys, qos, usage)),
               "user-max-jobs");
}

}  // namespace
}  // namespace eslurm
