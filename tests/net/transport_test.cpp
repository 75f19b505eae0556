// Behavioural tests of the reliable transport: retry/backoff, permanent
// failure, the dedup window, and timing-neutrality without chaos.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_set>
#include <vector>

#include "net/chaos.hpp"

namespace eslurm::net {
namespace {

using Verdict = DedupWindow::Verdict;

/// Reference model of the dedup window: a hash set for membership plus a
/// FIFO of admission order.  DedupWindow must reach the same verdict on
/// every frame.
class ReferenceWindow {
 public:
  Verdict admit(std::uint64_t seq, std::size_t capacity) {
    if (seen_.count(seq)) return Verdict::kDuplicate;
    const bool wrapped = evicted_any_ && seq <= evicted_max_;
    seen_.insert(seq);
    order_.push_back(seq);
    if (order_.size() > capacity) {
      const std::uint64_t evicted = order_.front();
      evicted_max_ = std::max(evicted_max_, evicted);
      evicted_any_ = true;
      seen_.erase(evicted);
      order_.pop_front();
    }
    return wrapped ? Verdict::kWrapped : Verdict::kDeliver;
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
  std::uint64_t evicted_max_ = 0;
  bool evicted_any_ = false;
};

/// A receiver's view of one channel: mostly in-order seqs, with
/// duplicates of recent frames, swapped neighbours and late frames from
/// far behind the window.
std::vector<std::uint64_t> messy_seq_stream(Rng& rng, std::size_t capacity,
                                            std::size_t length) {
  std::vector<std::uint64_t> stream;
  std::uint64_t next = 0;
  const std::int64_t near = static_cast<std::int64_t>(capacity) + 2;
  while (stream.size() < length) {
    const double roll = rng.next_double();
    if (roll < 0.15 && next > 0) {  // duplicate of a recent frame
      const std::int64_t back = rng.uniform_int(1, std::min<std::int64_t>(near, next));
      stream.push_back(next - static_cast<std::uint64_t>(back));
    } else if (roll < 0.25 && next > 0) {  // late frame from long ago
      stream.push_back(static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(next) - 1)));
    } else if (roll < 0.35) {  // two fresh frames, reordered
      stream.push_back(next + 1);
      stream.push_back(next);
      next += 2;
    } else if (roll < 0.40) {  // a gap: frames lost for good
      next += static_cast<std::uint64_t>(rng.uniform_int(1, near));
      stream.push_back(next++);
    } else {
      stream.push_back(next++);
    }
  }
  return stream;
}

struct TransportFixture : ::testing::Test {
  sim::Engine engine;
  LinkModel model;
  TransportFixture() { model.jitter_frac = 0.0; }  // exact timing in tests

  Network make(std::size_t n) { return Network(engine, n, model, Rng(1)); }

  /// Deterministic retransmit schedule for timing assertions.
  static TransportOptions exact_options() {
    TransportOptions opts;
    opts.jitter_frac = 0.0;
    return opts;
  }
};

TEST_F(TransportFixture, DeliversPayloadAndAcks) {
  Network net = make(2);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  bool ok = false;
  transport.register_handler(1, 7, [&](const Message& m) {
    EXPECT_EQ(m.src, 0u);
    EXPECT_EQ(m.type, 7);
    EXPECT_EQ(m.body<int>(), 41);
    ++got;
  });
  Message msg;
  msg.type = 7;
  msg.payload = 41;
  transport.send(0, 1, std::move(msg), 0, [&](bool result) { ok = result; });
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(transport.sends(), 1u);
  EXPECT_EQ(transport.retransmits(), 0u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
  EXPECT_EQ(transport.duplicates_suppressed(), 0u);
}

TEST_F(TransportFixture, NoChaosTimingMatchesRawSend) {
  // The bit-identity contract that let the RM migrate with transport on
  // by default: with jitter enabled and no chaos, a transport send acks
  // at exactly the time the raw send would (header_bytes defaults to 0,
  // no retransmit timers, no extra rng draws).
  LinkModel jittery;  // default jitter_frac > 0
  auto run_raw = [&] {
    sim::Engine world;
    Network net(world, 2, jittery, Rng(1));
    SimTime done = 0;
    net.send(0, 1, Message{.type = 7}, 0, [&](bool) { done = world.now(); });
    world.run();
    return done;
  };
  auto run_transport = [&] {
    sim::Engine world;
    Network net(world, 2, jittery, Rng(1));
    ReliableTransport transport(net, Rng(9));
    SimTime done = 0;
    transport.send(0, 1, Message{.type = 7}, 0,
                   [&](bool) { done = world.now(); });
    world.run();
    return done;
  };
  EXPECT_EQ(run_raw(), run_transport());
}

TEST_F(TransportFixture, RetriesUntilAFlakyPeerComesBack) {
  Network net = make(2);
  std::vector<bool> up{true, false};
  net.set_liveness([&](NodeId id) { return up[id]; });
  ReliableTransport transport(net, Rng(9), exact_options());
  engine.schedule_at(seconds(2), [&] { up[1] = true; });
  int got = 0;
  bool ok = false;
  transport.register_handler(1, 7, [&](const Message&) { ++got; });
  transport.send(0, 1, Message{.type = 7}, seconds(1),
                 [&](bool result) { ok = result; });
  engine.run();
  // Attempt 1 at t=0 fails at 1.0; attempt 2 at 1.5 fails at 2.5 (the
  // node was still down when the frame arrived); attempt 3 at 3.5 lands.
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(transport.retransmits(), 2u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
}

TEST_F(TransportFixture, PermanentFailureAfterRetryCapAtWorstCaseTime) {
  Network net = make(2);
  net.set_liveness([](NodeId id) { return id != 1; });
  TransportOptions opts = exact_options();
  opts.max_retries = 2;
  ReliableTransport transport(net, Rng(9), opts);
  bool ok = true;
  SimTime completed_at = 0;
  transport.send(0, 1, Message{.type = 7}, seconds(1), [&](bool result) {
    ok = result;
    completed_at = engine.now();
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(transport.retransmits(), 2u);
  EXPECT_EQ(transport.permanent_failures(), 1u);
  // 3 attempts x 1s timeout + backoffs 0.5s + 1.0s = 4.5s, which is
  // exactly what worst_case_send_time promises watchdog layers.
  EXPECT_EQ(completed_at, worst_case_send_time(opts, seconds(1)));
}

TEST_F(TransportFixture, WorstCaseSendTimeBoundsTheSchedule) {
  TransportOptions opts;  // jittered defaults
  const SimTime worst = worst_case_send_time(opts, seconds(1));
  EXPECT_GE(worst, seconds(1) * (opts.max_retries + 1));
  TransportOptions more = opts;
  more.max_retries = opts.max_retries + 3;
  EXPECT_GT(worst_case_send_time(more, seconds(1)), worst);
}

TEST_F(TransportFixture, DedupSuppressesChaosDuplicates) {
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  transport.register_handler(1, 7, [&](const Message&) { ++got; });
  for (int i = 0; i < 3; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  // Every frame reached the receiver twice; the handler saw each once.
  EXPECT_EQ(got, 3);
  EXPECT_EQ(transport.duplicates_suppressed(), 3u);
}

TEST_F(TransportFixture, ExactlyOnceProcessingUnderHeavyLoss) {
  // 50% drop on every leg: messages are lost, acks are lost (so frames
  // the receiver already processed get retransmitted), yet each logical
  // send must be processed exactly once and eventually succeed.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.5);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  TransportOptions opts;
  // An attempt fails when its message leg or its ack leg is dropped
  // (p = 0.75 here); 40 retries push permanent-failure odds below 1e-5.
  opts.max_retries = 40;
  ReliableTransport transport(net, Rng(9), opts);
  constexpr int kMessages = 50;
  std::map<int, int> seen;
  int completions = 0;
  transport.register_handler(1, 7,
                             [&](const Message& m) { ++seen[m.body<int>()]; });
  for (int i = 0; i < kMessages; ++i) {
    Message msg;
    msg.type = 7;
    msg.payload = i;
    transport.send(0, 1, std::move(msg), seconds(1), [&](bool ok) {
      EXPECT_TRUE(ok);
      ++completions;
    });
  }
  engine.run();
  EXPECT_EQ(completions, kMessages);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [id, count] : seen)
    EXPECT_EQ(count, 1) << "message " << id << " processed " << count << "x";
  EXPECT_GT(transport.retransmits(), 0u);
  // A retransmit after a lost ack re-delivers a processed frame; at 50%
  // loss over 50 messages that case occurs and must be suppressed.
  EXPECT_GT(transport.duplicates_suppressed(), 0u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
}

TEST_F(TransportFixture, ChannelsKeepIndependentSequenceSpaces) {
  // Same seq numbers flow on (0->1, type 7), (0->1, type 8) and
  // (2->1, type 7); the per-channel dedup windows must not cross-talk.
  Network net = make(3);
  ReliableTransport transport(net, Rng(9));
  int type7 = 0, type8 = 0;
  transport.register_handler(1, 7, [&](const Message&) { ++type7; });
  transport.register_handler(1, 8, [&](const Message&) { ++type8; });
  for (int i = 0; i < 4; ++i) {
    transport.send(0, 1, Message{.type = 7});
    transport.send(0, 1, Message{.type = 8});
    transport.send(2, 1, Message{.type = 7});
  }
  engine.run();
  EXPECT_EQ(type7, 8);  // 4 from node 0 + 4 from node 2
  EXPECT_EQ(type8, 4);
  EXPECT_EQ(transport.duplicates_suppressed(), 0u);
}

TEST_F(TransportFixture, DedupWindowWrapIsCountedAndReprocessed) {
  // The exactly-once guarantee is bounded by the dedup window.  A frame
  // delayed long enough that > dedup_window newer frames passed it (a
  // long partition releasing a stale retransmit) arrives after its seq
  // was evicted: the receiver cannot distinguish it from a fresh frame,
  // so it IS re-processed -- and the wrap counter must record that the
  // guarantee boundary was crossed instead of staying silent.
  Network net = make(2);
  TransportOptions opts = exact_options();
  opts.dedup_window = 2;
  ReliableTransport transport(net, Rng(9), opts);
  int got = 0;
  transport.register_handler(1, 7, [&](const Message&) { ++got; });

  // Three sends on one channel: seqs 0,1,2; the window holds {1,2} and
  // seq 0 has been evicted (evicted_max = 0).
  for (int i = 0; i < 3; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  ASSERT_EQ(got, 3);
  EXPECT_EQ(transport.dedup_window_wraps(), 0u);

  // A late duplicate of seq 2 is still inside the window: suppressed,
  // not a wrap.
  auto forge = [&](std::uint64_t seq) {
    Message frame;
    frame.type = 7;
    frame.seq = seq;
    net.send(0, 1, std::move(frame));
  };
  forge(2);
  engine.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(transport.duplicates_suppressed(), 1u);
  EXPECT_EQ(transport.dedup_window_wraps(), 0u);

  // A late duplicate of the evicted seq 0 wraps: the handler fires a 4th
  // time for 3 logical sends, and the counter exposes the violation.
  forge(0);
  engine.run();
  EXPECT_EQ(got, 4);
  EXPECT_EQ(transport.dedup_window_wraps(), 1u);
  EXPECT_EQ(transport.duplicates_suppressed(), 1u);
}

TEST(DedupWindowTest, MatchesReferenceModelOnMessyStreams) {
  for (const std::size_t capacity : {0u, 1u, 2u, 128u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed * 7919 + capacity);
      DedupWindow window;
      ReferenceWindow reference;
      const auto stream = messy_seq_stream(rng, capacity, 4000);
      std::map<Verdict, int> verdicts;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const Verdict expected = reference.admit(stream[i], capacity);
        ASSERT_EQ(window.admit(stream[i], capacity), expected)
            << "capacity " << capacity << " seed " << seed << " frame " << i
            << " seq " << stream[i];
        ASSERT_EQ(window.size(), reference.size());
        ++verdicts[expected];
      }
      // The stream exercised every decision the window can make (a
      // zero-capacity window remembers nothing, so never suppresses).
      EXPECT_GT(verdicts[Verdict::kDeliver], 0);
      EXPECT_GT(verdicts[Verdict::kWrapped], 0);
      if (capacity > 0) {
        EXPECT_GT(verdicts[Verdict::kDuplicate], 0);
      }
    }
  }
}

TEST_F(TransportFixture, ForgedMessyStreamsMatchReferenceCounters) {
  // The same comparison through the transport's receive path: frames
  // forged onto two senders' channels must be delivered, suppressed and
  // wrap-counted exactly as per-channel reference windows decide.
  Network net = make(3);
  TransportOptions opts = exact_options();
  opts.dedup_window = 4;
  ReliableTransport transport(net, Rng(9), opts);
  int got = 0;
  transport.register_handler(2, 7, [&](const Message&) { ++got; });
  Rng rng(77);
  ReferenceWindow reference[2];
  int delivered = 0, suppressed = 0, wrapped = 0;
  for (NodeId from = 0; from < 2; ++from) {
    for (const std::uint64_t seq : messy_seq_stream(rng, opts.dedup_window, 500)) {
      Message frame;
      frame.type = 7;
      frame.seq = seq;
      net.send(from, 2, std::move(frame));
      const Verdict verdict = reference[from].admit(seq, opts.dedup_window);
      if (verdict == Verdict::kDuplicate) ++suppressed;
      else ++delivered;
      if (verdict == Verdict::kWrapped) ++wrapped;
    }
    engine.run();  // the network preserves order on one link without jitter
  }
  EXPECT_EQ(got, delivered);
  EXPECT_EQ(transport.duplicates_suppressed(), static_cast<std::uint64_t>(suppressed));
  EXPECT_EQ(transport.dedup_window_wraps(), static_cast<std::uint64_t>(wrapped));
  EXPECT_EQ(transport.channels(), 2u);
}

TEST_F(TransportFixture, SenderAndReceiverShareOneChannelRecord) {
  Network net = make(2);
  ReliableTransport transport(net, Rng(9));
  transport.register_handler(1, 7, [](const Message&) {});
  transport.register_handler(0, 7, [](const Message&) {});
  for (int i = 0; i < 3; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  EXPECT_EQ(transport.channels(), 1u);  // 0->1 type 7, both ends
  transport.send(1, 0, Message{.type = 7});
  engine.run();
  EXPECT_EQ(transport.channels(), 2u);
}

TEST_F(TransportFixture, HeaderBytesChargeTheWireButNotTheHandler) {
  Network net = make(2);
  TransportOptions opts;
  opts.header_bytes = 24;
  ReliableTransport transport(net, Rng(9), opts);
  std::size_t seen_bytes = 0;
  int seen_payload = 0;
  transport.register_handler(1, 7, [&](const Message& m) {
    seen_bytes = m.bytes;
    seen_payload = m.body<int>();
  });
  Message msg;
  msg.type = 7;
  msg.bytes = 100;
  msg.payload = 5;
  transport.send(0, 1, std::move(msg));
  engine.run();
  EXPECT_EQ(seen_bytes, 100u);
  EXPECT_EQ(seen_payload, 5);
  EXPECT_EQ(net.total_bytes(), 124u);
}

TEST_F(TransportFixture, LargeWindowNeverWrapsUnderChaosDuplicates) {
  // With the default window (128) and duplicates that arrive promptly,
  // every duplicate lands while its seq is still remembered: suppression
  // fires, the wrap counter stays zero.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  transport.register_handler(1, 7, [&](const Message&) { ++got; });
  for (int i = 0; i < 200; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  EXPECT_EQ(got, 200);
  EXPECT_EQ(transport.duplicates_suppressed(), 200u);
  EXPECT_EQ(transport.dedup_window_wraps(), 0u);
}

TEST_F(TransportFixture, UnregisterStopsDelivery) {
  Network net = make(2);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  transport.register_handler(1, 7, [&](const Message&) { ++got; });
  transport.unregister_handler(1, 7);
  bool ok = false;
  transport.send(0, 1, Message{.type = 7}, 0, [&](bool result) { ok = result; });
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_TRUE(ok);  // unregistered types are dropped but still acked
}

TEST_F(TransportFixture, UnregisterHandlersDropsOneTypeOnEveryNode) {
  Network net = make(4);
  ReliableTransport transport(net, Rng(9));
  for (NodeId node = 1; node < 4; ++node) {
    transport.register_handler(node, 7, [](const Message&) {});
    transport.register_handler(node, 8, [](const Message&) {});
  }
  transport.unregister_handlers(7);
  for (NodeId node = 1; node < 4; ++node) {
    EXPECT_FALSE(net.has_handler(node, 7)) << node;
    EXPECT_TRUE(net.has_handler(node, 8)) << node;
  }
}

}  // namespace
}  // namespace eslurm::net
