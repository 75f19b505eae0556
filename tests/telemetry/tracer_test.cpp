#include "telemetry/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::telemetry {
namespace {

/// Manually advanced clock standing in for sim::Engine.
struct FakeClock {
  SimTime now = 0;
  void install(Tracer& tracer) {
    tracer.set_clock([this] { return now; }, this);
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.instant("x", "test");
  tracer.complete("y", "test", 0, seconds(1));
  tracer.counter_sample("z", 1.0);
  { auto span = tracer.span("s", "test"); }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RecordsInstantAndCompleteWithSimTimestamps) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  clock.now = seconds(3);
  tracer.instant("mark", "test", {{"node", 7.0}});
  tracer.complete("work", "test", seconds(1), seconds(2));
  ASSERT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.events()[0].ph, 'i');
  EXPECT_EQ(tracer.events()[0].ts, seconds(3));
  EXPECT_EQ(tracer.events()[1].ph, 'X');
  EXPECT_EQ(tracer.events()[1].ts, seconds(1));
  EXPECT_EQ(tracer.events()[1].dur, seconds(2));
}

TEST(Tracer, SpansNestAndCoverConstructionToDestruction) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  {
    auto outer = tracer.span("outer", "test");
    clock.now = seconds(1);
    {
      auto inner = tracer.span("inner", "test");
      clock.now = seconds(4);
    }
    clock.now = seconds(10);
  }
  // Inner finishes first (RAII order), so it is recorded first.
  ASSERT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.events()[0].name, "inner");
  EXPECT_EQ(tracer.events()[0].ts, seconds(1));
  EXPECT_EQ(tracer.events()[0].dur, seconds(3));
  EXPECT_EQ(tracer.events()[1].name, "outer");
  EXPECT_EQ(tracer.events()[1].ts, 0);
  EXPECT_EQ(tracer.events()[1].dur, seconds(10));
  // The inner span lies entirely within the outer one.
  EXPECT_GE(tracer.events()[0].ts, tracer.events()[1].ts);
  EXPECT_LE(tracer.events()[0].ts + tracer.events()[0].dur,
            tracer.events()[1].ts + tracer.events()[1].dur);
}

TEST(Tracer, SpanFinishIsIdempotentAndMoveSafe) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  auto span = tracer.span("s", "test");
  clock.now = seconds(2);
  auto moved = std::move(span);
  moved.finish();
  moved.finish();  // no double record
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.events()[0].dur, seconds(2));
}

TEST(Tracer, ClockOwnerRetractsOnlyItsOwnRegistration) {
  Tracer tracer;
  FakeClock first, second;
  first.now = seconds(1);
  second.now = seconds(2);
  first.install(tracer);
  second.install(tracer);  // newest wins
  EXPECT_EQ(tracer.now(), seconds(2));
  tracer.clear_clock(&first);  // stale owner: no effect
  EXPECT_EQ(tracer.now(), seconds(2));
  tracer.clear_clock(&second);
  EXPECT_EQ(tracer.now(), 0);
}

TEST(Tracer, DropsEventsAtTheCap) {
  Tracer tracer;
  tracer.enable(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) tracer.instant("e", "test");
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

TEST(Tracer, ChromeTraceJsonParsesBack) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  clock.now = milliseconds(1500);
  tracer.instant("mark \"quoted\"", "cat", {{"v", 1.5}});
  tracer.complete("span", "cat", milliseconds(500), milliseconds(1000));
  tracer.counter_sample("depth", 42.0);

  Registry metrics;
  metrics.counter("events").inc(3);

  std::string error;
  const auto doc = parse_json(tracer.to_chrome_trace(&metrics), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 3u);

  const JsonValue& instant = events->items()[0];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("name")->as_string(), "mark \"quoted\"");
  // SimTime is nanoseconds; Chrome trace ts is microseconds.
  EXPECT_DOUBLE_EQ(instant.find("ts")->as_number(), 1500e3);
  EXPECT_DOUBLE_EQ(instant.find("args")->find("v")->as_number(), 1.5);

  const JsonValue& complete = events->items()[1];
  EXPECT_EQ(complete.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(complete.find("ts")->as_number(), 500e3);
  EXPECT_DOUBLE_EQ(complete.find("dur")->as_number(), 1000e3);

  const JsonValue& counter = events->items()[2];
  EXPECT_EQ(counter.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("value")->as_number(), 42.0);

  // Embedded metrics snapshot rides along for esprof.
  EXPECT_DOUBLE_EQ(doc->find("metrics")->find("counters")->find("events")->as_number(),
                   3.0);
}

TEST(Telemetry, FoldKeepsWhatOneSharedContextWouldUnderTheCap) {
  // Three worlds, recorded once into one shared context with a cap of 4
  // events and once each into its own context with that cap, folded in
  // order: the same events survive and the same number is dropped.
  const std::vector<int> world_events = {3, 5, 2};
  Telemetry shared;
  shared.enable(4);
  Telemetry folded;
  folded.enable(4);
  for (std::size_t w = 0; w < world_events.size(); ++w) {
    const std::string id = std::to_string(w);
    Telemetry world;
    world.enable(folded.tracer.capacity());
    for (Telemetry* t : {&shared, &world}) {
      for (int e = 0; e < world_events[w]; ++e)
        t->tracer.instant("w" + id + "e" + std::to_string(e), "test");
      t->metrics.counter("events").inc(world_events[w]);
      t->metrics.gauge("last").set(static_cast<double>(w));
    }
    folded.fold(std::move(world), "world " + id);
  }
  ASSERT_EQ(folded.tracer.event_count(), shared.tracer.event_count());
  EXPECT_EQ(folded.tracer.dropped_events(), 6u);
  EXPECT_EQ(folded.tracer.dropped_events(), shared.tracer.dropped_events());
  for (std::size_t i = 0; i < shared.tracer.event_count(); ++i)
    EXPECT_EQ(folded.tracer.events()[i].name, shared.tracer.events()[i].name);
  EXPECT_EQ(folded.metrics.to_json(), shared.metrics.to_json());

  // Each world is one lane: its events carry the lane's tid, the lane
  // keeps the world's own snapshot, and the artifact names the lanes.
  ASSERT_EQ(folded.lanes().size(), 3u);
  EXPECT_EQ(folded.tracer.events()[0].tid, 1u);
  EXPECT_EQ(folded.tracer.events()[3].tid, 2u);
  EXPECT_EQ(folded.lanes()[1].name, "world 1");
  EXPECT_DOUBLE_EQ(folded.lanes()[1].metrics.counters().at("events").value(), 5.0);
  std::ostringstream os;
  folded.tracer.write_chrome_trace(os, &folded.metrics, folded.lanes());
  std::string error;
  const auto doc = parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue& meta = doc->find("traceEvents")->items()[2];
  EXPECT_EQ(meta.find("ph")->as_string(), "M");
  EXPECT_EQ(meta.find("name")->as_string(), "thread_name");
  EXPECT_DOUBLE_EQ(meta.find("tid")->as_number(), 3.0);
  EXPECT_EQ(meta.find("args")->find("name")->as_string(), "world 2");
  const JsonValue& lane = doc->find("lanes")->items()[2];
  EXPECT_DOUBLE_EQ(lane.find("tid")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(
      lane.find("metrics")->find("counters")->find("events")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc->find("droppedEvents")->as_number(), 6.0);
}

TEST(Telemetry, ContextEnableResetCycle) {
  Telemetry context;
  EXPECT_EQ(context.if_enabled(), nullptr);
  context.enable();
  ASSERT_NE(context.if_enabled(), nullptr);
  context.if_enabled()->metrics.counter("t").inc();
  context.if_enabled()->tracer.instant("e", "test");
  context.reset();
  EXPECT_EQ(context.if_enabled(), nullptr);
  EXPECT_TRUE(context.metrics.empty());
  EXPECT_EQ(context.tracer.event_count(), 0u);
}

TEST(Telemetry, ContextsAreIndependent) {
  Telemetry a, b;
  a.enable();
  b.enable();
  a.metrics.counter("hits").inc(3);
  b.metrics.counter("hits").inc(5);
  a.tracer.instant("only-a", "test");
  EXPECT_DOUBLE_EQ(a.metrics.counter("hits").value(), 3.0);
  EXPECT_DOUBLE_EQ(b.metrics.counter("hits").value(), 5.0);
  EXPECT_EQ(a.tracer.event_count(), 1u);
  EXPECT_EQ(b.tracer.event_count(), 0u);
}

}  // namespace
}  // namespace eslurm::telemetry
