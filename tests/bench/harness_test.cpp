// bench::Harness: a bench's checks decide its exit status, the JSON
// artifact carries them, and every artifact a flag promises is written
// non-empty or fails the run without leaving a file behind.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace eslurm::bench {
namespace {

namespace fs = std::filesystem;

/// Runs `body` on a Harness built from `args` (argv[0] is supplied).
template <typename Body>
auto with_harness(std::vector<std::string> args, Body body) {
  args.insert(args.begin(), "bench_unit");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  Harness harness("unit", "unit", "harness test", static_cast<int>(argv.size()),
                  argv.data());
  return body(harness);
}

/// A fresh, empty directory per test.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("eslurm_harness_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

telemetry::JsonValue load(const fs::path& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  auto document = telemetry::parse_json(text.str());
  EXPECT_TRUE(document.has_value()) << path;
  return document ? *document : telemetry::JsonValue();
}

TEST(HarnessTest, FailingCheckFailsFinishAndIsRecorded) {
  const fs::path out = scratch("failing") / "out.json";
  const int status = with_harness({"--json", out.string()}, [](Harness& h) {
    h.record_point("p", {{"k", "v"}}, {{"lost", 1.0}});
    h.check("p", "lost == 0", false, 1.0);
    h.check("p", "lost < 2", true, 1.0);
    return h.finish();
  });
  EXPECT_NE(status, 0);

  const telemetry::JsonValue doc = load(out);
  const telemetry::JsonValue* checks = doc.find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->items().size(), 2u);
  const telemetry::JsonValue& failed = checks->items()[0];
  EXPECT_EQ(failed.find("name")->as_string(), "lost == 0");
  EXPECT_EQ(failed.find("point")->as_string(), "p");
  EXPECT_FALSE(failed.find("ok")->as_bool());
  EXPECT_EQ(failed.find("observed")->as_number(), 1.0);
  EXPECT_TRUE(checks->items()[1].find("ok")->as_bool());
}

TEST(HarnessTest, PassingChecksFinishZeroWithHeadline) {
  const fs::path out = scratch("passing") / "out.json";
  const int status = with_harness({"--json", out.string()}, [](Harness& h) {
    h.record_point("p", {{"k", "v"}}, {{"lost", 0.0}, {"wait", 3.0}});
    h.check("p", "lost == 0", true, 0.0);
    h.headline({"lost", "wait"});
    return h.finish();
  });
  EXPECT_EQ(status, 0);

  const telemetry::JsonValue doc = load(out);
  const telemetry::JsonValue* headline = doc.find("headline");
  ASSERT_NE(headline, nullptr);
  ASSERT_EQ(headline->items().size(), 2u);
  EXPECT_EQ(headline->items()[1].as_string(), "wait");
}

TEST(HarnessTest, NoChecksNoKeys) {
  const fs::path out = scratch("bare") / "out.json";
  const int status = with_harness({"--json", out.string()}, [](Harness& h) {
    h.record_point("p", {{"k", "v"}}, {{"m", 1.0}});
    return h.finish();
  });
  EXPECT_EQ(status, 0);
  const telemetry::JsonValue doc = load(out);
  EXPECT_EQ(doc.find("headline"), nullptr);
  EXPECT_EQ(doc.find("checks"), nullptr);
}

TEST(HarnessTest, UnwritableJsonPathFails) {
  // A regular file where a parent directory should be: no build user,
  // root included, can create the artifact below it.
  const fs::path dir = scratch("unwritable_json");
  std::ofstream(dir / "blocker") << "x";
  const fs::path out = dir / "blocker" / "sub" / "out.json";
  const int status = with_harness({"--json", out.string()}, [](Harness& h) {
    h.record_point("p", {{"k", "v"}}, {{"m", 1.0}});
    return h.finish();
  });
  EXPECT_NE(status, 0);
  EXPECT_FALSE(fs::exists(out));
}

TEST(HarnessTest, EmptyTelemetryOutFailsAndWritesNothing) {
  const fs::path out = scratch("empty_telemetry") / "t.json";
  const int status = with_harness({"--telemetry-out", out.string()},
                                  [](Harness& h) { return h.finish(); });
  EXPECT_NE(status, 0);
  EXPECT_FALSE(fs::exists(out));
}

TEST(HarnessTest, RecordedTelemetryOutIsWritten) {
  const fs::path out = scratch("telemetry") / "t.json";
  const int status = with_harness({"--telemetry-out", out.string()}, [](Harness& h) {
    h.telemetry()->metrics.counter("unit.events").inc();
    return h.finish();
  });
  EXPECT_EQ(status, 0);
  const telemetry::JsonValue doc = load(out);
  const telemetry::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters")->find("unit.events"), nullptr);
}

TEST(HarnessTest, UnwritableTelemetryPathFails) {
  const fs::path dir = scratch("unwritable_telemetry");
  std::ofstream(dir / "blocker") << "x";
  const fs::path out = dir / "blocker" / "t.json";
  const int status = with_harness({"--telemetry-out", out.string()}, [](Harness& h) {
    h.telemetry()->metrics.counter("unit.events").inc();
    return h.finish();
  });
  EXPECT_NE(status, 0);
  EXPECT_FALSE(fs::exists(out));
}

TEST(HarnessTest, MalformedCountFlagsExitTwo) {
  for (const char* flag : {"--jobs", "--replicas"}) {
    for (const char* value : {"four", "0", "3x"}) {
      EXPECT_EXIT(with_harness({flag, value}, [](Harness& h) { return h.finish(); }),
                  ::testing::ExitedWithCode(2), "whole positive number")
          << flag << " " << value;
    }
  }
  EXPECT_EQ(with_harness({"--jobs", "3", "--replicas", "2"},
                         [](Harness& h) { return h.jobs() * 10 + h.replicas(); }),
            32);
}

TEST(HarnessTest, ParallelTelemetryOutIsWritten) {
  // --telemetry-out works with --jobs > 1: each task records into its own
  // context, and the artifact holds their sum plus one lane per task.
  const fs::path out = scratch("parallel_telemetry") / "t.json";
  const int status =
      with_harness({"--jobs", "2", "--telemetry-out", out.string()}, [](Harness& h) {
        core::parallel_for(3, h.jobs(), h.telemetry(),
                           [](std::size_t, telemetry::Telemetry* context) {
                             context->metrics.counter("unit.events").inc();
                           });
        return h.finish();
      });
  EXPECT_EQ(status, 0);
  const telemetry::JsonValue doc = load(out);
  EXPECT_DOUBLE_EQ(
      doc.find("metrics")->find("counters")->find("unit.events")->as_number(), 3.0);
  const telemetry::JsonValue* lanes = doc.find("lanes");
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->items().size(), 3u);
  EXPECT_EQ(lanes->items()[2].find("name")->as_string(), "task 2");
}

}  // namespace
}  // namespace eslurm::bench
