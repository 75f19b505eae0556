// Shared scenario-runner for the benchmark harnesses.  Every bench
// regenerates one table or figure of the paper's evaluation (see
// DESIGN.md for the experiment index) and prints paper-style rows;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// All harnesses accept the same flags, parsed by bench::Harness:
//   --smoke              reduced sweep for CI (small cluster, few points)
//   --jobs N             run sweep points/replicas on N worker threads
//   --replicas N         seed replicas per sweep point (mean +/- stddev)
//                        (for both, N other than a whole number >= 1 exits 2)
//   --json OUT           write a BENCH_<name>.json artifact; OUT is the
//                        file path (when it ends in .json) or a directory
//   --telemetry-out FILE one trace+metrics artifact for the whole run,
//                        any --jobs: one lane per world, the same file
//                        for any N (a missing path exits 2)
//
// The BENCH JSON schema ("eslurm-bench-v2"):
//   { "schema": "eslurm-bench-v2", "bench": "<name>", "smoke": bool,
//     "jobs": N, "replicas": N,
//     "wall_seconds": s, "total_events": N,
//     "events_per_sec": N|null, "peak_rss_bytes": N,
//     "points": [ { "label": "...", "params": {"k": "v", ...},
//                   "metrics": {"m": {"mean","stddev","min","max","n"}},
//                   "replicas": [ {"m": value, ...}, ... ] } ],
//     "headline": ["m", ...],                              (optional)
//     "checks": [ {"name": "...", "point": "...",          (optional)
//                  "ok": bool, "observed": value}, ... ] }
// Per-replica raw values make cross-run bit-identity checkable with a
// plain diff; aggregate stats feed the perf-trajectory tooling.
//
// `headline` names the metrics that make up the bench's focused table
// and `checks` holds its acceptance bar, one entry per check() call;
// both are absent when the bench declares none, and readers that do not
// know them ignore them.  `tools/esprof` renders both for any bench.
//
// Exit status: Harness::finish() returns 1 when any check failed --
// including the artifact promises: a --json or --telemetry-out file that
// could not be written, or a --telemetry-out context that recorded no
// events and no metrics (no file is then left behind).  Every main ends
// with `return harness.finish();`, so the bench's exit status is its
// verdict.
//
// v2 (PR 5) adds the run-level performance envelope: every bench that
// drives sim::Engine worlds calls record_events() with each world's
// executed-event count (thread-safe; sweeps run on worker threads), and
// the artifact reports simulated events per wall-clock second plus the
// process's peak RSS -- the two axes the zero-allocation event core is
// measured on.  `events_per_sec` is null for benches with no simulated
// events (pure ML / trace-statistics benches).  `tools/esprof` diffs
// these fields across artifacts.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/generator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace eslurm::bench {

/// Banner printed by every harness.  Also switches stdout to line
/// buffering so long runs show progress when redirected to a file.
inline void banner(const std::string& id, const std::string& what) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Round-trip double formatting; non-finite values become null (JSON has
/// no NaN/Inf).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak resident-set size of this process, in bytes (0 when the platform
/// has no getrusage).  ru_maxrss is KiB on Linux, bytes on macOS.
inline std::uint64_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#elif defined(__unix__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

}  // namespace detail

/// Uniform flag parsing, result recording and acceptance checks for a
/// bench harness.  Construct at the top of main(), record every sweep
/// point (or whole run_sweep outcome) and check() each acceptance bar,
/// then end main with `return harness.finish();`, which writes the
/// artifacts and turns the checks into the exit status.
class Harness {
 public:
  Harness(std::string name, const std::string& paper_id,
          const std::string& what, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* flag) -> const char* {
        if (i + 1 < argc) return argv[++i];
        std::fprintf(stderr, "warning: %s requires an argument; ignored\n", flag);
        return nullptr;
      };
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg == "--jobs") {
        if (const char* v = value("--jobs")) jobs_ = positive_count("--jobs", v);
      } else if (arg == "--replicas") {
        if (const char* v = value("--replicas"))
          replicas_ = positive_count("--replicas", v);
      } else if (arg == "--json") {
        if (const char* v = value("--json")) json_out_ = v;
      } else if (arg == "--telemetry-out") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: --telemetry-out requires a path argument\n");
          std::exit(2);
        }
        telemetry_out_ = argv[++i];
        telemetry_.enable();
      } else {
        std::fprintf(stderr, "warning: unknown argument '%s' ignored\n",
                     arg.c_str());
      }
    }
    banner(paper_id, what);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const std::string& name() const { return name_; }
  bool smoke() const { return smoke_; }
  int jobs() const { return jobs_; }
  int replicas() const { return replicas_; }

  /// The run's telemetry context (--telemetry-out); nullptr when absent.
  /// Hand it to core::run_sweep (through sweep_spec()) or
  /// core::parallel_for, which give each world its own context and fold
  /// them in here; a bench that builds one world in main() may record
  /// into it directly.
  telemetry::Telemetry* telemetry() {
    return telemetry_out_.empty() ? nullptr : &telemetry_;
  }

  /// SweepSpec pre-filled with this run's --jobs/--replicas and the
  /// --telemetry-out context; add points and go.
  core::SweepSpec sweep_spec() {
    core::SweepSpec spec;
    spec.jobs = jobs_;
    spec.replicas = replicas_;
    spec.telemetry = telemetry();
    return spec;
  }

  /// Records run_sweep outcomes into the JSON artifact (appends).
  void record_sweep(const std::vector<core::PointOutcome>& outcomes) {
    points_.insert(points_.end(), outcomes.begin(), outcomes.end());
  }

  /// Accumulates executed simulated events into the run-level
  /// events-per-sec figure (schema v2).  Thread-safe: sweep workers call
  /// this from their own threads, once per finished world.
  void record_events(std::uint64_t executed) {
    total_events_.fetch_add(executed, std::memory_order_relaxed);
  }

  /// Records one standalone point (single replica, n = 1 aggregates) --
  /// for benches whose points are not Experiment sweeps.
  void record_point(std::string label,
                    std::vector<std::pair<std::string, std::string>> params,
                    core::MetricRow metrics) {
    core::PointOutcome outcome;
    outcome.point.label = std::move(label);
    outcome.point.params = std::move(params);
    outcome.aggregates.reserve(metrics.size());
    for (const auto& [metric_name, metric_value] : metrics)
      outcome.aggregates.emplace_back(metric_name,
                                      core::aggregate({metric_value}));
    outcome.replicas.push_back(std::move(metrics));
    points_.push_back(std::move(outcome));
  }

  /// Names the metrics that make up this bench's focused table
  /// (`headline` in the JSON artifact).
  void headline(std::vector<std::string> metrics) { headline_ = std::move(metrics); }

  /// Records one acceptance check: `name` held (`ok`) or not at `point`,
  /// with the value it was judged on.  Not thread-safe: call it from
  /// main(), not from sweep workers.
  void check(std::string point, std::string name, bool ok, double observed) {
    checks_.push_back({std::move(point), std::move(name), ok, observed});
  }

  /// Writes the artifacts, prints one line per failed check plus an
  /// "N/M checks ok" summary (when any check was recorded), and returns
  /// the exit status: 1 when any check failed, else 0.  A promised
  /// artifact that cannot be written or an empty --telemetry-out context
  /// is a failed check, and no file is left behind for either.
  [[nodiscard]] int finish() {
    std::size_t recorded = 0;
    if (telemetry()) {
      recorded = telemetry_.tracer.event_count() + telemetry_.metrics.size();
      check("run", "telemetry-out recorded events or metrics", recorded > 0,
            static_cast<double>(recorded));
    }
    if (!json_out_.empty())
      write_artifact("bench", json_path(),
                     [this](const std::string& path) { return write_json(path); });
    if (recorded > 0)
      write_artifact("telemetry", telemetry_out_, [this](const std::string& path) {
        return telemetry_.save(path);
      });

    std::size_t passed = 0;
    for (const Check& c : checks_) {
      if (c.ok) {
        ++passed;
        continue;
      }
      std::printf("check FAILED at %s: %s (observed %s)\n", c.point.c_str(),
                  c.name.c_str(), format_double(c.observed, 6).c_str());
    }
    if (!checks_.empty())
      std::printf("%zu/%zu checks ok\n", passed, checks_.size());
    return passed == checks_.size() ? 0 : 1;
  }

 private:
  struct Check {
    std::string point;
    std::string name;
    bool ok = false;
    double observed = 0.0;
  };

  /// The value of a count flag (--jobs, --replicas): a whole positive
  /// number, else the run stops with exit status 2 before any world runs.
  static int positive_count(const char* flag, const char* text) {
    const char* last = text + std::strlen(text);
    int count = 0;
    const auto [end, error] = std::from_chars(text, last, count);
    if (error != std::errc() || end != last || count < 1) {
      std::fprintf(stderr, "error: %s needs a whole positive number, got '%s'\n", flag,
                   text);
      std::exit(2);
    }
    return count;
  }

  /// --json OUT names the file when it ends in .json, else a directory.
  std::string json_path() const {
    namespace fs = std::filesystem;
    fs::path path(json_out_);
    std::error_code ec;
    if (path.extension() != ".json") {
      fs::create_directories(path, ec);
      path /= "BENCH_" + name_ + ".json";
    } else if (path.has_parent_path()) {
      fs::create_directories(path.parent_path(), ec);
    }
    return path.string();
  }

  /// Writes one artifact through `write(path)`.  A failed write is a
  /// failed check, and whatever part of a file it created is removed.
  template <typename Write>
  void write_artifact(const char* kind, const std::string& path, Write write) {
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (write(path)) {
      std::printf("%s: wrote %s\n", kind, path.c_str());
      return;
    }
    if (!existed) std::filesystem::remove(path, ec);
    std::fprintf(stderr, "%s: could not write %s\n", kind, path.c_str());
    check("run", std::string(kind) + " artifact written", false, 0.0);
  }

  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    using detail::json_escape;
    using detail::json_number;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const std::uint64_t events = total_events_.load(std::memory_order_relaxed);
    os << "{\n  \"schema\": \"eslurm-bench-v2\",\n  \"bench\": \""
       << json_escape(name_) << "\",\n  \"smoke\": " << (smoke_ ? "true" : "false")
       << ",\n  \"jobs\": " << jobs_ << ",\n  \"replicas\": " << replicas_
       << ",\n  \"wall_seconds\": " << json_number(wall)
       << ",\n  \"total_events\": " << events << ",\n  \"events_per_sec\": "
       << (events > 0 && wall > 0.0
               ? json_number(static_cast<double>(events) / wall)
               : "null")
       << ",\n  \"peak_rss_bytes\": " << detail::peak_rss_bytes()
       << ",\n  \"points\": [";
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const core::PointOutcome& point = points_[p];
      os << (p ? ",\n    {" : "\n    {");
      os << "\"label\": \"" << json_escape(point.point.label) << "\", \"params\": {";
      for (std::size_t k = 0; k < point.point.params.size(); ++k) {
        const auto& [key, v] = point.point.params[k];
        os << (k ? ", " : "") << '"' << json_escape(key) << "\": \""
           << json_escape(v) << '"';
      }
      os << "}, \"metrics\": {";
      for (std::size_t m = 0; m < point.aggregates.size(); ++m) {
        const auto& [metric_name, stats] = point.aggregates[m];
        os << (m ? ", " : "") << '"' << json_escape(metric_name)
           << "\": {\"mean\": " << json_number(stats.mean)
           << ", \"stddev\": " << json_number(stats.stddev)
           << ", \"min\": " << json_number(stats.min)
           << ", \"max\": " << json_number(stats.max) << ", \"n\": " << stats.n
           << '}';
      }
      os << "}, \"replicas\": [";
      for (std::size_t r = 0; r < point.replicas.size(); ++r) {
        os << (r ? ", {" : "{");
        for (std::size_t m = 0; m < point.replicas[r].size(); ++m) {
          const auto& [metric_name, metric_value] = point.replicas[r][m];
          os << (m ? ", " : "") << '"' << json_escape(metric_name)
             << "\": " << json_number(metric_value);
        }
        os << '}';
      }
      os << "]}";
    }
    os << "\n  ]";
    if (!headline_.empty()) {
      os << ",\n  \"headline\": [";
      for (std::size_t h = 0; h < headline_.size(); ++h)
        os << (h ? ", \"" : "\"") << json_escape(headline_[h]) << '"';
      os << ']';
    }
    if (!checks_.empty()) {
      os << ",\n  \"checks\": [";
      for (std::size_t c = 0; c < checks_.size(); ++c) {
        const Check& entry = checks_[c];
        os << (c ? ",\n    {" : "\n    {") << "\"name\": \""
           << json_escape(entry.name) << "\", \"point\": \""
           << json_escape(entry.point)
           << "\", \"ok\": " << (entry.ok ? "true" : "false")
           << ", \"observed\": " << json_number(entry.observed) << '}';
      }
      os << "\n  ]";
    }
    os << "\n}\n";
    os.close();
    return static_cast<bool>(os);
  }

  std::string name_;
  telemetry::Telemetry telemetry_;
  std::string telemetry_out_;
  bool smoke_ = false;
  int jobs_ = 1;
  int replicas_ = 1;
  std::string json_out_;
  std::vector<core::PointOutcome> points_;
  std::vector<std::string> headline_;
  std::vector<Check> checks_;
  std::atomic<std::uint64_t> total_events_{0};
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// Aggregate lookup on a sweep outcome (nullptr when absent).
inline const core::MetricStats* metric_stats(const core::PointOutcome& outcome,
                                             const std::string& name) {
  for (const auto& [metric_name, stats] : outcome.aggregates)
    if (metric_name == name) return &stats;
  return nullptr;
}

/// Mean of one metric across a point's replicas (0 when absent).
inline double metric_mean(const core::PointOutcome& outcome,
                          const std::string& name) {
  const core::MetricStats* stats = metric_stats(outcome, name);
  return stats ? stats->mean : 0.0;
}

/// "mean" or "mean +/- stddev" cell text, depending on replica count.
inline std::string format_stat(const core::MetricStats* stats, int precision = 3) {
  if (!stats) return "-";
  if (stats->n < 2) return format_double(stats->mean, precision);
  return format_double(stats->mean, precision) + " +/- " +
         format_double(stats->stddev, precision);
}

/// Workload with approximately `target_jobs` submissions over `duration`,
/// clamped to the cluster's width.
inline std::vector<sched::Job> workload_count_for(std::size_t nodes, SimTime duration,
                                                  std::size_t target_jobs,
                                                  trace::WorkloadProfile profile,
                                                  std::uint64_t seed = 0) {
  profile.max_nodes_per_job =
      std::min<int>(profile.max_nodes_per_job, static_cast<int>(nodes));
  if (seed) profile.seed = seed;
  trace::TraceGenerator generator(profile);
  return generator.generate_jobs(target_jobs, duration);
}

/// Workload sized for a cluster: job count scaled so the offered
/// *in-window* load (node-seconds that can land inside [0, duration],
/// divided by capacity) is roughly `load_factor`.  Job sizes are heavy
/// tailed, so the count is found by fixed-point iteration on the actual
/// generated trace rather than a small probe.
inline std::vector<sched::Job> workload_for(std::size_t nodes, SimTime duration,
                                            double load_factor,
                                            trace::WorkloadProfile profile,
                                            std::uint64_t seed = 0) {
  const double capacity = static_cast<double>(nodes) * to_seconds(duration);
  std::size_t target = 3000;
  std::vector<sched::Job> jobs;
  for (int iteration = 0; iteration < 4; ++iteration) {
    jobs = workload_count_for(nodes, duration, target, profile, seed);
    double node_seconds = 0.0;
    for (const auto& job : jobs) {
      const SimTime runnable = std::min(job.actual_runtime, duration - job.submit_time);
      node_seconds += static_cast<double>(job.nodes) * to_seconds(runnable);
    }
    const double realized = node_seconds / capacity;
    if (realized > 0.95 * load_factor && realized < 1.05 * load_factor) break;
    target = static_cast<std::size_t>(
        std::max(200.0, static_cast<double>(target) * load_factor /
                            std::max(realized, 1e-6)));
  }
  return jobs;
}

}  // namespace eslurm::bench
