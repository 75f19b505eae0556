// One benchmark world per process.
//
// Builds one named workload through the public core::Experiment API,
// runs it to its horizon on one thread, checks the outcome and prints one
// JSON object on stdout.  perfbench/run.py launches this program several
// times per benchmark run and aggregates the lines it prints.
//
//   perfbench_world --workload policy-48h --seed 7 [--trace-seed 4242] [--trace]
//                   [--preset tiny]
//   perfbench_world --layers     # counter-prefix -> layer map, as JSON
//
// Untraced, the only hook is an exec observer that folds the executed
// (time, seq) stream into an FNV-1a digest, as golden_sequence_test does,
// and reads the clock every kSliceEvents events, so that run.py can line
// up the same slice of the event stream across the worlds of one seed.
// Traced (--trace), the world also gets a telemetry context, and the same
// observer charges the host time between two consecutive events to the
// first layer, in kLayers order, whose registry instruments moved during
// the earlier event.  Events that move none are charged to
// sim.unattributed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "trace/generator.hpp"
#include "trace/workload.hpp"

using namespace eslurm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- layers ---------------------------------------------------------------

/// Attribution order: an event is charged to the first of these whose
/// instruments moved while it ran.
constexpr const char* kLayers[] = {"predict", "sched",     "ha",      "frontend", "comm",
                                   "rm",      "transport", "cluster", "net"};
constexpr int kLayerCount = static_cast<int>(std::size(kLayers));
constexpr int kUnattributed = kLayerCount;
/// Instruments of the event core itself; they say nothing about the layer.
constexpr int kEngine = -1;

/// Events per timed slice of the run: a few milliseconds of host time.
constexpr std::uint64_t kSliceEvents = 4096;

/// Registry name prefix (text before the first '.') -> layer index.
const std::map<std::string, int, std::less<>>& prefix_layers() {
  static const std::map<std::string, int, std::less<>> map = {
      {"predict", 0}, {"sched", 1},     {"recovery", 1}, {"ha", 2},
      {"frontend", 3}, {"comm", 4},     {"rm", 5},       {"transport", 6},
      {"cluster", 7}, {"net", 8},       {"sim", kEngine}};
  return map;
}

std::string_view prefix_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

// --- observer -------------------------------------------------------------

/// FNV-1a over the bytes of the values fed in.
struct Digest {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
};

class Observer {
 public:
  /// `registry` is null for an untraced world: digest only.
  explicit Observer(const telemetry::Registry* registry) : registry_(registry) {}

  static void on_event(void* ctx, SimTime time, std::uint64_t seq) {
    auto* self = static_cast<Observer*>(ctx);
    if (self->registry_) {
      const Clock::time_point now = Clock::now();
      if (self->open_) self->charge(now);
      self->open_ = true;
      self->start_ = now;
    }
    if (++self->slice_events_ == kSliceEvents) self->end_slice(Clock::now());
    self->digest.add(static_cast<std::uint64_t>(time));
    self->digest.add(seq);
  }

  /// Starts the first slice; call just before the run.
  void begin(Clock::time_point now) { slice_start_ = now; }

  /// Charges the last executed event and ends the last slice; call once
  /// the run has returned.
  void close(Clock::time_point now) {
    if (open_) charge(now);
    open_ = false;
    if (slice_events_) end_slice(now);
  }

  Digest digest;
  /// Host seconds of each kSliceEvents-event slice of the run, in order.
  std::vector<double> slice_s;
  double self_s[kLayerCount + 1] = {};
  std::uint64_t events[kLayerCount + 1] = {};
  std::set<std::string> unmapped;

 private:
  struct Probe {
    int kind;  // 0 counter, 1 gauge, 2 histogram (count)
    const void* instrument;
    int layer;
    double last;
    double read() const {
      switch (kind) {
        case 0: return static_cast<const telemetry::Counter*>(instrument)->value();
        case 1: return static_cast<const telemetry::Gauge*>(instrument)->value();
        default:
          return static_cast<double>(
              static_cast<const telemetry::Histogram*>(instrument)->count());
      }
    }
  };

  void charge(Clock::time_point now) {
    if (registry_->size() != probed_) refresh();
    int layer = kUnattributed;
    for (Probe& probe : probes_) {
      const double value = probe.read();
      if (value != probe.last) {
        probe.last = value;
        layer = std::min(layer, probe.layer);
      }
    }
    self_s[layer] += seconds_between(start_, now);
    ++events[layer];
  }

  void end_slice(Clock::time_point now) {
    slice_s.push_back(seconds_between(slice_start_, now));
    slice_start_ = now;
    slice_events_ = 0;
  }

  /// Re-lists the registry after an event created instruments.  Map nodes
  /// are stable, so pointers survive; a new instrument starts from 0 so
  /// that being created and bumped in one event counts as moving.
  void refresh() {
    std::map<const void*, double> last;
    for (const Probe& probe : probes_) last[probe.instrument] = probe.last;
    probes_.clear();
    auto add = [&](int kind, const std::string& name, const void* instrument) {
      const auto it = prefix_layers().find(prefix_of(name));
      if (it == prefix_layers().end()) {
        unmapped.insert(std::string(prefix_of(name)));
        return;
      }
      if (it->second == kEngine) return;
      const auto seen = last.find(instrument);
      probes_.push_back({kind, instrument, it->second,
                         seen == last.end() ? 0.0 : seen->second});
    };
    for (const auto& [name, c] : registry_->counters()) add(0, name, &c);
    for (const auto& [name, g] : registry_->gauges()) add(1, name, &g);
    for (const auto& [name, h] : registry_->histograms()) add(2, name, &h);
    probed_ = registry_->size();
  }

  const telemetry::Registry* registry_;
  std::vector<Probe> probes_;
  std::size_t probed_ = 0;
  bool open_ = false;
  Clock::time_point start_;
  std::uint64_t slice_events_ = 0;
  Clock::time_point slice_start_;
};

// --- workloads --------------------------------------------------------------

struct Workload {
  core::ExperimentConfig config;
  std::vector<sched::Job> jobs;
};

/// `target_jobs` jobs of `profile` over `duration`, capped at the cluster
/// width (bench_common.hpp's workload_count_for).
std::vector<sched::Job> jobs_by_count(std::size_t nodes, SimTime duration,
                                      std::size_t target_jobs,
                                      trace::WorkloadProfile profile,
                                      std::uint64_t seed) {
  profile.max_nodes_per_job =
      std::min<int>(profile.max_nodes_per_job, static_cast<int>(nodes));
  profile.seed = seed;
  trace::TraceGenerator generator(profile);
  return generator.generate_jobs(target_jobs, duration);
}

/// Job count found by fixed-point iteration so the in-window offered load
/// is about `load` (bench_common.hpp's workload_for).
std::vector<sched::Job> jobs_by_load(std::size_t nodes, SimTime duration, double load,
                                     const trace::WorkloadProfile& profile,
                                     std::uint64_t seed) {
  const double capacity = static_cast<double>(nodes) * to_seconds(duration);
  std::size_t target = 3000;
  std::vector<sched::Job> jobs;
  for (int iteration = 0; iteration < 4; ++iteration) {
    jobs = jobs_by_count(nodes, duration, target, profile, seed);
    double node_seconds = 0.0;
    for (const auto& job : jobs) {
      const SimTime runnable = std::min(job.actual_runtime, duration - job.submit_time);
      node_seconds += static_cast<double>(job.nodes) * to_seconds(runnable);
    }
    const double realized = node_seconds / capacity;
    if (realized > 0.95 * load && realized < 1.05 * load) break;
    target = static_cast<std::size_t>(std::max(
        200.0, static_cast<double>(target) * load / std::max(realized, 1e-6)));
  }
  return jobs;
}

/// Deep queue under the Fig. 10 ESLURM+policy arm: scheduling work.
Workload policy(std::uint64_t trace_seed, bool tiny) {
  Workload w;
  auto& c = w.config;
  c.rm = "eslurm";
  c.compute_nodes = tiny ? 256 : 512;
  c.satellite_count = 2;
  c.horizon = tiny ? hours(1) : hours(48);
  c.rm_config.use_runtime_estimation = true;
  c.rm_config.scheduler = "policy";
  c.rm_config.policy.enabled = true;
  c.rm_config.estimator.retrain_period = tiny ? minutes(20) : hours(4);
  c.enable_failures = true;
  c.failure_params.node_mtbf_hours = 400.0;
  c.failure_params.repair_mean_hours = 6.0;
  auto profile = trace::tianhe2a_profile();
  profile.qos_high_frac = 0.10;
  profile.qos_low_frac = 0.20;
  profile.account_count = 8;
  w.jobs = jobs_by_load(c.compute_nodes, c.horizon, 1.5, profile, trace_seed);
  return w;
}

/// Many-to-one RPCs from a million users, with chaos, HA and recovery.
Workload rpc(std::uint64_t trace_seed, bool tiny) {
  Workload w;
  auto& c = w.config;
  c.rm = "eslurm";
  c.compute_nodes = tiny ? 512 : 20480;
  c.satellite_count = std::max<std::size_t>(2, c.compute_nodes / 5000);
  c.horizon = minutes(5);
  c.frontend.clients.users = tiny ? 20'000 : 1'000'000;
  c.frontend.clients.session_cycle_mean = hours(1);
  c.chaos.drop_prob = 0.01;
  c.chaos.duplicate_prob = 0.01;
  c.rm_config.ha.enabled = true;
  c.enable_failures = true;
  c.failure_params.node_mtbf_hours = 2000.0;
  c.rm_config.recovery.enabled = true;
  // Background jobs keep the master scheduling and dispatching; short
  // runtimes let them finish inside the five-minute window.
  auto profile = trace::tianhe2a_profile();
  profile.runtime_median_minutes = 2.0;
  w.jobs = jobs_by_count(c.compute_nodes, c.horizon, tiny ? 30 : 300, profile, trace_seed);
  return w;
}

struct WorkloadSpec {
  const char* name;
  Workload (*make)(std::uint64_t trace_seed, bool tiny);
  std::uint64_t default_trace_seed;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"policy-48h", policy, 4242},
    {"rpc-1m", rpc, 5},
};

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(const std::string& workload, std::uint64_t seed, bool traced,
                std::uint64_t digest, const std::vector<std::string>& failures,
                const std::set<std::string>& unmapped,
                const std::vector<double>& slice_s,
                const std::vector<Metric>& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
              "\"digest\": \"%016llx\", \"failures\": [",
              workload.c_str(), static_cast<unsigned long long>(seed),
              traced ? "true" : "false", static_cast<unsigned long long>(digest));
  for (std::size_t i = 0; i < failures.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", failures[i].c_str());
  std::printf("], \"unmapped_prefixes\": [");
  std::size_t i = 0;
  for (const auto& prefix : unmapped) std::printf("%s\"%s\"", i++ ? ", " : "", prefix.c_str());
  std::printf("], \"slice_s\": [");
  for (i = 0; i < slice_s.size(); ++i) std::printf("%s%.9g", i ? ", " : "", slice_s[i]);
  std::printf("], \"metrics\": {");
  for (i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_world --workload policy-48h|rpc-1m "
               "--seed N [--trace-seed N] [--trace] [--preset full|tiny]\n"
               "       perfbench_world --layers\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t trace_seed = 0;  // 0: the workload's default
  bool traced = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace-seed" && i + 1 < argc) {
      trace_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--preset" && i + 1 < argc) {
      const std::string preset = argv[++i];
      if (preset != "full" && preset != "tiny") return usage();
      tiny = preset == "tiny";
    } else if (arg == "--layers") {
      std::printf("{\"order\": [");
      for (int l = 0; l < kLayerCount; ++l) std::printf("%s\"%s\"", l ? ", " : "", kLayers[l]);
      std::printf("], \"prefixes\": {");
      int k = 0;
      for (const auto& [prefix, layer] : prefix_layers())
        std::printf("%s\"%s\": \"%s\"", k++ ? ", " : "", prefix.c_str(),
                    layer == kEngine ? "engine" : kLayers[layer]);
      std::printf("}}\n");
      return 0;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads)
    if (name == candidate.name) spec = &candidate;
  if (!spec || !have_seed) return usage();
  if (!trace_seed) trace_seed = spec->default_trace_seed;

  // --- set-up: trace, world, submissions --------------------------------
  telemetry::Telemetry telemetry;
  if (traced) telemetry.enable(0);  // registry on, span recording off
  const auto t_trace = Clock::now();
  Workload workload = spec->make(trace_seed, tiny);
  workload.config.seed = seed;
  workload.config.telemetry = traced ? &telemetry : nullptr;
  const auto t_build = Clock::now();
  core::Experiment experiment(workload.config);
  const auto t_submit = Clock::now();
  experiment.submit_trace(workload.jobs);
  const auto t_run = Clock::now();

  // --- run ----------------------------------------------------------------
  Observer observer(traced ? &telemetry.metrics : nullptr);
  sim::Engine& engine = experiment.engine();
  engine.set_exec_observer(&Observer::on_event, &observer);
  observer.begin(Clock::now());
  experiment.run();
  const auto t_done = Clock::now();
  observer.close(t_done);
  engine.set_exec_observer(nullptr, nullptr);
  const double run_s = seconds_between(t_run, t_done);
  const SimTime horizon = workload.config.horizon;

  // --- modelled outcomes ----------------------------------------------------
  rm::ResourceManager& manager = experiment.manager();
  const sched::SchedulingReport report = experiment.report();
  const frontend::FrontEnd* fe = experiment.frontend();
  std::vector<Metric> sim_metrics = {
      {"sim_jobs_finished", static_cast<double>(report.jobs_finished), "jobs"},
      {"sim_utilization", report.system_utilization, "fraction"},
      {"sim_wait_mean_s", report.avg_wait_seconds, "sim_s"},
      {"sim_bsld_mean", report.avg_bounded_slowdown, "ratio"},
      {"sim_launch_ms_mean", manager.launch_broadcast_seconds().mean() * 1e3, "sim_ms"},
      {"sim_master_cpu_min", manager.master_stats().cpu_seconds() / 60.0, "sim_min"},
  };
  // Front-end outcomes; 0 on worlds without one.
  const Histogram* latency = fe ? &fe->clients().latency_histogram() : nullptr;
  sim_metrics.push_back({"sim_req_p50_s", latency ? latency->p50() : 0.0, "sim_s"});
  sim_metrics.push_back({"sim_req_p99_s", latency ? latency->p99() : 0.0, "sim_s"});
  sim_metrics.push_back(
      {"sim_req_failed_frac", fe ? fe->clients().failure_rate() : 0.0, "fraction"});
  for (const Metric& m : sim_metrics) observer.digest.add(m.value);

  // --- correctness gate ---------------------------------------------------
  std::vector<std::string> failures;
  const sched::JobPool& pool = manager.pool();
  const std::size_t submitted = static_cast<std::size_t>(std::count_if(
      workload.jobs.begin(), workload.jobs.end(),
      [&](const sched::Job& job) { return job.submit_time <= horizon; }));
  if (pool.pending().size() + pool.active().size() + pool.held().size() +
          pool.finished().size() != submitted)
    failures.push_back("job conservation: pending+active+held+finished != submitted");
  std::vector<char> owner(workload.config.compute_nodes + 64, 0);
  std::size_t allocated = 0;
  bool overlap = false;
  for (const sched::JobId id : pool.active()) {
    for (const auto node : manager.job_nodes(id)) {
      if (node >= owner.size()) owner.resize(node + 1, 0);
      if (owner[node]++) overlap = true;
      ++allocated;
    }
  }
  if (overlap) failures.push_back("node allocated to two active jobs");
  if (allocated != static_cast<std::size_t>(pool.nodes_in_use()))
    failures.push_back("active job nodes != pool nodes_in_use");
  if (engine.now() != horizon) failures.push_back("world stopped before its horizon");

  // --- host metrics -------------------------------------------------------
  const double trace_s = seconds_between(t_trace, t_build);
  const double build_s = seconds_between(t_build, t_submit);
  const double submit_s = seconds_between(t_submit, t_run);
  const double events = static_cast<double>(engine.executed_events());
  const net::Network& network = experiment.network();
  std::vector<Metric> metrics = {
      {"setup_s", trace_s + build_s + submit_s, "s"},
      {"run_s", run_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  metrics.insert(metrics.end(), sim_metrics.begin(), sim_metrics.end());
  const std::vector<Metric> layer_common = {
      {"trace.generate_s", trace_s, "s"},
      {"core.build_s", build_s, "s"},
      {"core.submit_s", submit_s, "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events, run_s), "1/s"},
      {"sim.pool_hwm", static_cast<double>(engine.event_pool_capacity()), "count"},
      {"sim.heap_fallbacks", static_cast<double>(engine.heap_fallback_events()), "count"},
      {"sim.queue_compactions", static_cast<double>(engine.compactions()), "count"},
      {"net.messages", static_cast<double>(network.total_messages()), "count"},
      {"net.bytes", static_cast<double>(network.total_bytes()), "bytes"},
      {"net.failed_sends", static_cast<double>(network.failed_sends()), "count"},
      {"frontend.cache_hit_ratio", fe ? fe->gateway().cache_hit_ratio() : 0.0, "fraction"},
  };
  metrics.insert(metrics.end(), layer_common.begin(), layer_common.end());

  if (traced) {
    // Sum over every label set of one counter ("name" and "name{...}").
    auto counter = [&](std::string_view key) {
      double sum = 0.0;
      for (const auto& [full, c] : telemetry.metrics.counters())
        if (full.starts_with(key) &&
            (full.size() == key.size() || full[key.size()] == '{'))
          sum += c.value();
      return sum;
    };
    double attributed = 0.0;
    for (int l = 0; l < kLayerCount; ++l) {
      metrics.push_back({std::string(kLayers[l]) + ".self_s", observer.self_s[l], "s"});
      metrics.push_back({std::string(kLayers[l]) + ".events",
                         static_cast<double>(observer.events[l]), "count"});
      attributed += observer.self_s[l];
    }
    const double sends = counter("transport.sends");
    const double retransmits = counter("transport.retransmits");
    const double cycles = counter("sched.cycles");
    const double retrains = counter("predict.retrains");
    const std::vector<Metric> traced_metrics = {
        {"sim.unattributed_s", observer.self_s[kUnattributed], "s"},
        {"core.attributed_frac", ratio(attributed, run_s), "fraction"},
        {"transport.sends", sends, "count"},
        {"transport.retransmits", retransmits, "count"},
        {"transport.useful_frac", ratio(sends, sends + retransmits), "fraction"},
        {"transport.duplicates_suppressed", counter("transport.duplicates_suppressed"), "count"},
        {"comm.broadcasts", counter("comm.broadcasts"), "count"},
        {"comm.repairs", counter("comm.repairs"), "count"},
        {"comm.fp_rebuilds", counter("comm.fp_rebuilds"), "count"},
        {"cluster.failures_injected", counter("cluster.failures_injected"), "count"},
        {"rm.dispatches", counter("rm.dispatches"), "count"},
        {"rm.jobs_started", counter("rm.jobs_started"), "count"},
        {"rm.subtask_reallocations", counter("rm.subtask_reallocations"), "count"},
        {"sched.cycles", cycles, "count"},
        {"sched.ms_per_cycle", ratio(observer.self_s[1] * 1e3, cycles), "ms"},
        {"sched.backfill_decisions", counter("sched.backfill_decisions"), "count"},
        {"sched.recovery_retries", counter("recovery.retries"), "count"},
        {"predict.retrains", retrains, "count"},
        {"predict.ms_per_retrain", ratio(observer.self_s[0] * 1e3, retrains), "ms"},
        {"ha.wal_records", counter("ha.wal.records"), "count"},
        {"ha.wal_bytes", counter("ha.wal.bytes"), "bytes"},
        {"ha.wal_batches", counter("ha.wal.batches"), "count"},
        {"frontend.served", counter("frontend.served"), "count"},
        {"frontend.failed", counter("frontend.failed"), "count"},
    };
    metrics.insert(metrics.end(), traced_metrics.begin(), traced_metrics.end());
    // Instruments created after the run's last event still need a layer.
    auto check = [&](const auto& instruments) {
      for (const auto& entry : instruments)
        if (!prefix_layers().count(prefix_of(entry.first)))
          observer.unmapped.insert(std::string(prefix_of(entry.first)));
    };
    check(telemetry.metrics.counters());
    check(telemetry.metrics.gauges());
    check(telemetry.metrics.histograms());
  }

  if (fe) {
    // Requests in flight at the horizon, and requests that think-time
    // timers armed before it start after it, resolve within the clients'
    // give-up window.  After every figure above was taken, drain until
    // each issued request is resolved; one still open 10 min past the
    // horizon was lost.
    for (SimTime t = horizon; fe->clients().started() != fe->clients().completed() &&
                              t < horizon + minutes(10);) {
      t += seconds(10);
      engine.run_until(t);
    }
    if (fe->clients().started() != fe->clients().completed())
      failures.push_back("front-end requests neither completed nor failed");
    if (fe->clients().failed() > fe->clients().completed())
      failures.push_back("front-end failed more requests than it resolved");
  }

  print_json(name, seed, traced, observer.digest.hash, failures, observer.unmapped,
             observer.slice_s, metrics);
  // Tearing the world down takes long and measures nothing.
  std::fflush(stdout);
  std::_Exit(0);
}
