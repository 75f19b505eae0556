// esprof -- summarize telemetry artifacts written with --telemetry-out
// (Chrome trace-event JSON with an embedded metrics snapshot) into
// paper-style tables: span durations grouped by name, counter tracks,
// instant-event counts, and the metrics registry with percentiles.
//
//   esprof trace.json                 # full summary of one artifact; a
//                                     # sweep's artifact adds its lanes
//                                     # (one per world) side by side
//   esprof trace.json --spans         # span table only
//   esprof trace.json --metrics       # registry (and lanes) only
//   esprof trace.json --cat comm      # restrict events to one category
//   esprof a.json b.json              # merged comparison: one column per
//                                     # artifact, counters / gauges /
//                                     # histogram means side by side
//   esprof BENCH_engine.json          # bench artifact (--json) summary:
//                                     # run-level envelope, the bench's
//                                     # headline table and checks, and
//                                     # per-point metric means
//   esprof before/BENCH_engine.json after/BENCH_engine.json
//                                     # bench diff: run-level envelope
//                                     # (events/sec, wall, peak RSS),
//                                     # headline fields and per-point
//                                     # metric means side by side, with
//                                     # after/before ratios, then each
//                                     # artifact's check summary
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace eslurm;
using telemetry::JsonValue;

namespace {

struct SpanGroup {
  std::size_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

double member_number(const JsonValue& object, const char* key, double fallback = 0.0) {
  const JsonValue* v = object.find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

std::string member_string(const JsonValue& object, const char* key) {
  const JsonValue* v = object.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

void summarize_events(const JsonValue& events, const std::string& category_filter) {
  std::map<std::string, SpanGroup> spans;
  std::map<std::string, std::size_t> instants;
  std::map<std::string, std::pair<std::size_t, double>> counters;  // samples, last
  double t_min = 0.0, t_max = 0.0;
  bool any = false;

  for (const JsonValue& event : events.items()) {
    if (!event.is_object()) continue;
    const std::string cat = member_string(event, "cat");
    if (!category_filter.empty() && cat != category_filter) continue;
    const std::string name = member_string(event, "name");
    const std::string ph = member_string(event, "ph");
    if (ph == "M") continue;  // lane names carry no time
    const double ts = member_number(event, "ts");  // microseconds
    const double end = ts + member_number(event, "dur");
    if (!any || ts < t_min) t_min = ts;
    if (!any || end > t_max) t_max = end;
    any = true;
    if (ph == "X") {
      const double dur_ms = member_number(event, "dur") / 1e3;
      SpanGroup& group = spans[name];
      ++group.count;
      group.total_ms += dur_ms;
      group.max_ms = std::max(group.max_ms, dur_ms);
    } else if (ph == "i" || ph == "I") {
      ++instants[name];
    } else if (ph == "C") {
      auto& [samples, last] = counters[name];
      ++samples;
      if (const JsonValue* args = event.find("args"))
        last = member_number(*args, "value", last);
    }
  }

  if (any)
    std::printf("trace window: %.3f s of simulated time\n\n", (t_max - t_min) / 1e6);

  if (!spans.empty()) {
    std::printf("spans (ph=X)\n");
    Table table({"name", "count", "total (ms)", "mean (ms)", "max (ms)"});
    for (const auto& [name, group] : spans)
      table.add_row({name, std::to_string(group.count),
                     format_double(group.total_ms, 4),
                     format_double(group.total_ms / static_cast<double>(group.count), 4),
                     format_double(group.max_ms, 4)});
    table.print();
    std::printf("\n");
  }
  if (!counters.empty()) {
    std::printf("counter tracks (ph=C)\n");
    Table table({"name", "samples", "last value"});
    for (const auto& [name, entry] : counters)
      table.add_row({name, std::to_string(entry.first),
                     format_double(entry.second, 4)});
    table.print();
    std::printf("\n");
  }
  if (!instants.empty()) {
    std::printf("instant events (ph=i)\n");
    Table table({"name", "count"});
    for (const auto& [name, count] : instants)
      table.add_row({name, std::to_string(count)});
    table.print();
    std::printf("\n");
  }
}

void summarize_metrics(const JsonValue& metrics) {
  const JsonValue* counters = metrics.find("counters");
  if (counters && counters->is_object() && !counters->members().empty()) {
    std::printf("counters\n");
    Table table({"name", "value"});
    for (const auto& [name, value] : counters->members())
      table.add_row({name, format_double(value.as_number(), 6)});
    table.print();
    std::printf("\n");
  }
  const JsonValue* gauges = metrics.find("gauges");
  if (gauges && gauges->is_object() && !gauges->members().empty()) {
    std::printf("gauges\n");
    Table table({"name", "value"});
    for (const auto& [name, value] : gauges->members())
      table.add_row({name, format_double(value.as_number(), 6)});
    table.print();
    std::printf("\n");
  }
  const JsonValue* histograms = metrics.find("histograms");
  if (histograms && histograms->is_object() && !histograms->members().empty()) {
    std::printf("histograms\n");
    Table table({"name", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : histograms->members()) {
      const double count = member_number(h, "count");
      const double sum = member_number(h, "sum");
      table.add_row({name, format_double(count, 6),
                     format_double(count > 0 ? sum / count : 0.0, 4),
                     format_double(member_number(h, "p50"), 4),
                     format_double(member_number(h, "p95"), 4),
                     format_double(member_number(h, "p99"), 4),
                     format_double(member_number(h, "max"), 4)});
    }
    table.print();
    std::printf("\n");
  }
}

struct Artifact {
  std::string label;  ///< file stem, used as the column header
  JsonValue document;
};

std::optional<Artifact> load_artifact(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "esprof: cannot read '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  auto document = telemetry::parse_json(buffer.str(), &error);
  if (!document) {
    std::fprintf(stderr, "esprof: '%s' is not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  std::string label = std::filesystem::path(path).filename().string();
  // Strip the ".trace.json" / ".json" suffix for narrower columns.
  for (const char* suffix : {".trace.json", ".json"}) {
    if (label.size() > std::strlen(suffix) &&
        label.rfind(suffix) == label.size() - std::strlen(suffix)) {
      label.resize(label.size() - std::strlen(suffix));
      break;
    }
  }
  return Artifact{std::move(label), std::move(*document)};
}

/// The metrics snapshot of an artifact (combined or bare form).
const JsonValue* metrics_of(const JsonValue& document) {
  if (const JsonValue* metrics = document.find("metrics")) return metrics;
  if (document.find("counters")) return &document;
  return nullptr;
}

/// Side-by-side rows: a key and one value per column ("-" when absent).
using ColumnRows = std::vector<std::pair<std::string, std::vector<std::optional<double>>>>;

/// One row per key and one column per label, plus a last/first ratio
/// column when there are exactly two columns.
void print_columns(const char* heading, const char* key_header,
                   const std::vector<std::string>& labels, ColumnRows rows) {
  if (rows.empty()) return;
  const bool ratio = labels.size() == 2;
  std::vector<std::string> header{key_header};
  header.insert(header.end(), labels.begin(), labels.end());
  if (ratio) header.push_back("ratio");
  std::printf("%s\n", heading);
  Table table(header);
  for (auto& [key, values] : rows) {
    values.resize(labels.size());
    std::vector<std::string> cells{key};
    for (const auto& value : values)
      cells.push_back(value ? format_double(*value, 6) : "-");
    if (ratio)
      cells.push_back(values[0] && values[1] && *values[0] != 0.0
                          ? format_double(*values[1] / *values[0], 4)
                          : "-");
    table.add_row(std::move(cells));
  }
  table.print();
  std::printf("\n");
}

std::vector<std::string> labels_of(const std::vector<Artifact>& artifacts) {
  std::vector<std::string> labels;
  for (const Artifact& artifact : artifacts) labels.push_back(artifact.label);
  return labels;
}

/// One column per (label, metrics snapshot) and one table per metric
/// kind.  Rows are the union of the metric names, "-" where a column
/// lacks one, so worlds with divergent instrumentation still line up.
void compare_metrics(
    const std::vector<std::pair<std::string, const JsonValue*>>& columns) {
  std::vector<std::string> labels;
  for (const auto& column : columns) labels.push_back(column.first);
  auto collect = [&](const char* section,
                     const std::function<double(const JsonValue&)>& value_of) {
    std::map<std::string, std::vector<std::optional<double>>> rows;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const JsonValue* values = columns[c].second ? columns[c].second->find(section)
                                                  : nullptr;
      if (!values || !values->is_object()) continue;
      for (const auto& [name, value] : values->members()) {
        auto& row = rows[name];
        row.resize(columns.size());
        row[c] = value_of(value);
      }
    }
    return ColumnRows(rows.begin(), rows.end());
  };
  const auto number = [](const JsonValue& v) {
    return v.is_number() ? v.as_number() : 0.0;
  };
  print_columns("counters", "counter", labels, collect("counters", number));
  print_columns("gauges", "gauge", labels, collect("gauges", number));
  print_columns("histogram means", "histogram", labels,
                collect("histograms", [](const JsonValue& h) {
                  const double count = member_number(h, "count");
                  return count > 0 ? member_number(h, "sum") / count : 0.0;
                }));
}

/// The lanes of one artifact (one per world of a sweep), side by side.
void compare_lanes(const JsonValue& document) {
  const JsonValue* lanes = document.find("lanes");
  if (!lanes || !lanes->is_array() || lanes->items().empty()) return;
  std::vector<std::pair<std::string, const JsonValue*>> columns;
  for (const JsonValue& lane : lanes->items())
    columns.emplace_back(member_string(lane, "name"), lane.find("metrics"));
  std::printf("per lane (%zu worlds)\n\n", columns.size());
  compare_metrics(columns);
}

/// Merged mode: the artifacts' totals side by side.
void summarize_merged(const std::vector<Artifact>& artifacts) {
  std::printf("merged summary of %zu artifacts\n\n", artifacts.size());
  Table table({"artifact", "trace events"});
  std::vector<std::pair<std::string, const JsonValue*>> columns;
  for (const Artifact& artifact : artifacts) {
    const JsonValue* events = artifact.document.find("traceEvents");
    table.add_row({artifact.label, events && events->is_array()
                                       ? std::to_string(events->items().size())
                                       : "-"});
    columns.emplace_back(artifact.label, metrics_of(artifact.document));
  }
  table.print();
  std::printf("\n");
  compare_metrics(columns);
}

// --- bench artifacts (schema "eslurm-bench-v*", written by --json) ------

bool is_bench_artifact(const JsonValue& document) {
  const JsonValue* schema = document.find("schema");
  return schema && schema->is_string() &&
         schema->as_string().rfind("eslurm-bench", 0) == 0;
}

/// Run-level envelope fields, in display order.  events_per_sec may be
/// JSON null (benches with no simulated events), surfaced as "-".
constexpr const char* kBenchRunFields[] = {"wall_seconds", "total_events",
                                           "events_per_sec", "peak_rss_bytes"};

std::optional<double> bench_run_field(const JsonValue& document, const char* key) {
  const JsonValue* value = document.find(key);
  if (!value || !value->is_number()) return std::nullopt;
  return value->as_number();
}

/// Per-point metric means, keyed "label :: metric" so artifacts line up
/// across runs even when point order differs.
std::map<std::string, double> bench_point_means(const JsonValue& document) {
  std::map<std::string, double> out;
  const JsonValue* points = document.find("points");
  if (!points || !points->is_array()) return out;
  for (const JsonValue& point : points->items()) {
    if (!point.is_object()) continue;
    const std::string label = member_string(point, "label");
    const JsonValue* metrics = point.find("metrics");
    if (!metrics || !metrics->is_object()) continue;
    for (const auto& [name, stats] : metrics->members())
      out[label + " :: " + name] = member_number(stats, "mean");
  }
  return out;
}

// --- the bench's own headline and acceptance checks ----------------------
//
// A bench names its focused metrics in "headline" and records its
// acceptance bar in "checks" (bench/bench_common.hpp); artifacts written
// before either key existed simply skip these sections.

std::vector<std::string> bench_headline(const JsonValue& document) {
  std::vector<std::string> names;
  const JsonValue* headline = document.find("headline");
  if (!headline || !headline->is_array()) return names;
  for (const JsonValue& name : headline->items())
    if (name.is_string()) names.push_back(name.as_string());
  return names;
}

/// Mean of `field` at each point that reports it, in point order.
std::vector<std::pair<std::string, std::map<std::string, double>>> headline_points(
    const JsonValue& document, const std::vector<std::string>& fields) {
  std::vector<std::pair<std::string, std::map<std::string, double>>> out;
  const JsonValue* points = document.find("points");
  if (!points || !points->is_array()) return out;
  for (const JsonValue& point : points->items()) {
    const JsonValue* metrics = point.is_object() ? point.find("metrics") : nullptr;
    if (!metrics || !metrics->is_object()) continue;
    std::map<std::string, double> values;
    for (const std::string& field : fields)
      if (const JsonValue* stats = metrics->find(field))
        values[field] = member_number(*stats, "mean");
    out.emplace_back(member_string(point, "label"), std::move(values));
  }
  return out;
}

/// One line per failed check, then "N/M checks ok"; false when the
/// artifact records no checks.
bool print_checks(const JsonValue& document) {
  const JsonValue* checks = document.find("checks");
  if (!checks || !checks->is_array()) return false;
  std::size_t passed = 0;
  for (const JsonValue& check : checks->items()) {
    const JsonValue* ok = check.find("ok");
    if (ok && ok->is_bool() && ok->as_bool()) {
      ++passed;
      continue;
    }
    const JsonValue* observed = check.find("observed");
    std::printf("  check FAILED at %s: %s (observed %s)\n",
                member_string(check, "point").c_str(),
                member_string(check, "name").c_str(),
                observed && observed->is_number()
                    ? format_double(observed->as_number(), 6).c_str()
                    : "-");
  }
  std::printf("%zu/%zu checks ok\n\n", passed, checks->items().size());
  return true;
}

void summarize_headline(const JsonValue& document) {
  const std::vector<std::string> fields = bench_headline(document);
  if (!fields.empty()) {
    std::vector<std::string> header{"point"};
    header.insert(header.end(), fields.begin(), fields.end());
    Table table(header);
    for (const auto& [label, values] : headline_points(document, fields)) {
      std::vector<std::string> row{label};
      for (const std::string& field : fields) {
        const auto it = values.find(field);
        row.push_back(it != values.end() ? format_double(it->second, 6) : "-");
      }
      table.add_row(std::move(row));
    }
    std::printf("headline (per point)\n");
    table.print();
    std::printf("\n");
  }
  print_checks(document);
}

/// Diff counterpart: the union of the artifacts' headline fields side by
/// side per point (an artifact that declares none still shows its values
/// for the others' fields), then one check summary per artifact.
void diff_headline(const std::vector<Artifact>& artifacts) {
  std::vector<std::string> fields;
  for (const Artifact& artifact : artifacts)
    for (const std::string& field : bench_headline(artifact.document))
      if (std::find(fields.begin(), fields.end(), field) == fields.end())
        fields.push_back(field);

  // Rows in first-seen point order, so the table reads like the sweep.
  ColumnRows rows;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t a = 0; a < artifacts.size(); ++a) {
    for (const auto& [label, values] : headline_points(artifacts[a].document, fields)) {
      for (const std::string& field : fields) {
        const auto it = values.find(field);
        if (it == values.end()) continue;
        const auto [entry, inserted] =
            row_of.try_emplace(label + " :: " + field, rows.size());
        if (inserted) rows.emplace_back(entry->first, artifacts.size());
        rows[entry->second].second[a] = it->second;
      }
    }
  }
  print_columns("headline (per point)", "point :: field", labels_of(artifacts),
                std::move(rows));

  if (std::none_of(artifacts.begin(), artifacts.end(), [](const Artifact& artifact) {
        return artifact.document.find("checks") != nullptr;
      }))
    return;
  for (const Artifact& artifact : artifacts) {
    std::printf("%s checks:\n", artifact.label.c_str());
    if (!print_checks(artifact.document)) std::printf("none recorded\n\n");
  }
}

void summarize_bench(const Artifact& artifact) {
  const JsonValue& document = artifact.document;
  std::printf("bench artifact: %s (schema %s%s)\n\n",
              member_string(document, "bench").c_str(),
              member_string(document, "schema").c_str(),
              document.find("smoke") && document.find("smoke")->is_bool() &&
                      document.find("smoke")->as_bool()
                  ? ", smoke"
                  : "");
  Table run({"run-level", "value"});
  for (const char* field : kBenchRunFields) {
    const auto value = bench_run_field(document, field);
    run.add_row({field, value ? format_double(*value, 6) : "-"});
  }
  run.print();
  std::printf("\n");
  summarize_headline(document);
  const auto means = bench_point_means(document);
  if (means.empty()) return;
  std::printf("point metric means\n");
  Table table({"point :: metric", "mean"});
  for (const auto& [key, mean] : means)
    table.add_row({key, format_double(mean, 6)});
  table.print();
  std::printf("\n");
}

/// Diff mode: one column per artifact; with exactly two artifacts a
/// last/first ratio column makes before/after perf comparisons one read
/// (events_per_sec ratio > 1 means the second run is faster).
void diff_bench(const std::vector<Artifact>& artifacts) {
  std::printf("bench comparison of %zu artifacts:", artifacts.size());
  for (const Artifact& artifact : artifacts)
    std::printf(" %s", member_string(artifact.document, "bench").c_str());
  std::printf("\n\n");
  const std::vector<std::string> labels = labels_of(artifacts);

  ColumnRows run;
  for (const char* field : kBenchRunFields) {
    run.emplace_back(field, std::vector<std::optional<double>>{});
    for (const Artifact& artifact : artifacts)
      run.back().second.push_back(bench_run_field(artifact.document, field));
  }
  print_columns("run-level", "field", labels, std::move(run));

  diff_headline(artifacts);

  // Union of "label :: metric" rows across all artifacts.
  std::map<std::string, std::vector<std::optional<double>>> rows;
  for (std::size_t a = 0; a < artifacts.size(); ++a) {
    for (const auto& [key, mean] : bench_point_means(artifacts[a].document)) {
      auto& row = rows[key];
      row.resize(artifacts.size());
      row[a] = mean;
    }
  }
  print_columns("point metric means", "point :: metric", labels,
                ColumnRows(rows.begin(), rows.end()));
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("spans", "print only the trace-event summary");
  args.add_flag("metrics", "print only the metrics registry");
  args.add_option("cat", "restrict events to one category (comm, rm, sched...)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "esprof: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested() || args.positional().empty()) {
    std::fputs(args.usage("esprof <trace.json> [more.json ...]",
                          "Summarize one telemetry trace/metrics artifact, or "
                          "merge several into a side-by-side comparison.")
                   .c_str(),
               stdout);
    return args.help_requested() ? 0 : 2;
  }

  if (args.positional().size() > 1) {
    std::vector<Artifact> artifacts;
    std::size_t bench_count = 0;
    for (const std::string& artifact_path : args.positional()) {
      auto artifact = load_artifact(artifact_path);
      if (!artifact) return 1;
      if (is_bench_artifact(artifact->document)) ++bench_count;
      artifacts.push_back(std::move(*artifact));
    }
    if (bench_count == artifacts.size()) {
      diff_bench(artifacts);
      return 0;
    }
    if (bench_count > 0) {
      std::fprintf(stderr,
                   "esprof: cannot mix bench artifacts with telemetry traces "
                   "in one comparison\n");
      return 2;
    }
    summarize_merged(artifacts);
    return 0;
  }

  const std::string path = args.positional()[0];
  const auto artifact = load_artifact(path);
  if (!artifact) return 1;
  const JsonValue& document = artifact->document;
  if (is_bench_artifact(document)) {
    summarize_bench(*artifact);
    return 0;
  }

  const bool only_spans = args.has_flag("spans");
  const bool only_metrics = args.has_flag("metrics");
  const std::string category = args.get_or("cat", "");

  // Accept both the combined artifact ({"traceEvents": ..., "metrics": ...})
  // and a bare metrics snapshot ({"counters": ...}).
  const JsonValue* events = document.find("traceEvents");
  const JsonValue* metrics = metrics_of(document);

  if (!events && !metrics) {
    std::fprintf(stderr,
                 "esprof: '%s' has neither \"traceEvents\" nor a metrics snapshot\n",
                 path.c_str());
    return 1;
  }
  const auto section_empty = [](const JsonValue* snapshot, const char* key) {
    const JsonValue* section = snapshot->find(key);
    return !section || !section->is_object() || section->members().empty();
  };
  const bool no_events = !events || !events->is_array() || events->items().empty();
  const bool no_metrics = !metrics || (section_empty(metrics, "counters") &&
                                       section_empty(metrics, "gauges") &&
                                       section_empty(metrics, "histograms"));
  if (no_events && no_metrics) {
    std::printf("empty artifact: no events or metrics were recorded\n");
    return 0;
  }
  if (events && events->is_array() && !only_metrics)
    summarize_events(*events, category);
  if (metrics && !only_spans) {
    summarize_metrics(*metrics);
    compare_lanes(document);
  }
  if (const JsonValue* dropped = document.find("droppedEvents"))
    std::printf("warning: %.0f events were dropped at the trace-buffer cap\n",
                dropped->as_number());
  return 0;
}
