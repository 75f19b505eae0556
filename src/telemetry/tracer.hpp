// Sim-time tracer: spans, instant events and counter samples stamped
// with the simulation clock, exported as Chrome trace-event JSON that
// loads directly into Perfetto / chrome://tracing.
//
// Design constraints:
//   * near-zero cost when disabled -- every recording call starts with a
//     single inline `enabled()` load; nothing is allocated or formatted
//     unless tracing is on;
//   * no dependency on sim::Engine (telemetry sits below sim in the
//     library order): the clock is injected as a callback, and
//     sim::Engine registers itself as the clock source on construction;
//   * callback-shaped async work (broadcasts, dispatches) records a
//     `complete()` event after the fact with an explicit start/duration,
//     while synchronous nested phases use the RAII Span.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace eslurm::telemetry {

/// One trace event in the Chrome trace-event model.  `ph` is the phase:
/// 'X' complete (ts + dur), 'i' instant, 'C' counter sample.  `tid` is
/// the lane: 0 for events recorded here, N for those of the Nth world
/// folded in (see Tracer::append).
struct TraceEvent {
  char ph = 'i';
  SimTime ts = 0;
  SimTime dur = 0;
  std::uint32_t tid = 0;
  std::string name;
  std::string cat;
  std::string args_json;  ///< pre-rendered `"k":v,...` (no braces), may be empty
};

/// One folded world in a combined artifact: its name (the Chrome trace
/// thread name of its lane) and its own metrics snapshot.
struct Lane {
  std::string name;
  Registry metrics;
};

/// Key/value pairs attached to an event; rendered once, at record time.
using TraceArgs = std::initializer_list<std::pair<const char*, double>>;

class Tracer {
 public:
  class Span;

  bool enabled() const { return enabled_; }
  /// Turns recording on.  `max_events` bounds memory; once reached, new
  /// events are dropped and `dropped_events()` counts them.
  void enable(std::size_t max_events = 1u << 20);
  void disable() { enabled_ = false; }
  void clear();

  /// Clock injection.  `owner` tags the registration so a destroyed
  /// engine can retract exactly its own clock (last registration wins).
  void set_clock(std::function<SimTime()> clock, const void* owner);
  void clear_clock(const void* owner);
  SimTime now() const { return clock_ ? clock_() : 0; }

  // --- recording (all no-ops when disabled) ---------------------------
  void instant(std::string name, std::string cat);
  void instant(std::string name, std::string cat, TraceArgs args);
  /// Explicitly timed event: `start` .. `start + dur` in sim time.
  void complete(std::string name, std::string cat, SimTime start, SimTime dur);
  void complete(std::string name, std::string cat, SimTime start, SimTime dur,
                TraceArgs args);
  /// Counter track sample ("C" phase): renders as a filled area chart.
  void counter_sample(std::string name, double value);

  /// RAII span: records a complete event covering construction to
  /// destruction (sim-time).  Inert when tracing is disabled.
  Span span(std::string name, std::string cat);

  /// Moves `other`'s events onto the end of this trace as lane `tid`,
  /// under this tracer's cap.  Events past the cap, and those `other`
  /// dropped, count as dropped here.
  void append(Tracer&& other, std::uint32_t tid);

  std::size_t capacity() const { return max_events_; }
  std::size_t event_count() const { return events_.size(); }
  std::size_t dropped_events() const { return dropped_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Chrome trace JSON object: {"traceEvents": [...], ...}.  When
  /// `metrics` is given, the registry snapshot is embedded under a
  /// top-level "metrics" key (ignored by trace viewers, read by esprof).
  /// Lane N (1-based) is named `lanes[N - 1].name` by a thread_name
  /// metadata event, and its snapshot is listed under "lanes".
  void write_chrome_trace(std::ostream& os, const Registry* metrics = nullptr,
                          const std::vector<Lane>& lanes = {}) const;
  std::string to_chrome_trace(const Registry* metrics = nullptr) const;

 private:
  void push(TraceEvent event);

  bool enabled_ = false;
  std::size_t max_events_ = 0;
  std::size_t dropped_ = 0;
  std::function<SimTime()> clock_;
  const void* clock_owner_ = nullptr;
  std::vector<TraceEvent> events_;
};

class Tracer::Span {
 public:
  Span() = default;  ///< inert
  Span(Tracer* tracer, std::string name, std::string cat)
      : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)),
        start_(tracer ? tracer->now() : 0) {}
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    finish();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    cat_ = std::move(other.cat_);
    start_ = other.start_;
    other.tracer_ = nullptr;
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Ends the span early (idempotent).
  void finish() {
    if (!tracer_) return;
    tracer_->complete(std::move(name_), std::move(cat_), start_,
                      tracer_->now() - start_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string cat_;
  SimTime start_ = 0;
};

}  // namespace eslurm::telemetry
