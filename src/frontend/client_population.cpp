#include "frontend/client_population.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace eslurm::frontend {

namespace {
// 1 ms buckets over [0, 60 s]: the healthy (satellite-served) path sits
// at a few milliseconds, so percentile resolution must be finer than
// that, while the give-up-bound tail still lands in range.
Histogram latency_histogram_shape() { return Histogram(0.0, 60.0, 60000); }
}  // namespace

ClientPopulation::ClientPopulation(sim::Engine& engine, Gateway& gateway,
                                   rm::ResourceManager& rm,
                                   ClientPopulationConfig config)
    : engine_(engine),
      gateway_(gateway),
      rm_(rm),
      config_(config),
      rng_(config.seed),
      latency_hist_(latency_histogram_shape()),
      kind_hist_{latency_histogram_shape(), latency_histogram_shape(),
                 latency_histogram_shape(), latency_histogram_shape(),
                 latency_histogram_shape()} {}

void ClientPopulation::start(SimTime horizon) {
  horizon_ = horizon;
  if (config_.users == 0 || rm_.deployment().compute.empty()) return;
  arm_next_session();
}

void ClientPopulation::arm_next_session() {
  // Aggregated arrivals: N users each starting a session every
  // `session_cycle_mean` on average superpose to one Poisson stream with
  // rate N / cycle.  One pending arrival event regardless of N.
  const double rate_per_sec =
      static_cast<double>(config_.users) / to_seconds(config_.session_cycle_mean);
  if (rate_per_sec <= 0.0) return;
  const SimTime gap = from_seconds(rng_.exponential(1.0 / rate_per_sec));
  engine_.schedule_after(std::max<SimTime>(gap, 1), [this] {
    if (engine_.now() >= horizon_) return;
    begin_session();
    arm_next_session();
  });
}

void ClientPopulation::begin_session() {
  const auto& sources = rm_.deployment().compute;
  const std::uint64_t id = sessions_.acquire();
  Session& s = sessions_[id];
  s.source = sources[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
  s.remaining = 1;
  if (config_.session_requests_mean > 1.0) {
    s.remaining +=
        static_cast<int>(rng_.exponential(config_.session_requests_mean - 1.0));
  }
  ++sessions_started_;
  if (auto* t = engine_.telemetry()) {
    t->metrics.gauge("frontend.active_sessions")
        .set(static_cast<double>(sessions_.in_use()));
  }
  next_request(id);
}

void ClientPopulation::next_request(std::uint64_t session_id) {
  Session& s = sessions_[session_id];
  s.kind = pick_kind();
  s.first_issued = engine_.now();
  s.attempt = 0;
  ++started_;
  attempt_request(session_id);
}

void ClientPopulation::attempt_request(std::uint64_t session_id) {
  const Session* s = sessions_.find(session_id);
  if (!s) return;
  gateway_.issue(s->kind, s->source,
                 [this, session_id](RpcOutcome outcome) { on_outcome(session_id, outcome); });
}

void ClientPopulation::on_outcome(std::uint64_t session_id, RpcOutcome outcome) {
  Session* found = sessions_.find(session_id);
  if (!found) return;
  Session& s = *found;
  const SimTime now = engine_.now();

  if (outcome == RpcOutcome::Ok) {
    const SimTime latency = now - s.first_issued;
    // A response after the give-up deadline reaches nobody: the user
    // already walked away.  Count it against the service.
    finish_request(session_id, latency, latency > config_.give_up);
    return;
  }

  ++s.attempt;
  if (s.attempt >= config_.max_attempts) {
    ++gave_up_;
    finish_request(session_id, now - s.first_issued, true);
    return;
  }
  const SimTime delay = backoff_delay(s.attempt);
  if (now + delay - s.first_issued >= config_.give_up) {
    ++gave_up_;
    finish_request(session_id, now - s.first_issued, true);
    return;
  }
  ++retries_;
  engine_.schedule_after(delay,
                         [this, session_id] { attempt_request(session_id); });
}

void ClientPopulation::finish_request(std::uint64_t session_id, SimTime latency,
                                      bool failed_request) {
  ++completed_;
  if (failed_request) ++failed_;
  const double secs = to_seconds(latency);
  latency_stats_.add(secs);
  latency_hist_.add(secs);
  Session& s = sessions_[session_id];
  kind_hist_[static_cast<std::size_t>(s.kind)].add(secs);
  rm_.note_user_request(secs, failed_request);

  --s.remaining;
  if (s.remaining <= 0 || engine_.now() >= horizon_) {
    sessions_.release(session_id);
    return;
  }
  const SimTime think = std::max<SimTime>(
      from_seconds(rng_.exponential(to_seconds(config_.think_time_mean))), 1);
  engine_.schedule_after(think, [this, session_id] {
    if (!sessions_.find(session_id)) return;
    // No request starts after the horizon (see start()): a think time
    // that runs past it ends the session instead.
    if (engine_.now() >= horizon_) {
      sessions_.release(session_id);
      return;
    }
    next_request(session_id);
  });
}

RpcKind ClientPopulation::pick_kind() {
  const double fractions[kRpcKindCount] = {
      config_.submit_fraction, config_.cancel_fraction, config_.query_queue_fraction,
      config_.query_nodes_fraction, config_.job_info_fraction};
  double total = 0.0;
  for (const double f : fractions) total += std::max(f, 0.0);
  if (total <= 0.0) return RpcKind::QueryQueue;
  double roll = rng_.next_double() * total;
  for (std::size_t i = 0; i < kRpcKindCount; ++i) {
    roll -= std::max(fractions[i], 0.0);
    if (roll < 0.0) return static_cast<RpcKind>(i);
  }
  return RpcKind::JobInfo;
}

SimTime ClientPopulation::backoff_delay(int attempt) {
  // min(cap, base * factor^(attempt-1)), multiplied by a jitter in
  // [0.5, 1.5) so a mass-shed burst doesn't come back as one wave.
  const double base = to_seconds(config_.backoff_base);
  const double raw =
      base * std::pow(std::max(config_.backoff_factor, 1.0), attempt - 1);
  const double capped = std::min(raw, to_seconds(config_.backoff_cap));
  const double jittered = capped * (0.5 + rng_.next_double());
  return std::max<SimTime>(from_seconds(jittered), 1);
}

}  // namespace eslurm::frontend
