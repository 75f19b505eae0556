// Synthetic user population driving the RPC front-end (Section II-B).
//
// Models N users as an aggregated Poisson process of *sessions*: a user
// sits down every `session_cycle_mean` on average, fires a handful of
// RPCs (squeue, sinfo, sbatch ...) separated by think times, and leaves.
// Aggregation is what makes a million users simulable -- the event count
// scales with the session arrival rate (users / cycle), not with N, and
// each session is a closed loop holding at most one outstanding request.
//
// Clients are impatient but persistent: a shed or failed attempt retries
// with exponential backoff + jitter until either the give-up deadline or
// the attempt cap is hit.  A request that eventually succeeds *after*
// the deadline still counts as failed -- the user stopped waiting.
#pragma once

#include <array>
#include <cstdint>

#include "frontend/gateway.hpp"
#include "frontend/rpc.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace eslurm::frontend {

struct ClientPopulationConfig {
  std::uint64_t users = 0;             ///< 0 disables the population
  SimTime session_cycle_mean = hours(4);
  double session_requests_mean = 5.0;  ///< RPCs per session (>= 1)
  SimTime think_time_mean = seconds(10);

  /// Client-side patience and retry policy.
  SimTime give_up = seconds(30);
  SimTime backoff_base = milliseconds(500);
  double backoff_factor = 2.0;
  SimTime backoff_cap = seconds(8);
  int max_attempts = 16;

  /// Request mix (normalized internally).  Defaults follow the read-heavy
  /// shape of production RM traffic: most requests just look at state.
  double submit_fraction = 0.08;
  double cancel_fraction = 0.02;
  double query_queue_fraction = 0.45;
  double query_nodes_fraction = 0.25;
  double job_info_fraction = 0.20;

  std::uint64_t seed = 42;
};

class ClientPopulation {
 public:
  /// Requests originate from the RM's compute nodes (stand-ins for login
  /// nodes) and results feed `rm.note_user_request`.
  ClientPopulation(sim::Engine& engine, Gateway& gateway, rm::ResourceManager& rm,
                   ClientPopulationConfig config);

  /// Arms session arrivals; no new sessions or requests start after
  /// `horizon` (in-flight ones still resolve).
  void start(SimTime horizon);

  const ClientPopulationConfig& config() const { return config_; }

  // --- outcome accounting (one record per *logical* request; retries of
  // --- the same request collapse into it) --------------------------------
  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t gave_up() const { return gave_up_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t sessions_started() const { return sessions_started_; }

  /// Guarded: no completed requests -> 0.0.
  double failure_rate() const {
    return completed_ ? static_cast<double>(failed_) / static_cast<double>(completed_)
                      : 0.0;
  }

  /// End-to-end latency (first issue -> terminal outcome) in seconds.
  const RunningStats& latency_seconds() const { return latency_stats_; }
  const Histogram& latency_histogram() const { return latency_hist_; }
  const Histogram& latency_histogram(RpcKind kind) const {
    return kind_hist_[static_cast<std::size_t>(kind)];
  }

 private:
  /// begin_session() and next_request() set every field, so a recycled
  /// slot keeps nothing of the session that used it before.
  struct Session {
    net::NodeId source = net::kNoNode;
    int remaining = 0;
    RpcKind kind = RpcKind::QueryQueue;
    SimTime first_issued = 0;
    int attempt = 0;
  };

  void arm_next_session();
  void begin_session();
  void next_request(std::uint64_t session_id);
  void attempt_request(std::uint64_t session_id);
  void on_outcome(std::uint64_t session_id, RpcOutcome outcome);
  void finish_request(std::uint64_t session_id, SimTime latency, bool failed_request);
  RpcKind pick_kind();
  SimTime backoff_delay(int attempt);

  sim::Engine& engine_;
  Gateway& gateway_;
  rm::ResourceManager& rm_;
  ClientPopulationConfig config_;
  Rng rng_;
  SimTime horizon_ = 0;

  /// Live sessions by handle.  Timers and response callbacks capture the
  /// handle; one that fires after its session ended finds it stale.
  util::HandlePool<Session> sessions_;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t sessions_started_ = 0;

  RunningStats latency_stats_;
  Histogram latency_hist_;
  std::array<Histogram, kRpcKindCount> kind_hist_;
};

}  // namespace eslurm::frontend
