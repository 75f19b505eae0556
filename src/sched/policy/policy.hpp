// The production policy layer, assembled: admission (QoS + account
// limits) -> multifactor priority with QoS boost and fair-tree
// fair-share -> reservation carve-out -> EASY backfill -> preemption
// victim selection.  PolicyScheduler is a drop-in sched::Scheduler; the
// RM executes its start decisions as usual and additionally asks for
// preemption orders after each pass (the scheduler itself never kills
// anything -- schedulers stay pure decision functions).
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "sched/partition.hpp"
#include "sched/policy/accounts.hpp"
#include "sched/policy/qos.hpp"
#include "sched/policy/reservation.hpp"
#include "sched/priority.hpp"
#include "sched/scheduler.hpp"

namespace eslurm::sched::policy {

/// Everything the policy layer needs, with defaults chosen so that a
/// default-constructed config is inert: no limits registered, no
/// reservations, preemption off.
struct PolicyConfig {
  /// Master switch read by the Experiment/RM wiring: false keeps the
  /// plain EASY scheduler and runs zero policy code.
  bool enabled = false;
  /// Enforce QoS/user/account admission limits (holds, never rejects).
  bool enforce_limits = true;
  /// What happens to preemption victims; Off (the default) never evicts.
  PreemptMode preempt_mode = PreemptMode::Off;
  /// A blocked head must have been queued this long before victims are
  /// evicted for it -- preemption is a last resort, not a fast path.
  SimTime preempt_wait = minutes(2);
  /// Safety margin added to a job's kill-limit window when checking
  /// reservation overlap: covers the termination-broadcast lag between
  /// the kill firing and the nodes actually coming free.
  SimTime reservation_margin = seconds(60);
  /// x QosClass::priority_boost in the multifactor priority.
  double qos_weight = 1.0;
  PriorityWeights weights;
  QosSet qos = QosSet::standard();
  AccountTree accounts;
  ReservationCalendar reservations;
};

/// One eviction the RM should execute: stop `victim` after `grace`.
struct PreemptionOrder {
  JobId victim = kNoJob;
  PreemptMode mode = PreemptMode::Requeue;
  SimTime grace = 0;
};

class PolicyScheduler final : public EasyBackfillBase {
 public:
  /// `partitions` (optional, must outlive the scheduler) contributes the
  /// per-partition boost, through the same PriorityCalculator as
  /// PriorityBackfillScheduler.
  PolicyScheduler(PolicyConfig config, int cluster_nodes,
                  const PartitionSet* partitions = nullptr);

  std::vector<JobId> schedule(const JobPool& pool, int free_nodes,
                              SimTime now) override;
  const char* name() const override { return "policy"; }

  void on_job_released(const Job& job, SimTime now) override;
  void on_job_preempted(const Job& job, SimTime now) override;

  /// Victims to evict so the currently blocked head can start: empty when
  /// preemption is off, nothing is blocked, the head has not waited
  /// `preempt_wait` yet, or eviction cannot possibly free enough nodes.
  /// Ordered cheapest-victim-first (lowest priority, youngest start).
  std::vector<PreemptionOrder> preemption_orders(const JobPool& pool,
                                                 int free_nodes, SimTime now);
  /// RM bracketing of a victim's grace window, so repeated scheduling
  /// cycles do not stack duplicate orders on the same job.
  void note_preemption_pending(JobId id) { pending_preempt_.insert(id); }
  void note_preemption_done(JobId id) { pending_preempt_.erase(id); }

  /// Invariant audit: counts live-usage entries exceeding their limits
  /// (must stay 0 while admission is enforced).  Called by the RM each
  /// cycle; cheap (one pass over active jobs).
  void audit(const JobPool& pool);

  // --- state access ----------------------------------------------------
  const PolicyConfig& config() const { return config_; }
  AccountTree& accounts() { return config_.accounts; }
  const QosSet& qos() const { return config_.qos; }
  const ReservationCalendar& reservations() const { return config_.reservations; }

  // --- decision counters (mirrored into sched.policy.* telemetry) ------
  std::uint64_t limit_holds() const { return limit_holds_; }
  std::uint64_t reservation_carve_skips() const { return carve_skips_; }
  std::uint64_t limit_violations() const { return violations_; }
  std::uint64_t preempt_orders_issued() const { return orders_issued_; }

 private:
  /// A job's tree ids and QoS class, resolved when the scheduler first
  /// sees the job and again only after the tree's generation moves.
  struct JobRef {
    JobKeys keys;
    const QosClass* qos = nullptr;
    std::uint64_t generation = 0;  ///< 0: not resolved yet
  };

  /// End of the job's kill-limit window for reservation math (the RM
  /// kills at max(user_estimate, estimate_used)); kTimeNever when the
  /// job has no enforceable limit.
  SimTime kill_window_end(const Job& job, SimTime now) const;
  /// Reserved capacity this job may not touch over its window.
  int carve_for(const Job& job, SimTime now) const;
  const JobRef& ref_of(const Job& job);
  /// Full multifactor priority of one job right now.
  double priority_of(const Job& job, const JobRef& ref, SimTime now) const;

  PolicyConfig config_;
  PriorityCalculator calculator_;

  /// Fair-tree factors by UserId from the latest pass (also used to price
  /// victims); users registered since then get factor 1.
  std::vector<double> factors_;
  /// Per-job refs; an entry is dropped when its job is released.
  std::unordered_map<JobId, JobRef> refs_;
  /// Live usage, rebuilt from the pool by every pass and audit.
  LiveUsage usage_;
  std::unordered_set<JobId> pending_preempt_;

  std::uint64_t limit_holds_ = 0;
  std::uint64_t carve_skips_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t orders_issued_ = 0;

  struct Ranked {
    double neg_priority;
    JobId id;
    const JobRef* ref;
  };
  std::vector<Ranked> ranked_scratch_;
};

}  // namespace eslurm::sched::policy
