// Priority-ordered EASY backfill: the pending queue is ordered by the
// multifactor priority (age + size + fair-share + partition boost), the
// top job gets the reservation and the rest may backfill -- production
// Slurm's sched/backfill + priority/multifactor combination.
#pragma once

#include "sched/partition.hpp"
#include "sched/priority.hpp"
#include "sched/scheduler.hpp"

namespace eslurm::sched {

/// Multifactor EASY with the flat per-user fair-share tracker.  It stays
/// next to policy::PolicyScheduler, which runs the same pass and formula
/// with Fair Tree shares, because no account tree reproduces its order:
/// the flat share factor is exp2(-8 * usage / norm) on each user's own
/// decayed usage, while Fair Tree gives rank / user count, so even a
/// one-level tree turns usage gaps of any size into equal rank steps.
class PriorityBackfillScheduler final : public EasyBackfillBase {
 public:
  /// `partitions` (optional) contributes the per-partition boost; it must
  /// outlive the scheduler.  When a non-empty set is supplied and
  /// `weights.partition` was left at its 0.0 default, the weight is
  /// promoted to kDefaultPartitionWeight -- configuring partitions
  /// without a weight would otherwise silently ignore them.
  PriorityBackfillScheduler(PriorityWeights weights, int cluster_nodes,
                            const PartitionSet* partitions = nullptr);

  std::vector<JobId> schedule(const JobPool& pool, int free_nodes, SimTime now) override;
  const char* name() const override { return "priority-backfill"; }

  /// Feed completed usage into the fair-share ledger (RM release path).
  void on_job_released(const Job& job, SimTime now) override;
  /// Preempted jobs still consumed node-seconds up to `now`.
  void on_job_preempted(const Job& job, SimTime now) override;

  FairshareTracker& fairshare() { return fairshare_; }

  const PriorityWeights& weights() const { return calculator_.weights(); }

  /// Priority of one job right now (for squeue-style introspection).
  double priority_of(const Job& job, SimTime now) const {
    return calculator_.priority(job, now, fairshare_);
  }

 private:
  struct Ranked {
    double neg_priority;
    JobId id;
  };

  PriorityCalculator calculator_;
  FairshareTracker fairshare_;
  std::vector<Ranked> ranked_scratch_;
};

}  // namespace eslurm::sched
