#include "sched/priority_scheduler.hpp"

namespace eslurm::sched {

PriorityBackfillScheduler::PriorityBackfillScheduler(PriorityWeights weights,
                                                     int cluster_nodes,
                                                     const PartitionSet* partitions)
    : calculator_(weights, cluster_nodes, partitions) {}

std::vector<JobId> PriorityBackfillScheduler::schedule(const JobPool& pool,
                                                       int free_nodes, SimTime now) {
  auto& ranked = ranked_scratch_;
  ranked.clear();
  ranked.reserve(pool.pending().size());
  for (const JobId id : pool.pending()) {
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held
    ranked.push_back({-priority_of(job, now), id});
  }
  sort_by_priority(ranked);
  return easy_pass(pool, ranked, free_nodes, now);
}

void PriorityBackfillScheduler::on_job_released(const Job& job, SimTime now) {
  const SimTime runtime = job.observed_runtime();
  if (runtime <= 0) return;
  fairshare_.record_usage(job.user, static_cast<double>(job.nodes) * to_seconds(runtime),
                          now);
}

void PriorityBackfillScheduler::on_job_preempted(const Job& job, SimTime now) {
  if (job.start_time < 0 || now <= job.start_time) return;
  fairshare_.record_usage(
      job.user, static_cast<double>(job.nodes) * to_seconds(now - job.start_time), now);
}

}  // namespace eslurm::sched
