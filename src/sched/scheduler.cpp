#include "sched/scheduler.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace eslurm::sched {

SimTime expected_end(const Job& job, SimTime now) {
  const SimTime est = job.estimate_used > 0 ? job.estimate_used : job.user_estimate;
  const SimTime base = job.start_time >= 0 ? job.start_time : now;
  const SimTime nominal = base + est;
  if (nominal > now) return nominal;
  // The job overran its estimate.  Do not assume it ends "right now" --
  // that keeps reservations perpetually optimistic and lets backfill
  // starve the queue head (the classic underestimation pathology;
  // Tsafrir et al. correct violated predictions by enlarging them).
  const SimTime bump = std::max<SimTime>(minutes(10), est / 5);
  return now + bump;
}

bool dependency_ready(const JobPool& pool, const Job& job, bool* failed) {
  if (failed) *failed = false;
  if (job.depends_on == kNoJob || !pool.contains(job.depends_on)) return true;
  const Job& dependency = pool.get(job.depends_on);
  if (dependency.state == JobState::Completed) return true;
  if (dependency.state == JobState::TimedOut ||
      dependency.state == JobState::Cancelled) {
    if (failed) *failed = true;
  }
  return false;
}

std::vector<JobId> FcfsScheduler::schedule(const JobPool& pool, int free_nodes,
                                           SimTime /*now*/) {
  std::vector<JobId> out;
  for (const JobId id : pool.pending()) {
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held, does not block
    if (job.nodes > free_nodes) break;
    free_nodes -= job.nodes;
    out.push_back(id);
  }
  return out;
}

EasyBackfillBase::Shadow EasyBackfillBase::shadow_for(const JobPool& pool,
                                                     const Job& head, int free_nodes,
                                                     SimTime now) {
  // Walk active jobs in expected-end order, accumulating released nodes
  // until the head fits.  The shadow start is the head's reserved start
  // time; `spare` is what is left over at that moment after the head
  // takes its share.
  releases_.clear();
  releases_.reserve(pool.active().size());
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    releases_.emplace_back(expected_end(job, now), job.nodes);
  }
  std::sort(releases_.begin(), releases_.end());

  // If running jobs can never free enough nodes the head is unsatisfiable
  // right now (machine too small / draining); no reservation constrains
  // the backfill in that case.
  Shadow shadow;
  int avail = free_nodes;
  for (const auto& [end, nodes] : releases_) {
    avail += nodes;
    if (avail >= head.nodes) {
      shadow.start = end;
      shadow.spare = avail - head.nodes;
      break;
    }
  }
  return shadow;
}

void EasyBackfillBase::note_backfill() {
  ++backfilled_;
  if (telemetry_) telemetry_->metrics.counter("sched.backfill_decisions").inc();
}

std::vector<JobId> EasyBackfillScheduler::schedule(const JobPool& pool, int free_nodes,
                                                   SimTime now) {
  ordered_scratch_.clear();
  ordered_scratch_.reserve(pool.pending().size());
  for (const JobId id : pool.pending())
    if (dependency_ready(pool, pool.get(id))) ordered_scratch_.push_back(id);
  return easy_pass(pool, ordered_scratch_, free_nodes, now);
}

ConservativeBackfillScheduler::ConservativeBackfillScheduler(std::size_t planning_depth)
    : planning_depth_(planning_depth) {}

std::vector<JobId> ConservativeBackfillScheduler::schedule(const JobPool& pool,
                                                           int free_nodes,
                                                           SimTime now) {
  // Free-node timeline as a step function: time -> available nodes from
  // that instant on, seeded by the expected ends of active jobs.  Both
  // scratch vectors persist across cycles, so the steady state rebuilds
  // in place without allocating.
  releases_.clear();
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    releases_.emplace_back(expected_end(job, now), job.nodes);
  }
  std::sort(releases_.begin(), releases_.end());

  timeline_.clear();
  timeline_.push_back({now, free_nodes});
  int level = free_nodes;
  for (const auto& [end, nodes] : releases_) {
    level += nodes;
    if (timeline_.back().time == end)
      timeline_.back().level = level;  // coalesce simultaneous releases
    else
      timeline_.push_back({end, level});
  }

  // Splits the step function at t, returning the step's index.  t always
  // lies at or after the timeline origin (reservations start >= now).
  const auto ensure_step = [this](SimTime t) {
    const auto pos = std::lower_bound(
        timeline_.begin(), timeline_.end(), t,
        [](const Step& step, SimTime value) { return step.time < value; });
    if (pos != timeline_.end() && pos->time == t)
      return static_cast<std::size_t>(pos - timeline_.begin());
    const int carried = (pos - 1)->level;
    return static_cast<std::size_t>(timeline_.insert(pos, {t, carried}) -
                                    timeline_.begin());
  };

  std::vector<JobId> out;
  std::size_t planned = 0;
  for (const JobId id : pool.pending()) {
    if (++planned > planning_depth_) break;
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held jobs reserve nothing
    const SimTime est = std::max<SimTime>(
        job.estimate_used > 0 ? job.estimate_used : job.user_estimate, seconds(1));

    // Earliest t where `nodes` are free across [t, t + est).
    SimTime start = now;
    bool placed = false;
    for (std::size_t scan = 0; scan < timeline_.size(); ++scan) {
      start = timeline_[scan].time;
      bool fits = true;
      for (std::size_t window = scan;
           window < timeline_.size() && timeline_[window].time < start + est;
           ++window) {
        if (timeline_[window].level < job.nodes) {
          fits = false;
          break;
        }
      }
      if (fits) {
        placed = true;
        break;
      }
    }
    // Unsatisfiable with the current machine state (too wide, or the
    // timeline is exhausted): no reservation, it cannot constrain others.
    if (!placed) continue;

    // Reserve [start, start + est): split steps at the boundaries, then
    // subtract the job's width inside the window.
    const SimTime end = start + est;
    const std::size_t first = ensure_step(start);
    ensure_step(end);  // inserts after `first`; earlier indexes stay valid
    for (std::size_t window = first;
         window < timeline_.size() && timeline_[window].time < end; ++window)
      timeline_[window].level -= job.nodes;

    if (start == now) out.push_back(id);
  }
  return out;
}

}  // namespace eslurm::sched
