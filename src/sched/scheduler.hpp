// Scheduling policies.  All evaluated RMs use backfill scheduling (the
// paper runs the backfill algorithm on every RM in Section VII-D); FCFS
// is kept as the simplest policy and as a test baseline.
//
// Schedulers are pure decision functions over the job pool: given free
// nodes and the current time they return the jobs to start now.  The RM
// executes the decisions (allocation, launch broadcast...).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/job_pool.hpp"

namespace eslurm::telemetry {
struct Telemetry;
}  // namespace eslurm::telemetry

namespace eslurm::sched {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Returns ids of pending jobs to start now, in start order.
  virtual std::vector<JobId> schedule(const JobPool& pool, int free_nodes,
                                      SimTime now) = 0;
  virtual const char* name() const = 0;

  /// Injects the owning RM's telemetry context (nullptr to detach).
  /// Default: the scheduler emits nothing.
  virtual void set_telemetry(telemetry::Telemetry*) {}
  /// RM release-path feedback: the job's resources were fully reclaimed.
  /// Stateful schedulers (fair-share, account usage) charge the observed
  /// consumption here; the default policy is stateless.
  virtual void on_job_released(const Job&, SimTime) {}
  /// RM preemption feedback: a running job was stopped early and either
  /// requeued or cancelled.  The partial consumption up to `now` is still
  /// real usage and is charged by stateful schedulers.
  virtual void on_job_preempted(const Job&, SimTime) {}
};

/// First-come-first-served: start the head of the queue while it fits.
class FcfsScheduler final : public Scheduler {
 public:
  std::vector<JobId> schedule(const JobPool& pool, int free_nodes, SimTime now) override;
  const char* name() const override { return "fcfs"; }
};

/// A backfill scheduler's admission verdict on one candidate job.
enum class Admission : std::uint8_t {
  Start,  ///< may start now if it fits the free nodes
  Hold,   ///< held (e.g. by a limit): skipped, gets no reservation, never blocks
  Block,  ///< may not start now (e.g. a reservation carve-out): it blocks
};

/// Base of the three EASY schedulers (submit order, multifactor priority
/// and the policy suite).  It runs the one EASY pass and keeps the state
/// that pass updates: the backfill counter, the telemetry context, the
/// release-list buffer and the blocked head of the latest pass.
class EasyBackfillBase : public Scheduler {
 public:
  void set_telemetry(telemetry::Telemetry* telemetry) override {
    telemetry_ = telemetry;
  }
  std::uint64_t backfilled_jobs() const { return backfilled_; }

 protected:
  /// The EASY pass over candidates in scheduling order: start jobs in
  /// order while they fit, reserve for the first blocked one, then
  /// backfill any candidate that cannot delay that reservation, judged
  /// by the *runtime estimates*.  A candidate is a JobId or a struct
  /// with an `id` member.
  ///
  /// `admit(candidate, job, free_nodes)` is the caller's admission rule.
  /// In the start phase it is asked before the width check: a Hold is
  /// skipped and the queue flows past it; a Block, or a job wider than
  /// the free nodes, becomes the blocked head.  In the backfill phase it
  /// is asked only for candidates that fit, and anything but Start skips
  /// the candidate.  `started(candidate, job)` runs for every job the
  /// pass starts.
  template <typename Candidate, typename Admit, typename Started>
  std::vector<JobId> easy_pass(const JobPool& pool,
                               const std::vector<Candidate>& candidates,
                               int free_nodes, SimTime now, Admit admit,
                               Started started);
  /// The pass with no admission rule: every candidate may start.
  template <typename Candidate>
  std::vector<JobId> easy_pass(const JobPool& pool,
                               const std::vector<Candidate>& candidates,
                               int free_nodes, SimTime now) {
    return easy_pass(
        pool, candidates, free_nodes, now,
        [](const Candidate&, const Job&, int) { return Admission::Start; },
        [](const Candidate&, const Job&) {});
  }

  telemetry::Telemetry* telemetry_ = nullptr;
  /// The highest-ranked candidate the latest pass could not start, held
  /// jobs aside (kNoJob when every candidate started).
  JobId blocked_head_ = kNoJob;

 private:
  /// When the blocked head can start and how many nodes are spare then.
  struct Shadow {
    SimTime start = kTimeNever;  ///< kTimeNever: no reservation constrains
    int spare = 0;
  };
  Shadow shadow_for(const JobPool& pool, const Job& head, int free_nodes,
                    SimTime now);
  /// Counts one backfilled start (sched.backfill_decisions).
  void note_backfill();

  static JobId candidate_id(JobId id) { return id; }
  template <typename Candidate>
  static JobId candidate_id(const Candidate& candidate) {
    return candidate.id;
  }

  std::uint64_t backfilled_ = 0;
  /// (expected end, nodes) of the active jobs; held as scheduler state so
  /// the steady-state cycle does not reallocate it.
  std::vector<std::pair<SimTime, int>> releases_;
};

template <typename Candidate, typename Admit, typename Started>
std::vector<JobId> EasyBackfillBase::easy_pass(const JobPool& pool,
                                               const std::vector<Candidate>& candidates,
                                               int free_nodes, SimTime now,
                                               Admit admit, Started started) {
  std::vector<JobId> out;
  blocked_head_ = kNoJob;
  std::size_t cursor = 0;

  // Start phase: launch in order while candidates fit.
  for (; cursor < candidates.size(); ++cursor) {
    const Candidate& candidate = candidates[cursor];
    const Job& job = pool.get(candidate_id(candidate));
    const Admission verdict = admit(candidate, job, free_nodes);
    if (verdict == Admission::Hold) continue;
    if (verdict == Admission::Block || job.nodes > free_nodes) break;
    free_nodes -= job.nodes;
    started(candidate, job);
    out.push_back(job.id);
  }
  if (cursor >= candidates.size()) return out;
  const Job& head = pool.get(candidate_id(candidates[cursor]));
  blocked_head_ = head.id;
  if (free_nodes <= 0) return out;
  Shadow shadow = shadow_for(pool, head, free_nodes, now);

  // Backfill phase: a candidate may start if it fits now AND either ends
  // before the shadow time or only uses nodes spare at the shadow time.
  for (++cursor; cursor < candidates.size(); ++cursor) {
    if (free_nodes <= 0) break;
    const Candidate& candidate = candidates[cursor];
    const Job& job = pool.get(candidate_id(candidate));
    if (job.nodes > free_nodes) continue;
    if (admit(candidate, job, free_nodes) != Admission::Start) continue;
    const SimTime est = job.estimate_used > 0 ? job.estimate_used : job.user_estimate;
    const bool ends_before_shadow =
        shadow.start == kTimeNever || now + est <= shadow.start;
    const bool fits_spare = shadow.start == kTimeNever || job.nodes <= shadow.spare;
    if (ends_before_shadow || fits_spare) {
      free_nodes -= job.nodes;
      if (fits_spare && !ends_before_shadow) shadow.spare -= job.nodes;
      started(candidate, job);
      out.push_back(job.id);
      note_backfill();
    }
  }
  return out;
}

/// Highest priority first; equal priorities keep submission order (ids
/// ascend with time).  `Ranked` carries `neg_priority` and `id`.
template <typename Ranked>
void sort_by_priority(std::vector<Ranked>& ranked) {
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.neg_priority != b.neg_priority) return a.neg_priority < b.neg_priority;
    return a.id < b.id;
  });
}

/// EASY backfill: FCFS plus a reservation for the queue head; any later
/// job may jump ahead if it fits the free nodes now and cannot delay the
/// head's reservation, judged by the *runtime estimates* -- which is
/// exactly why the quality of runtime estimation drives utilization
/// (Sections V and VII-D).
class EasyBackfillScheduler final : public EasyBackfillBase {
 public:
  std::vector<JobId> schedule(const JobPool& pool, int free_nodes, SimTime now) override;
  const char* name() const override { return "easy-backfill"; }

 private:
  std::vector<JobId> ordered_scratch_;
};

/// Conservative backfill: every queued job (up to a planning depth) gets
/// a reservation on a simulated free-node timeline; a job starts now only
/// if "now" is its earliest feasible slot.  No job can be delayed by a
/// later arrival, at the cost of more planning work per cycle.
class ConservativeBackfillScheduler final : public Scheduler {
 public:
  explicit ConservativeBackfillScheduler(std::size_t planning_depth = 500);
  std::vector<JobId> schedule(const JobPool& pool, int free_nodes, SimTime now) override;
  const char* name() const override { return "conservative-backfill"; }

 private:
  /// One step of the free-node timeline: `level` nodes are free from
  /// `time` until the next step.  Kept as a flat sorted vector instead of
  /// a std::map: the planning loop is scan-heavy (every candidate walks
  /// its feasibility window), and contiguous steps make those scans
  /// cache-linear while boundary inserts stay cheap at planning depths.
  struct Step {
    SimTime time;
    int level;
  };

  std::size_t planning_depth_;
  std::vector<Step> timeline_;                     ///< reused across cycles
  std::vector<std::pair<SimTime, int>> releases_;  ///< reused across cycles
};

/// Remaining-runtime helper: expected end of an active job based on the
/// estimate the scheduler used (never less than `now`).
SimTime expected_end(const Job& job, SimTime now);

/// afterok dependency check: true when the job may start (no dependency,
/// dependency completed, or dependency unknown to this pool).  Sets
/// *failed when the dependency terminated unsuccessfully, in which case
/// the job can never run.
bool dependency_ready(const JobPool& pool, const Job& job, bool* failed = nullptr);

}  // namespace eslurm::sched
