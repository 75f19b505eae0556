#include "sched/policy/policy.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace eslurm::sched::policy {

PolicyScheduler::PolicyScheduler(PolicyConfig config, int cluster_nodes,
                                 const PartitionSet* partitions)
    : config_(std::move(config)),
      calculator_(config_.weights, cluster_nodes, partitions) {}

const PolicyScheduler::JobRef& PolicyScheduler::ref_of(const Job& job) {
  JobRef& ref = refs_[job.id];
  if (ref.generation != config_.accounts.generation()) {
    ref.keys = config_.accounts.keys_of(job);
    ref.qos = &config_.qos.resolve(job.qos);
    ref.generation = config_.accounts.generation();
  }
  return ref;
}

double PolicyScheduler::priority_of(const Job& job, const JobRef& ref,
                                    SimTime now) const {
  const UserId user = ref.keys.user;
  const double share = user < factors_.size() ? factors_[user] : 1.0;
  return calculator_.priority_from_factors(job, now, share) +
         config_.qos_weight * ref.qos->priority_boost;
}

SimTime PolicyScheduler::kill_window_end(const Job& job, SimTime now) const {
  const SimTime limit = job.user_estimate > 0
                            ? std::max(job.user_estimate, job.estimate_used)
                            : job.estimate_used;
  if (limit <= 0) return kTimeNever;  // unbounded job: assume the worst
  return now + limit + config_.reservation_margin;
}

int PolicyScheduler::carve_for(const Job& job, SimTime now) const {
  if (config_.reservations.empty()) return 0;
  return config_.reservations.carve_out(job, now, kill_window_end(job, now));
}

std::vector<JobId> PolicyScheduler::schedule(const JobPool& pool, int free_nodes,
                                             SimTime now) {
  // Jobs cancelled while pending never reach on_job_released; their refs
  // are swept once the table outgrows the live jobs.
  if (refs_.size() > 2 * (pool.pending().size() + pool.active().size()) + 64)
    std::erase_if(refs_, [&](const auto& entry) {
      return !pool.contains(entry.first) || pool.get(entry.first).finished();
    });
  // The tree self-assembles: first sight of a user registers them under
  // their job's account tag, so fair-tree and account limits cover the
  // whole population without explicit sacctmgr-style setup.  A job whose
  // ref names a registered user needs no second look.
  for (const JobId id : pool.pending()) {
    if (refs_[id].keys.user != kNoUser) continue;
    const Job& job = pool.get(id);
    config_.accounts.ensure_user(job.user, job.account);
  }
  config_.accounts.fair_tree_factors(now, factors_);

  auto& ranked = ranked_scratch_;
  ranked.clear();
  ranked.reserve(pool.pending().size());
  for (const JobId id : pool.pending()) {
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held
    const JobRef& ref = ref_of(job);
    ranked.push_back({-priority_of(job, ref, now), id, &ref});
  }
  sort_by_priority(ranked);

  auto& usage = usage_;
  if (config_.enforce_limits)
    config_.accounts.usage_from(pool, usage,
                                [this](const Job& job) { return ref_of(job).keys; });
  // Admission: a limit-held job is skipped outright -- as in Slurm, a held
  // job gets no reservation and never blocks the queue behind it -- and
  // no job may start into capacity a reservation window carves out.
  const auto admit = [&](const Ranked& candidate, const Job& job, int free_now) {
    if (config_.enforce_limits) {
      const JobRef& ref = *candidate.ref;
      if (const auto reason = config_.accounts.may_start(job, ref.keys, *ref.qos, usage)) {
        ++limit_holds_;
        if (telemetry_)
          telemetry_->metrics
              .counter("sched.policy.limit_holds", {{"reason", hold_reason_name(*reason)}})
              .inc();
        return Admission::Hold;
      }
    }
    const int carve = carve_for(job, now);
    if (job.nodes <= free_now - carve) return Admission::Start;
    if (job.nodes <= free_now) {
      // It is specifically the reservation carve-out that blocks it.
      ++carve_skips_;
      if (telemetry_)
        telemetry_->metrics.counter("sched.policy.reservation_carve_skips").inc();
    }
    return Admission::Block;
  };
  const auto started = [&](const Ranked& candidate, const Job& job) {
    if (config_.enforce_limits) config_.accounts.add_usage(usage, job, candidate.ref->keys);
  };
  return easy_pass(pool, ranked, free_nodes, now, admit, started);
}

std::vector<PreemptionOrder> PolicyScheduler::preemption_orders(const JobPool& pool,
                                                                int free_nodes,
                                                                SimTime now) {
  if (config_.preempt_mode == PreemptMode::Off) return {};
  if (blocked_head_ == kNoJob || !pool.contains(blocked_head_)) return {};
  const Job& head = pool.get(blocked_head_);
  if (head.state != JobState::Pending) return {};
  if (now - head.submit_time < config_.preempt_wait) return {};
  const QosClass& head_qos = config_.qos.resolve(head.qos);
  if (head_qos.preempts.empty()) return {};

  // Victims already in their grace window will free their nodes shortly;
  // count that capacity before ordering more evictions.
  int incoming = 0;
  struct Candidate {
    double priority;
    SimTime started;
    JobId id;
    int nodes;
    SimTime grace;
  };
  std::vector<Candidate> candidates;
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    if (job.state != JobState::Running) continue;
    if (pending_preempt_.count(id)) {
      incoming += job.nodes;
      continue;
    }
    if (!config_.qos.may_preempt(head.qos, job.qos)) continue;
    const JobRef& ref = ref_of(job);
    candidates.push_back({priority_of(job, ref, now), job.start_time, id, job.nodes,
                          ref.qos->grace_period});
  }
  int attainable = free_nodes + incoming;
  for (const Candidate& c : candidates) attainable += c.nodes;
  if (attainable < head.nodes) return {};  // eviction cannot help; spare everyone

  // Cheapest victims first: lowest priority, then the youngest start (it
  // has the least sunk work), then the newest id for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.started != b.started) return a.started > b.started;
              return a.id > b.id;
            });
  std::vector<PreemptionOrder> orders;
  int gained = free_nodes + incoming;
  for (const Candidate& c : candidates) {
    if (gained >= head.nodes) break;
    orders.push_back({c.id, config_.preempt_mode, c.grace});
    gained += c.nodes;
    ++orders_issued_;
    if (telemetry_)
      telemetry_->metrics
          .counter("sched.policy.preempt_orders",
                   {{"mode", preempt_mode_name(config_.preempt_mode)}})
          .inc();
  }
  return orders;
}

void PolicyScheduler::audit(const JobPool& pool) {
  if (!config_.enforce_limits) return;
  config_.accounts.usage_from(pool, usage_,
                              [this](const Job& job) { return ref_of(job).keys; });
  const std::size_t bad = config_.accounts.violations(usage_);
  if (bad == 0) return;
  violations_ += bad;
  if (telemetry_)
    telemetry_->metrics.counter("sched.policy.limit_violations")
        .inc(static_cast<double>(bad));
}

void PolicyScheduler::on_job_released(const Job& job, SimTime now) {
  const SimTime runtime = job.observed_runtime();
  if (runtime > 0) {
    config_.accounts.ensure_user(job.user, job.account);
    config_.accounts.charge(job, ref_of(job).keys,
                            static_cast<double>(job.nodes) * to_seconds(runtime), now);
  }
  refs_.erase(job.id);
}

void PolicyScheduler::on_job_preempted(const Job& job, SimTime now) {
  if (job.start_time < 0 || now <= job.start_time) return;
  config_.accounts.ensure_user(job.user, job.account);
  config_.accounts.charge(job, ref_of(job).keys,
                          static_cast<double>(job.nodes) * to_seconds(now - job.start_time),
                          now);
}

}  // namespace eslurm::sched::policy
