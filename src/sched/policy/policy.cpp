#include "sched/policy/policy.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace eslurm::sched::policy {

namespace {

PriorityWeights weights_with_partition_default(PriorityWeights weights,
                                               const PartitionSet* partitions) {
  if (partitions && !partitions->empty() && weights.partition == 0.0)
    weights.partition = kDefaultPartitionWeight;
  return weights;
}

}  // namespace

PolicyScheduler::PolicyScheduler(PolicyConfig config, int cluster_nodes,
                                 const PartitionSet* partitions)
    : config_(std::move(config)),
      calculator_(weights_with_partition_default(config_.weights, partitions),
                  cluster_nodes,
                  static_cast<double>(cluster_nodes) * to_seconds(days(7))),
      partitions_(partitions) {}

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
  double partition_factor = 0.0;
  if (partitions_) {
    if (const Partition* partition = partitions_->find(job.partition))
      partition_factor = partition->priority_factor;
  }
  const UserId user = ref.keys.user;
  const double share = user < factors_.size() ? factors_[user] : 1.0;
  return calculator_.priority_from_factors(job, now, share, partition_factor) +
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
  // Stable: equal priorities keep submission order (ids ascend with time).
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.neg_priority != b.neg_priority) return a.neg_priority < b.neg_priority;
    return a.id < b.id;
  });

  auto& usage = usage_;
  if (config_.enforce_limits)
    config_.accounts.usage_from(pool, usage,
                                [this](const Job& job) { return ref_of(job).keys; });
  const auto held_by_limits = [&](const Job& job, const JobRef& ref) -> bool {
    if (!config_.enforce_limits) return false;
    const auto reason = config_.accounts.may_start(job, ref.keys, *ref.qos, usage);
    if (!reason) return false;
    ++limit_holds_;
    if (telemetry_)
      telemetry_->metrics
          .counter("sched.policy.limit_holds", {{"reason", hold_reason_name(*reason)}})
          .inc();
    return true;
  };
  const auto carve_blocks = [&](const Job& job) -> bool {
    const int carve = carve_for(job, now);
    if (job.nodes <= free_nodes - carve) return false;
    if (job.nodes <= free_nodes) {
      // It is specifically the reservation carve-out that blocks it.
      ++carve_skips_;
      if (telemetry_)
        telemetry_->metrics.counter("sched.policy.reservation_carve_skips").inc();
    }
    return true;
  };

  std::vector<JobId> out;
  blocked_head_ = kNoJob;
  std::size_t cursor = 0;

  // Start phase: launch in priority order while candidates fit.  A
  // limit-held job is skipped outright -- as in Slurm, a held job gets
  // no reservation and never blocks the queue behind it.
  while (cursor < ranked.size()) {
    const Job& job = pool.get(ranked[cursor].id);
    const JobRef& ref = *ranked[cursor].ref;
    if (held_by_limits(job, ref)) {
      ++cursor;
      continue;
    }
    if (carve_blocks(job)) break;  // blocked head
    free_nodes -= job.nodes;
    if (config_.enforce_limits) config_.accounts.add_usage(usage, job, ref.keys);
    out.push_back(job.id);
    ++cursor;
  }
  if (cursor >= ranked.size()) return out;
  blocked_head_ = ranked[cursor].id;
  if (free_nodes <= 0) return out;

  // Shadow reservation for the blocked head, exactly as the EASY pass:
  // walk active jobs in expected-end order until the head fits.
  const Job& head = pool.get(blocked_head_);
  auto& releases = scratch_.releases;
  releases.clear();
  releases.reserve(pool.active().size());
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    releases.emplace_back(expected_end(job, now), job.nodes);
  }
  std::sort(releases.begin(), releases.end());
  SimTime shadow = kTimeNever;
  int avail = free_nodes;
  int spare = 0;
  for (const auto& [end, nodes] : releases) {
    avail += nodes;
    if (avail >= head.nodes) {
      shadow = end;
      spare = avail - head.nodes;
      break;
    }
  }
  ++cursor;

  // Backfill phase: fits now, cannot delay the head's shadow start, and
  // never crosses a reservation window it is not allowed into.
  for (; cursor < ranked.size(); ++cursor) {
    if (free_nodes <= 0) break;
    const Job& job = pool.get(ranked[cursor].id);
    const JobRef& ref = *ranked[cursor].ref;
    if (job.nodes > free_nodes) continue;
    if (held_by_limits(job, ref)) continue;
    if (carve_blocks(job)) continue;
    const SimTime est = job.estimate_used > 0 ? job.estimate_used : job.user_estimate;
    const bool ends_before_shadow = shadow == kTimeNever || now + est <= shadow;
    const bool fits_spare = shadow == kTimeNever || job.nodes <= spare;
    if (ends_before_shadow || fits_spare) {
      free_nodes -= job.nodes;
      if (fits_spare && !ends_before_shadow) spare -= job.nodes;
      if (config_.enforce_limits) config_.accounts.add_usage(usage, job, ref.keys);
      out.push_back(job.id);
      ++backfilled_;
      if (telemetry_) telemetry_->metrics.counter("sched.backfill_decisions").inc();
    }
  }
  return out;
}

std::vector<PreemptionOrder> PolicyScheduler::preemption_orders(const JobPool& pool,
                                                                int free_nodes,
                                                                SimTime now) {
  if (!config_.enable_preemption || config_.preempt_mode == PreemptMode::Off)
    return {};
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
