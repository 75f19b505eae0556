// Account hierarchy: the bank-account tree production Slurm keeps in
// slurmdbd, with two jobs here:
//
//   * admission (acct_policy.c equivalents): per-user and per-account
//     caps on running jobs and nodes, and a node-seconds budget charged
//     on completion -- each checked up the whole parent chain, so a
//     division cap binds every project under it;
//   * hierarchical fair-share (Slurm's Fair Tree): every tree level
//     ranks its children by shares-vs-decayed-usage, and users get a
//     rank-order factor in (0, 1] -- an upgrade over the flat per-user
//     FairshareTracker that makes a heavy *project* depress all of its
//     members, not just the one user who burned the hours.
//
// The tree self-assembles from the jobs it sees (`ensure_user`): traces
// only need user -> account tags; explicit add_account/set_user calls
// layer limits and shares on top.
//
// Names are interned once, at registration, into dense UserId/AccountId
// indexes of flat tables; the hot paths (admission, live usage, charges,
// the Fair Tree walk) take ids and hash no strings.  A caller resolves a
// job's ids with `keys_of` and may keep them until `generation()` moves.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/job_pool.hpp"
#include "sched/policy/qos.hpp"

namespace eslurm::sched::policy {

/// Caps applied to one account, binding for the whole subtree under it.
struct AccountLimits {
  int max_running_jobs = std::numeric_limits<int>::max();  ///< GrpJobs
  int max_nodes = std::numeric_limits<int>::max();         ///< GrpTRES=node
  /// Total node-seconds the subtree may consume over the run; exhausted
  /// budgets hold further jobs (GrpTRESMins-style, without decay).
  double node_seconds_budget = std::numeric_limits<double>::infinity();
};

/// Caps applied to one user across all their jobs.
struct UserLimits {
  int max_running_jobs = std::numeric_limits<int>::max();
  int max_nodes = std::numeric_limits<int>::max();
};

using UserId = std::uint32_t;
using AccountId = std::uint32_t;
/// A user name with no registration (the "" user, or one not seen yet).
inline constexpr UserId kNoUser = std::numeric_limits<UserId>::max();
/// The tree root: no caps, no budget.  Jobs whose account is untagged,
/// unknown or unregistered charge no account.
inline constexpr AccountId kRootAccount = 0;

/// Why admission holds a job.  The names are the `reason` label of the
/// sched.policy.limit_holds counter.
enum class HoldReason : std::uint8_t {
  QosUserMaxJobs,
  QosUserMaxNodes,
  UserMaxJobs,
  UserMaxNodes,
  AccountMaxJobs,
  AccountMaxNodes,
  AccountBudget,
};
const char* hold_reason_name(HoldReason reason);

/// A job's place in the tree: its user and the account it charges (its
/// own tag, else its user's registration).
struct JobKeys {
  UserId user = kNoUser;
  AccountId account = kRootAccount;
};

/// Live concurrency snapshot, aggregated by the scheduler from the pool's
/// active jobs (plus in-pass admissions) each cycle.  Keeping it derived
/// from the pool -- not an incrementally maintained counter -- makes the
/// admission view impossible to desynchronize from reality.  Reusing one
/// snapshot across cycles keeps its storage.
struct LiveUsage {
  struct Entry {
    int running_jobs = 0;
    int nodes = 0;
  };
  std::vector<Entry> by_user;     ///< by UserId
  std::vector<Entry> by_account;  ///< by AccountId
  /// Users that had no registration when their jobs were counted (such
  /// as ""): QoS per-user caps still apply to them.
  std::unordered_map<std::string, Entry> unregistered;
};

class AccountTree {
 public:
  /// `half_life` governs the fair-tree usage decay (Slurm
  /// PriorityDecayHalfLife).
  explicit AccountTree(SimTime half_life = days(7));

  // --- construction ----------------------------------------------------
  /// Adds/updates an account.  `parent` must already exist ("" = root)
  /// and must not lie in the account's own subtree.
  void add_account(const std::string& name, const std::string& parent = "",
                   double shares = 1.0, AccountLimits limits = {});
  /// Registers/updates a user under `account` ("" = directly under root).
  /// Unknown accounts are created on the fly with default limits.
  void set_user(const std::string& user, const std::string& account,
                double shares = 1.0, UserLimits limits = {});
  /// Lazily registers an unknown user the first time a job of theirs is
  /// seen, under the job's account tag.  Known users are untouched.
  void ensure_user(const std::string& user, const std::string& account);

  bool has_account(const std::string& name) const { return account_ids_.count(name) > 0; }
  bool has_user(const std::string& user) const { return user_ids_.count(user) > 0; }
  /// The account a user is registered under ("" when unknown / root).
  const std::string& account_of(const std::string& user) const;
  std::size_t user_count() const { return users_.size(); }

  /// Resolves a job's ids.  They stay valid until generation() changes:
  /// registering a user or an account, or moving a user, bumps it.
  JobKeys keys_of(const Job& job) const;
  std::uint64_t generation() const { return generation_; }

  // --- live usage ------------------------------------------------------
  /// Aggregates the pool's active (starting/running/completing) jobs into
  /// `usage`; `keys(job)` supplies each job's ids.
  template <typename KeysOf>
  void usage_from(const JobPool& pool, LiveUsage& usage, KeysOf&& keys) const {
    usage.by_user.assign(users_.size(), {});
    usage.by_account.assign(accounts_.size(), {});
    usage.unregistered.clear();
    for (const JobId id : pool.active()) {
      const Job& job = pool.get(id);
      if (job.finished()) continue;  // completing: resources counted until release
      add_usage(usage, job, keys(job));
    }
  }
  void usage_from(const JobPool& pool, LiveUsage& usage) const {
    usage_from(pool, usage, [this](const Job& job) { return keys_of(job); });
  }
  /// Adds one job to a live snapshot (in-pass admission bookkeeping).
  void add_usage(LiveUsage& usage, const Job& job, JobKeys keys) const;
  void add_usage(LiveUsage& usage, const Job& job) const {
    add_usage(usage, job, keys_of(job));
  }

  /// acct_policy-style admission: nullopt when the job may start, else
  /// why not.  QoS caps are checked first, then the user's, then each
  /// account up the chain.
  std::optional<HoldReason> may_start(const Job& job, JobKeys keys, const QosClass& qos,
                                      const LiveUsage& usage) const;
  std::optional<HoldReason> may_start(const Job& job, const QosClass& qos,
                                      const LiveUsage& usage) const {
    return may_start(job, keys_of(job), qos, usage);
  }

  /// Counts limit entries exceeded by `usage` (audit invariant; 0 when
  /// admission is doing its job).
  std::size_t violations(const LiveUsage& usage) const;

  // --- consumption ledger ----------------------------------------------
  /// Charges completed (or preempted-partial) consumption: budget ledger
  /// plus decayed fair-tree usage for the user and every ancestor.  A
  /// charge to an unregistered user counts once they register.
  void charge(const Job& job, JobKeys keys, double node_seconds, SimTime now);
  void charge(const Job& job, double node_seconds, SimTime now) {
    charge(job, keys_of(job), node_seconds, now);
  }
  /// Un-decayed node-seconds charged against an account's budget so far.
  double charged_node_seconds(const std::string& account) const;
  double decayed_usage(const std::string& user, SimTime now) const;

  // --- fair tree -------------------------------------------------------
  /// Fair-tree factor in (0, 1] per registered user at `now`, indexed by
  /// UserId: each tree level is ranked by (shares fraction) / (decayed
  /// usage fraction), ties by name then accounts before users, and users
  /// receive rank / user_count in traversal order.  Reuses `out`'s
  /// storage; not safe to call on one tree from two threads at once.
  void fair_tree_factors(SimTime now, std::vector<double>& out) const;
  /// The same factors keyed by user name.
  std::unordered_map<std::string, double> fair_tree_factors(SimTime now) const;

 private:
  struct DecayEntry {
    double usage = 0.0;
    SimTime as_of = 0;
  };
  struct Account {
    std::string name;
    AccountId parent = kRootAccount;
    double shares = 1.0;
    AccountLimits limits;
    DecayEntry usage;
    double budget_spent = 0.0;  ///< budgets do not decay
    std::vector<AccountId> child_accounts;
    std::vector<UserId> child_users;
  };
  struct User {
    std::string name;
    AccountId account = kRootAccount;
    double shares = 1.0;
    UserLimits limits;
    DecayEntry usage;
  };
  /// One child in the Fair Tree walk.
  struct Ranked {
    double level_fs = 0.0;
    double usage = 0.0;
    std::uint32_t id = 0;
    bool is_user = false;
  };

  /// What `user` holds in `usage`, by id and, for a name counted before
  /// it was registered, by name.
  LiveUsage::Entry held_by_user(const LiveUsage& usage, UserId user,
                                const std::string& name) const;
  double decayed(const DecayEntry& entry, SimTime now) const;
  void accrue(DecayEntry& entry, double node_seconds, SimTime now) const;
  /// Pushes `parent`'s children onto the walk stack, best-ranked on top.
  void push_ranked_children(AccountId parent, SimTime now) const;

  SimTime half_life_;
  std::uint64_t generation_ = 1;
  std::vector<Account> accounts_;  ///< [kRootAccount] is the root
  std::vector<User> users_;
  std::unordered_map<std::string, AccountId> account_ids_;
  std::unordered_map<std::string, UserId> user_ids_;
  /// Charges to users with no registration yet, by name.
  std::unordered_map<std::string, DecayEntry> unregistered_usage_;
  mutable std::vector<Ranked> walk_;  ///< Fair Tree stack, reused
};

}  // namespace eslurm::sched::policy
