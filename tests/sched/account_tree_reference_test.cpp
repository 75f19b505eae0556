// Reference-model test for the interned AccountTree.
//
// ReferenceAccountTree below is the string-keyed implementation the tree
// had before names were interned into dense ids: every entity keyed by
// name, decayed usage under "u:"/"a:" keys, the parent chain walked by
// name and the Fair Tree adjacency rebuilt on every call.  Random
// operation sequences drive it and the real tree side by side, and every
// observable answer must match exactly: Fair Tree factors, admission
// verdicts (by reason name), violation counts, decayed usage and budget
// ledgers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/policy/accounts.hpp"
#include "util/rng.hpp"

namespace eslurm::sched::policy {
namespace {

struct ReferenceUsage {
  struct Entry {
    int running_jobs = 0;
    int nodes = 0;
  };
  std::unordered_map<std::string, Entry> by_user;
  std::unordered_map<std::string, Entry> by_account;
};

class ReferenceAccountTree {
 public:
  explicit ReferenceAccountTree(SimTime half_life) : half_life_(half_life) {}

  void add_account(const std::string& name, const std::string& parent, double shares,
                   AccountLimits limits) {
    if (name.empty()) throw std::invalid_argument("AccountTree: account needs a name");
    if (!parent.empty() && !accounts_.count(parent))
      throw std::invalid_argument("AccountTree: unknown parent account");
    Account& account = accounts_[name];
    account.parent = parent;
    account.shares = shares;
    account.limits = limits;
  }

  void set_user(const std::string& user, const std::string& account, double shares,
                UserLimits limits) {
    if (user.empty()) throw std::invalid_argument("AccountTree: user needs a name");
    if (!account.empty() && !accounts_.count(account)) add_account(account, "", 1.0, {});
    User& entry = users_[user];
    entry.account = account;
    entry.shares = shares;
    entry.limits = limits;
  }

  void ensure_user(const std::string& user, const std::string& account) {
    if (user.empty() || users_.count(user)) return;
    set_user(user, account, 1.0, {});
  }

  bool has_account(const std::string& name) const { return accounts_.count(name) > 0; }
  bool has_user(const std::string& user) const { return users_.count(user) > 0; }
  std::size_t user_count() const { return users_.size(); }
  const std::string& account_of(const std::string& user) const {
    const auto it = users_.find(user);
    return it == users_.end() ? kEmpty : it->second.account;
  }
  /// The parent of a registered account ("" = root).
  const std::string& parent_of(const std::string& account) const {
    return accounts_.at(account).parent;
  }

  void add_usage(ReferenceUsage& usage, const Job& job) const {
    auto& user = usage.by_user[job.user];
    ++user.running_jobs;
    user.nodes += job.nodes;
    std::vector<const std::string*> names;
    chain_of(effective_account(job), nullptr, &names);
    for (const std::string* name : names) {
      auto& account = usage.by_account[*name];
      ++account.running_jobs;
      account.nodes += job.nodes;
    }
  }

  std::optional<std::string> may_start(const Job& job, const QosClass& qos,
                                       const ReferenceUsage& usage) const {
    static const ReferenceUsage::Entry kNone;
    const auto user_it = usage.by_user.find(job.user);
    const ReferenceUsage::Entry& mine =
        user_it == usage.by_user.end() ? kNone : user_it->second;
    if (mine.running_jobs + 1 > qos.max_running_jobs_per_user)
      return "qos-user-max-jobs";
    if (mine.nodes + job.nodes > qos.max_nodes_per_user) return "qos-user-max-nodes";
    if (const auto it = users_.find(job.user); it != users_.end()) {
      if (mine.running_jobs + 1 > it->second.limits.max_running_jobs)
        return "user-max-jobs";
      if (mine.nodes + job.nodes > it->second.limits.max_nodes) return "user-max-nodes";
    }
    std::vector<const Account*> accounts;
    std::vector<const std::string*> names;
    chain_of(effective_account(job), &accounts, &names);
    for (std::size_t i = 0; i < accounts.size(); ++i) {
      const AccountLimits& limits = accounts[i]->limits;
      const auto it = usage.by_account.find(*names[i]);
      const ReferenceUsage::Entry& held =
          it == usage.by_account.end() ? kNone : it->second;
      if (held.running_jobs + 1 > limits.max_running_jobs) return "account-max-jobs";
      if (held.nodes + job.nodes > limits.max_nodes) return "account-max-nodes";
      if (charged_node_seconds(*names[i]) >= limits.node_seconds_budget)
        return "account-budget";
    }
    return std::nullopt;
  }

  std::size_t violations(const ReferenceUsage& usage) const {
    std::size_t count = 0;
    for (const auto& [user, held] : usage.by_user) {
      const auto it = users_.find(user);
      if (it == users_.end()) continue;
      if (held.running_jobs > it->second.limits.max_running_jobs ||
          held.nodes > it->second.limits.max_nodes)
        ++count;
    }
    for (const auto& [account, held] : usage.by_account) {
      const auto it = accounts_.find(account);
      if (it == accounts_.end()) continue;
      if (held.running_jobs > it->second.limits.max_running_jobs ||
          held.nodes > it->second.limits.max_nodes)
        ++count;
    }
    return count;
  }

  void charge(const Job& job, double node_seconds, SimTime now) {
    if (node_seconds <= 0) return;
    charge_entity("u:" + job.user, node_seconds, now);
    std::vector<const std::string*> names;
    chain_of(effective_account(job), nullptr, &names);
    for (const std::string* name : names) {
      charge_entity("a:" + *name, node_seconds, now);
      budget_spent_[*name] += node_seconds;
    }
  }

  double charged_node_seconds(const std::string& account) const {
    const auto it = budget_spent_.find(account);
    return it == budget_spent_.end() ? 0.0 : it->second;
  }

  double decayed_usage(const std::string& user, SimTime now) const {
    const auto it = decay_.find("u:" + user);
    return it == decay_.end() ? 0.0 : decayed(it->second, now);
  }

  std::unordered_map<std::string, double> fair_tree_factors(SimTime now) const {
    std::unordered_map<std::string, double> factors;
    if (users_.empty()) return factors;
    std::unordered_map<std::string, std::vector<const std::string*>> child_accounts;
    std::unordered_map<std::string, std::vector<const std::string*>> child_users;
    for (const auto& [name, account] : accounts_)
      child_accounts[account.parent].push_back(&name);
    for (const auto& [name, user] : users_) child_users[user.account].push_back(&name);

    struct Ranked {
      double level_fs = 0.0;
      const std::string* name = nullptr;
      bool is_user = false;
    };
    const std::size_t total_users = users_.size();
    std::size_t rank = total_users;
    const auto rank_children = [&](const std::string& parent) {
      std::vector<Ranked> ranked;
      double total_shares = 0.0;
      double total_usage = 0.0;
      const auto collect = [&](const std::string* name, bool is_user, double shares,
                               double usage) {
        ranked.push_back({0.0, name, is_user});
        ranked.back().level_fs = shares;
        total_shares += shares;
        total_usage += usage;
      };
      if (const auto it = child_accounts.find(parent); it != child_accounts.end())
        for (const std::string* name : it->second) {
          const auto entry = decay_.find("a:" + *name);
          collect(name, false, accounts_.at(*name).shares,
                  entry == decay_.end() ? 0.0 : decayed(entry->second, now));
        }
      if (const auto it = child_users.find(parent); it != child_users.end())
        for (const std::string* name : it->second)
          collect(name, true, users_.at(*name).shares, decayed_usage(*name, now));
      const auto usage_of = [&](const Ranked& r) {
        if (r.is_user) return decayed_usage(*r.name, now);
        const auto entry = decay_.find("a:" + *r.name);
        return entry == decay_.end() ? 0.0 : decayed(entry->second, now);
      };
      for (Ranked& r : ranked) {
        const double shares_frac = total_shares > 0.0 ? r.level_fs / total_shares : 1.0;
        const double usage_frac = total_usage > 0.0 ? usage_of(r) / total_usage : 0.0;
        r.level_fs = shares_frac / std::max(usage_frac, 1e-9);
      }
      std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
        if (a.level_fs != b.level_fs) return a.level_fs > b.level_fs;
        return *a.name < *b.name;
      });
      return ranked;
    };
    std::vector<Ranked> stack = rank_children(kEmpty);
    std::reverse(stack.begin(), stack.end());
    while (!stack.empty()) {
      const Ranked top = stack.back();
      stack.pop_back();
      if (top.is_user) {
        factors[*top.name] = static_cast<double>(rank) / static_cast<double>(total_users);
        --rank;
      } else {
        std::vector<Ranked> children = rank_children(*top.name);
        std::reverse(children.begin(), children.end());
        stack.insert(stack.end(), children.begin(), children.end());
      }
    }
    return factors;
  }

 private:
  struct Account {
    std::string parent;
    double shares = 1.0;
    AccountLimits limits;
  };
  struct User {
    std::string account;
    double shares = 1.0;
    UserLimits limits;
  };
  struct DecayEntry {
    double usage = 0.0;
    SimTime as_of = 0;
  };
  static inline const std::string kEmpty;

  void chain_of(const std::string& account, std::vector<const Account*>* accounts,
                std::vector<const std::string*>* names) const {
    const std::string* current = &account;
    while (!current->empty()) {
      const auto it = accounts_.find(*current);
      if (it == accounts_.end()) break;
      if (accounts) accounts->push_back(&it->second);
      if (names) names->push_back(&it->first);
      current = &it->second.parent;
    }
  }
  const std::string& effective_account(const Job& job) const {
    if (!job.account.empty()) return job.account;
    return account_of(job.user);
  }
  double decayed(const DecayEntry& entry, SimTime now) const {
    if (now <= entry.as_of) return entry.usage;
    const double half_lives = static_cast<double>(now - entry.as_of) / half_life_;
    return entry.usage * std::exp2(-half_lives);
  }
  void charge_entity(const std::string& key, double node_seconds, SimTime now) {
    DecayEntry& entry = decay_[key];
    entry.usage = decayed(entry, now) + node_seconds;
    entry.as_of = now;
  }

  SimTime half_life_;
  std::unordered_map<std::string, Account> accounts_;
  std::unordered_map<std::string, User> users_;
  std::unordered_map<std::string, double> budget_spent_;
  std::unordered_map<std::string, DecayEntry> decay_;
};

/// The real tree and the reference, fed the same random operations: a
/// small name space so that operations collide on the same users and
/// accounts, caps small enough to bind, and the empty user and
/// unregistered account tags in the draw.
class TwinTrees {
 public:
  explicit TwinTrees(std::uint64_t seed) : rng_(seed), real_(days(1)), reference_(days(1)) {}

  void step() {
    now_ += static_cast<SimTime>(rng_.uniform_int(0, 3)) * hours(1);
    switch (rng_.uniform_int(0, 9)) {
      case 0: add_account(); break;
      case 1: set_user(); break;
      case 2:
      case 3: ensure_user(); break;
      case 4:
      case 5: charge(); break;
      case 6:
      case 7: add_usage(); break;
      case 8: reset_usage(); break;
      default: break;
    }
    compare();
  }

 private:
  std::string user_name() {
    const int i = static_cast<int>(rng_.uniform_int(0, 12));
    return i == 12 ? std::string() : "user" + std::to_string(i);
  }
  /// "" (root / untagged), a known-or-not account name.
  std::string account_name() {
    const int i = static_cast<int>(rng_.uniform_int(0, 8));
    return i == 8 ? std::string() : "acct" + std::to_string(i);
  }
  int cap() { return rng_.chance(0.5) ? std::numeric_limits<int>::max()
                                         : static_cast<int>(rng_.uniform_int(0, 12)); }
  double shares() { return static_cast<double>(rng_.uniform_int(1, 4)); }

  Job job() {
    Job job;
    job.id = ++next_job_;
    job.user = user_name();
    job.account = rng_.chance(0.5) ? std::string() : account_name();
    job.nodes = static_cast<int>(rng_.uniform_int(1, 6));
    return job;
  }

  void add_account() {
    std::string name = account_name();
    if (name.empty()) name = "acct0";
    std::string parent = account_name();
    // Re-parenting under the account itself or its own subtree would
    // make a cycle; both trees must refuse an unknown parent.
    if (!parent.empty() && reference_.has_account(parent) && reference_.has_account(name)) {
      for (std::string up = parent; !up.empty(); up = reference_.parent_of(up))
        if (up == name) return;
    }
    AccountLimits limits;
    limits.max_running_jobs = cap();
    limits.max_nodes = cap();
    if (rng_.chance(0.3)) limits.node_seconds_budget = 3600.0 * rng_.uniform_int(1, 10);
    const double s = shares();
    if (!parent.empty() && !reference_.has_account(parent)) {
      EXPECT_THROW(reference_.add_account(name, parent, s, limits), std::invalid_argument);
      EXPECT_THROW(real_.add_account(name, parent, s, limits), std::invalid_argument);
      return;
    }
    reference_.add_account(name, parent, s, limits);
    real_.add_account(name, parent, s, limits);
  }

  void set_user() {
    const std::string user = user_name();
    const std::string account = account_name();
    UserLimits limits;
    limits.max_running_jobs = cap();
    limits.max_nodes = cap();
    const double s = shares();
    if (user.empty()) {
      EXPECT_THROW(reference_.set_user(user, account, s, limits), std::invalid_argument);
      EXPECT_THROW(real_.set_user(user, account, s, limits), std::invalid_argument);
      return;
    }
    reference_.set_user(user, account, s, limits);
    real_.set_user(user, account, s, limits);
  }

  void ensure_user() {
    const std::string user = user_name();
    const std::string account = account_name();
    reference_.ensure_user(user, account);
    real_.ensure_user(user, account);
  }

  void charge() {
    const Job j = job();
    const double node_seconds = rng_.chance(0.1) ? 0.0 : 600.0 * rng_.uniform_int(1, 12);
    reference_.charge(j, node_seconds, now_);
    real_.charge(j, node_seconds, now_);
  }

  void add_usage() {
    const Job j = job();
    reference_.add_usage(reference_usage_, j);
    real_.add_usage(usage_, j);
  }

  void reset_usage() {
    reference_usage_ = {};
    usage_ = {};
  }

  void compare() {
    // Admission for a fresh candidate under a QoS with random caps.
    const Job candidate = job();
    QosClass qos;
    qos.max_running_jobs_per_user = cap();
    qos.max_nodes_per_user = cap();
    const auto expected = reference_.may_start(candidate, qos, reference_usage_);
    const auto got = real_.may_start(candidate, qos, usage_);
    ASSERT_EQ(expected.has_value(), got.has_value());
    if (expected) {
      EXPECT_EQ(*expected, hold_reason_name(*got));
    }

    EXPECT_EQ(reference_.violations(reference_usage_), real_.violations(usage_));
    EXPECT_EQ(reference_.user_count(), real_.user_count());

    using Factors = std::map<std::string, double>;
    const auto expected_factors = reference_.fair_tree_factors(now_);
    const auto got_factors = real_.fair_tree_factors(now_);
    EXPECT_EQ(Factors(expected_factors.begin(), expected_factors.end()),
              Factors(got_factors.begin(), got_factors.end()));

    for (int i = 0; i <= 12; ++i) {
      const std::string user = i == 12 ? std::string() : "user" + std::to_string(i);
      EXPECT_EQ(reference_.has_user(user), real_.has_user(user)) << user;
      EXPECT_EQ(reference_.account_of(user), real_.account_of(user)) << user;
      EXPECT_EQ(reference_.decayed_usage(user, now_), real_.decayed_usage(user, now_))
          << user;
    }
    for (int i = 0; i < 8; ++i) {
      const std::string account = "acct" + std::to_string(i);
      EXPECT_EQ(reference_.has_account(account), real_.has_account(account)) << account;
      EXPECT_EQ(reference_.charged_node_seconds(account),
                real_.charged_node_seconds(account))
          << account;
    }
  }

  Rng rng_;
  AccountTree real_;
  ReferenceAccountTree reference_;
  LiveUsage usage_;
  ReferenceUsage reference_usage_;
  SimTime now_ = 0;
  JobId next_job_ = 0;
};

TEST(AccountTreeReferenceTest, MatchesStringKeyedModelOnRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(seed);
    TwinTrees twins(seed);
    for (int step = 0; step < 400; ++step) {
      twins.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace eslurm::sched::policy
