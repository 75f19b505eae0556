#include "sched/policy/accounts.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eslurm::sched::policy {

const char* hold_reason_name(HoldReason reason) {
  static constexpr const char* kNames[] = {
      "qos-user-max-jobs", "qos-user-max-nodes", "user-max-jobs", "user-max-nodes",
      "account-max-jobs", "account-max-nodes", "account-budget"};
  return kNames[static_cast<std::size_t>(reason)];
}

AccountTree::AccountTree(SimTime half_life) : half_life_(half_life) {
  if (half_life_ <= 0) throw std::invalid_argument("AccountTree: half_life > 0");
  accounts_.emplace_back();  // the root
}

void AccountTree::add_account(const std::string& name, const std::string& parent,
                              double shares, AccountLimits limits) {
  if (name.empty()) throw std::invalid_argument("AccountTree: account needs a name");
  AccountId parent_id = kRootAccount;
  if (!parent.empty()) {
    const auto it = account_ids_.find(parent);
    if (it == account_ids_.end())
      throw std::invalid_argument("AccountTree: unknown parent account");
    parent_id = it->second;
  }
  const auto [it, inserted] =
      account_ids_.try_emplace(name, static_cast<AccountId>(accounts_.size()));
  const AccountId id = it->second;
  if (inserted) {
    accounts_.push_back(Account{.name = name, .parent = parent_id});
    accounts_[parent_id].child_accounts.push_back(id);
    ++generation_;
  } else if (accounts_[id].parent != parent_id) {
    for (AccountId up = parent_id; up != kRootAccount; up = accounts_[up].parent)
      if (up == id)
        throw std::invalid_argument("AccountTree: parent inside the account's subtree");
    std::erase(accounts_[accounts_[id].parent].child_accounts, id);
    accounts_[parent_id].child_accounts.push_back(id);
    accounts_[id].parent = parent_id;
  }
  accounts_[id].shares = shares;
  accounts_[id].limits = limits;
}

void AccountTree::set_user(const std::string& user, const std::string& account,
                           double shares, UserLimits limits) {
  if (user.empty()) throw std::invalid_argument("AccountTree: user needs a name");
  if (!account.empty() && !account_ids_.count(account))
    add_account(account);  // self-assembly: unseen accounts hang off root
  const AccountId account_id = account.empty() ? kRootAccount : account_ids_.at(account);
  const auto [it, inserted] =
      user_ids_.try_emplace(user, static_cast<UserId>(users_.size()));
  const UserId id = it->second;
  if (inserted) {
    users_.push_back(User{.name = user, .account = account_id});
    if (const auto early = unregistered_usage_.find(user);
        early != unregistered_usage_.end()) {
      users_.back().usage = early->second;
      unregistered_usage_.erase(early);
    }
    accounts_[account_id].child_users.push_back(id);
    ++generation_;
  } else if (users_[id].account != account_id) {
    std::erase(accounts_[users_[id].account].child_users, id);
    accounts_[account_id].child_users.push_back(id);
    users_[id].account = account_id;
    ++generation_;
  }
  users_[id].shares = shares;
  users_[id].limits = limits;
}

void AccountTree::ensure_user(const std::string& user, const std::string& account) {
  if (user.empty() || user_ids_.count(user)) return;
  set_user(user, account);
}

const std::string& AccountTree::account_of(const std::string& user) const {
  const auto it = user_ids_.find(user);
  const AccountId account = it == user_ids_.end() ? kRootAccount
                                                  : users_[it->second].account;
  return accounts_[account].name;
}

JobKeys AccountTree::keys_of(const Job& job) const {
  JobKeys keys;
  if (const auto it = user_ids_.find(job.user); it != user_ids_.end())
    keys.user = it->second;
  if (!job.account.empty()) {
    // An unregistered tag charges nothing: no caps apply.
    if (const auto it = account_ids_.find(job.account); it != account_ids_.end())
      keys.account = it->second;
  } else if (keys.user != kNoUser) {
    keys.account = users_[keys.user].account;
  }
  return keys;
}

void AccountTree::add_usage(LiveUsage& usage, const Job& job, JobKeys keys) const {
  const auto slot = [](std::vector<LiveUsage::Entry>& entries, std::uint32_t id) -> auto& {
    if (id >= entries.size()) entries.resize(id + 1);
    return entries[id];
  };
  LiveUsage::Entry& user = keys.user == kNoUser ? usage.unregistered[job.user]
                                                : slot(usage.by_user, keys.user);
  ++user.running_jobs;
  user.nodes += job.nodes;
  for (AccountId a = keys.account; a != kRootAccount; a = accounts_[a].parent) {
    LiveUsage::Entry& account = slot(usage.by_account, a);
    ++account.running_jobs;
    account.nodes += job.nodes;
  }
}

LiveUsage::Entry AccountTree::held_by_user(const LiveUsage& usage, UserId user,
                                           const std::string& name) const {
  LiveUsage::Entry held;
  if (user < usage.by_user.size()) held = usage.by_user[user];
  if (!usage.unregistered.empty()) {
    const auto it = usage.unregistered.find(user == kNoUser ? name : users_[user].name);
    if (it != usage.unregistered.end()) {
      held.running_jobs += it->second.running_jobs;
      held.nodes += it->second.nodes;
    }
  }
  return held;
}

std::optional<HoldReason> AccountTree::may_start(const Job& job, JobKeys keys,
                                                 const QosClass& qos,
                                                 const LiveUsage& usage) const {
  const LiveUsage::Entry mine = held_by_user(usage, keys.user, job.user);
  // Per-QoS per-user caps bind first (Slurm checks QOS before
  // association limits).
  if (mine.running_jobs + 1 > qos.max_running_jobs_per_user)
    return HoldReason::QosUserMaxJobs;
  if (mine.nodes + job.nodes > qos.max_nodes_per_user) return HoldReason::QosUserMaxNodes;

  if (keys.user != kNoUser) {
    const UserLimits& limits = users_[keys.user].limits;
    if (mine.running_jobs + 1 > limits.max_running_jobs) return HoldReason::UserMaxJobs;
    if (mine.nodes + job.nodes > limits.max_nodes) return HoldReason::UserMaxNodes;
  }

  for (AccountId a = keys.account; a != kRootAccount; a = accounts_[a].parent) {
    const Account& account = accounts_[a];
    const LiveUsage::Entry held =
        a < usage.by_account.size() ? usage.by_account[a] : LiveUsage::Entry{};
    if (held.running_jobs + 1 > account.limits.max_running_jobs)
      return HoldReason::AccountMaxJobs;
    if (held.nodes + job.nodes > account.limits.max_nodes)
      return HoldReason::AccountMaxNodes;
    if (account.budget_spent >= account.limits.node_seconds_budget)
      return HoldReason::AccountBudget;
  }
  return std::nullopt;
}

std::size_t AccountTree::violations(const LiveUsage& usage) const {
  // An entry counts only when it holds a job: an unused cap is no entry.
  std::size_t count = 0;
  for (UserId u = 0; u < users_.size(); ++u) {
    const LiveUsage::Entry held = held_by_user(usage, u, users_[u].name);
    if (held.running_jobs > 0 && (held.running_jobs > users_[u].limits.max_running_jobs ||
                                  held.nodes > users_[u].limits.max_nodes))
      ++count;
  }
  for (AccountId a = kRootAccount + 1; a < std::min(accounts_.size(), usage.by_account.size());
       ++a) {
    const LiveUsage::Entry& held = usage.by_account[a];
    if (held.running_jobs > 0 && (held.running_jobs > accounts_[a].limits.max_running_jobs ||
                                  held.nodes > accounts_[a].limits.max_nodes))
      ++count;
  }
  return count;
}

double AccountTree::decayed(const DecayEntry& entry, SimTime now) const {
  if (now <= entry.as_of) return entry.usage;
  const double half_lives = static_cast<double>(now - entry.as_of) / half_life_;
  return entry.usage * std::exp2(-half_lives);
}

void AccountTree::accrue(DecayEntry& entry, double node_seconds, SimTime now) const {
  entry.usage = decayed(entry, now) + node_seconds;
  entry.as_of = now;
}

void AccountTree::charge(const Job& job, JobKeys keys, double node_seconds, SimTime now) {
  if (node_seconds <= 0) return;
  accrue(keys.user == kNoUser ? unregistered_usage_[job.user] : users_[keys.user].usage,
         node_seconds, now);
  for (AccountId a = keys.account; a != kRootAccount; a = accounts_[a].parent) {
    accrue(accounts_[a].usage, node_seconds, now);
    accounts_[a].budget_spent += node_seconds;
  }
}

double AccountTree::charged_node_seconds(const std::string& account) const {
  const auto it = account_ids_.find(account);
  return it == account_ids_.end() ? 0.0 : accounts_[it->second].budget_spent;
}

double AccountTree::decayed_usage(const std::string& user, SimTime now) const {
  if (const auto it = user_ids_.find(user); it != user_ids_.end())
    return decayed(users_[it->second].usage, now);
  const auto it = unregistered_usage_.find(user);
  return it == unregistered_usage_.end() ? 0.0 : decayed(it->second, now);
}

void AccountTree::push_ranked_children(AccountId parent, SimTime now) const {
  // Level fairshare = shares fraction / decayed-usage fraction (Slurm's
  // Fair Tree).  With zero aggregate usage everything ties on shares.
  const std::size_t first = walk_.size();
  double total_shares = 0.0;
  double total_usage = 0.0;
  const auto collect = [&](std::uint32_t id, bool is_user, double shares,
                           const DecayEntry& usage) {
    walk_.push_back({shares, decayed(usage, now), id, is_user});
    total_shares += shares;
    total_usage += walk_.back().usage;
  };
  for (const AccountId a : accounts_[parent].child_accounts)
    collect(a, false, accounts_[a].shares, accounts_[a].usage);
  for (const UserId u : accounts_[parent].child_users)
    collect(u, true, users_[u].shares, users_[u].usage);
  for (std::size_t i = first; i < walk_.size(); ++i) {
    Ranked& r = walk_[i];
    const double shares_frac = total_shares > 0.0 ? r.level_fs / total_shares : 1.0;
    const double usage_frac = total_usage > 0.0 ? r.usage / total_usage : 0.0;
    r.level_fs = shares_frac / std::max(usage_frac, 1e-9);
  }
  // Rank order is (level fairshare desc, name, accounts before users), a
  // total order; the stack holds it reversed so the best child pops first.
  const auto name_of = [this](const Ranked& r) -> const std::string& {
    return r.is_user ? users_[r.id].name : accounts_[r.id].name;
  };
  std::sort(walk_.begin() + static_cast<std::ptrdiff_t>(first), walk_.end(),
            [&](const Ranked& a, const Ranked& b) {
              if (a.level_fs != b.level_fs) return a.level_fs < b.level_fs;
              if (const int c = name_of(a).compare(name_of(b)); c != 0) return c > 0;
              return a.is_user && !b.is_user;
            });
}

void AccountTree::fair_tree_factors(SimTime now, std::vector<double>& out) const {
  out.assign(users_.size(), 1.0);
  const double total_users = static_cast<double>(users_.size());
  std::size_t rank = users_.size();
  walk_.clear();
  push_ranked_children(kRootAccount, now);
  while (!walk_.empty()) {
    const Ranked top = walk_.back();
    walk_.pop_back();
    if (top.is_user) {
      out[top.id] = static_cast<double>(rank) / total_users;
      --rank;
    } else {
      push_ranked_children(top.id, now);
    }
  }
}

std::unordered_map<std::string, double> AccountTree::fair_tree_factors(
    SimTime now) const {
  std::vector<double> by_id;
  fair_tree_factors(now, by_id);
  std::unordered_map<std::string, double> factors;
  for (UserId u = 0; u < users_.size(); ++u) factors[users_[u].name] = by_id[u];
  return factors;
}

}  // namespace eslurm::sched::policy
