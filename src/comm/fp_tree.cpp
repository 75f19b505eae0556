#include "comm/fp_tree.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/telemetry.hpp"

namespace eslurm::comm {
namespace {

void mark_leaves(std::size_t begin, std::size_t end, int width, std::vector<bool>& leaf) {
  // Mirrors the live fan-out: each group's head becomes an internal node
  // (unless it has no subtree) and the tail recurses.
  for (const Range& group : partition_range(begin, end, width)) {
    if (group.size() == 1) {
      leaf[group.begin] = true;
    } else {
      mark_leaves(group.begin + 1, group.end, width, leaf);
    }
  }
}

std::uint64_t hash_list(const std::vector<NodeId>& list) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (NodeId id : list) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<bool> locate_leaf_positions(std::size_t n, int width) {
  std::vector<bool> leaf(n, false);
  mark_leaves(0, n, width, leaf);
  return leaf;
}

LeafLayout build_leaf_layout(std::size_t n, int width) {
  LeafLayout layout;
  layout.leaf = locate_leaf_positions(n, width);
  layout.leaf_rank.assign(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (layout.leaf[pos]) {
      layout.leaf_rank[pos] = static_cast<std::uint32_t>(layout.leaf_pos.size());
      layout.leaf_pos.push_back(static_cast<std::uint32_t>(pos));
    }
  }
  return layout;
}

std::vector<NodeId> rearrange_nodelist(const std::vector<NodeId>& list, int width,
                                       const cluster::FailurePredictor& predictor,
                                       RearrangeStats* stats) {
  const std::size_t n = list.size();
  const std::vector<bool> leaf = locate_leaf_positions(n, width);

  // Split the input (stably) into healthy and predicted-failed queues.
  std::vector<NodeId> healthy, predicted;
  healthy.reserve(n);
  for (NodeId node : list)
    (predictor.predicted_failed(node) ? predicted : healthy).push_back(node);

  RearrangeStats local;
  local.predicted = predicted.size();

  std::vector<NodeId> out(n);
  std::size_t h = 0, p = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (leaf[pos]) ++local.leaf_slots;
    const bool want_predicted = leaf[pos];
    NodeId chosen;
    if (want_predicted) {
      if (p < predicted.size()) {
        chosen = predicted[p++];
        ++local.predicted_on_leaf;
      } else {
        chosen = healthy[h++];
      }
    } else {
      if (h < healthy.size()) {
        chosen = healthy[h++];
      } else {
        chosen = predicted[p++];
      }
    }
    out[pos] = chosen;
  }
  if (stats) *stats = local;
  return out;
}

// ---------------------------------------------------------------------------
// IncrementalFpList
//
// Invariants (regime A, P = |pred_seq_| <= L = leaf slots):
//   * out[leaf_pos[i]] = base[pred_seq[i]] for i in [0, P): the predicted
//     queue is drained at the first P leaf positions, exactly as in
//     rearrange_nodelist (the queue cannot exhaust before rank P).
//   * every other position is a "healthy position"; listing them in
//     ascending order, the i-th holds base[healthy_seq[i]].  The healthy
//     queue cannot exhaust early because the counts match one-to-one.
//   * the healthy position of rank i has a closed form: all excluded
//     positions lie at or below F = leaf_pos[P-1], so with
//     t = F + 1 - P, rank i >= t sits at position i + P; rank i < t is
//     found by walking down from F skipping leaf positions (every leaf
//     at or below F is excluded).
// When P > L (regime B) the closed forms do not hold and every flip
// falls back to an O(n) refill that still reuses the cached layout and
// membership queues.

IncrementalFpList::IncrementalFpList(std::vector<NodeId> base, const LeafLayout* layout,
                                     const cluster::FailurePredictor& predictor)
    : base_(std::move(base)),
      layout_(layout),
      out_(std::make_shared<std::vector<NodeId>>(base_.size())) {
  const std::size_t n = base_.size();
  index_of_.reserve(n);
  pred_.resize(n);
  healthy_seq_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_of_.emplace(base_[i], static_cast<std::uint32_t>(i));
    const bool p = predictor.predicted_failed(base_[i]);
    pred_[i] = p;
    (p ? pred_seq_ : healthy_seq_).push_back(static_cast<std::uint32_t>(i));
  }
  regime_b_ = pred_seq_.size() > layout_->leaf_slots();
  refill();
}

std::shared_ptr<const std::vector<NodeId>> IncrementalFpList::out() { return out_; }

std::vector<NodeId>& IncrementalFpList::mutable_out() {
  // Copy-on-write: broadcasts in flight hold the previous snapshot.
  if (out_.use_count() > 1) out_ = std::make_shared<std::vector<NodeId>>(*out_);
  return *out_;
}

void IncrementalFpList::refill() {
  auto& out = mutable_out();
  const std::size_t n = base_.size();
  const auto& leaf = layout_->leaf;
  std::size_t h = 0, p = 0;
  RearrangeStats s;
  s.leaf_slots = layout_->leaf_slots();
  s.predicted = pred_seq_.size();
  for (std::size_t pos = 0; pos < n; ++pos) {
    std::uint32_t idx;
    if (leaf[pos]) {
      if (p < pred_seq_.size()) {
        idx = pred_seq_[p++];
        ++s.predicted_on_leaf;
      } else {
        idx = healthy_seq_[h++];
      }
    } else {
      if (h < healthy_seq_.size()) {
        idx = healthy_seq_[h++];
      } else {
        idx = pred_seq_[p++];
      }
    }
    out[pos] = base_[idx];
  }
  stats_ = s;
}

void IncrementalFpList::write_healthy_ranks(std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  auto& out = mutable_out();
  const std::size_t P = pred_seq_.size();
  if (P == 0) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = base_[healthy_seq_[i]];
    return;
  }
  const std::size_t F = layout_->leaf_pos[P - 1];
  const std::size_t t = F + 1 - P;
  // Ranks at or above the last excluded leaf sit contiguously at i + P.
  for (std::size_t i = std::max(lo, t); i < hi; ++i)
    out[i + P] = base_[healthy_seq_[i]];
  if (lo < t) {
    // Ranks below t interleave with excluded leaves; walk down from F
    // skipping leaf positions.  Callers only ever request ranges whose
    // upper end reaches t, so every step of the walk writes.
    const std::size_t stop = std::min(hi, t);
    std::size_t i = t;
    std::size_t pos = F;
    while (i > lo) {
      --pos;
      while (layout_->leaf[pos]) --pos;
      --i;
      if (i < stop) out[pos] = base_[healthy_seq_[i]];
    }
  }
}

void IncrementalFpList::apply_flip(NodeId node, bool now_predicted) {
  const auto it = index_of_.find(node);
  if (it == index_of_.end()) return;
  const std::uint32_t m = it->second;
  if (pred_[m] == now_predicted) return;
  pred_[m] = now_predicted;
  ++out_version_;

  std::size_t j, k;
  if (now_predicted) {
    const auto hit = std::lower_bound(healthy_seq_.begin(), healthy_seq_.end(), m);
    k = static_cast<std::size_t>(hit - healthy_seq_.begin());
    healthy_seq_.erase(hit);
    const auto pit = std::lower_bound(pred_seq_.begin(), pred_seq_.end(), m);
    j = static_cast<std::size_t>(pit - pred_seq_.begin());
    pred_seq_.insert(pit, m);
  } else {
    const auto pit = std::lower_bound(pred_seq_.begin(), pred_seq_.end(), m);
    j = static_cast<std::size_t>(pit - pred_seq_.begin());
    pred_seq_.erase(pit);
    const auto hit = std::lower_bound(healthy_seq_.begin(), healthy_seq_.end(), m);
    k = static_cast<std::size_t>(hit - healthy_seq_.begin());
    healthy_seq_.insert(hit, m);
  }

  const std::size_t P = pred_seq_.size();
  const std::size_t L = layout_->leaf_slots();
  if (regime_b_ || P > L) {
    regime_b_ = P > L;
    refill();
    return;
  }

  // Predicted ranks [j, P) shifted; rewrite their leaf slots.
  {
    auto& out = mutable_out();
    for (std::size_t i = j; i < P; ++i)
      out[layout_->leaf_pos[i]] = base_[pred_seq_[i]];
  }
  // Healthy side: the flipped node left (entered) the healthy sequence at
  // rank k, and position leaf_pos[P-1] left (leaf_pos[P] rejoined) the
  // healthy position set at rank r; contents between the two ranks shift
  // by one, everything outside is untouched.
  if (now_predicted) {
    const std::size_t r = static_cast<std::size_t>(layout_->leaf_pos[P - 1]) - P + 1;
    write_healthy_ranks(std::min(k, r), std::max(k, r));
  } else {
    const std::size_t r = static_cast<std::size_t>(layout_->leaf_pos[P]) - P;
    write_healthy_ranks(std::min(k, r), std::max(k, r) + 1);
  }
  stats_.predicted = P;
  stats_.predicted_on_leaf = P;
  stats_.leaf_slots = L;
}

// ---------------------------------------------------------------------------
// FpTreeBroadcaster

FpTreeBroadcaster::FpTreeBroadcaster(net::Network& network,
                                     const cluster::FailurePredictor& predictor,
                                     std::string name,
                                     net::ReliableTransport* transport)
    : TreeBroadcaster(network, std::move(name), transport), predictor_(predictor) {
  if (predictor_.supports_change_hooks()) {
    predictor_.add_change_hook([this](NodeId node, bool now_predicted) {
      for (const auto& entry : cache_)
        if (entry->list.contains(node)) entry->pending.emplace_back(node, now_predicted);
    });
    hooks_registered_ = true;
  }
}

std::shared_ptr<const std::vector<NodeId>> FpTreeBroadcaster::prepare(
    std::shared_ptr<const std::vector<NodeId>> targets, const BroadcastOptions& options) {
  if (!hooks_registered_ || targets->size() < kMinIncrementalSize)
    return prepare_full(*targets, options);

  const std::uint64_t hash = hash_list(*targets);
  CacheEntry* entry = lookup(*targets, options.tree_width, hash);
  const bool from_cache = entry != nullptr;
  if (entry) {
    for (const auto& [node, now_predicted] : entry->pending) {
      entry->list.apply_flip(node, now_predicted);
      ++incremental_updates_;
    }
    entry->pending.clear();
  } else {
    entry = insert(*targets, options.tree_width, hash);
    if (!entry) return prepare_full(*targets, options);  // duplicate ids
  }
  entry->last_used = ++use_clock_;
#ifndef NDEBUG
  // The incremental arrangement must be bit-identical to a from-scratch
  // rebuild under the predictor's current state.
  assert(*entry->list.out() ==
         rearrange_nodelist(entry->list.base(), options.tree_width, predictor_));
#endif
  auto out = entry->list.out();
  account(entry->list.stats(), entry, *out, options.tree_width, from_cache);
  return out;
}

std::shared_ptr<const std::vector<NodeId>> FpTreeBroadcaster::prepare_full(
    const std::vector<NodeId>& targets, const BroadcastOptions& options) {
  RearrangeStats stats;
  auto rearranged = std::make_shared<const std::vector<NodeId>>(
      rearrange_nodelist(targets, options.tree_width, predictor_, &stats));
  if (auto* t = telemetry_) {
    // Telemetry records sim-time only: the rebuild's host cost is what
    // bench_fp_tree_construction times, and the sim charges it through
    // satellite_per_node_us.
    t->metrics.counter("comm.fp_rebuilds").inc();
    t->tracer.instant("fp-tree-rebuild", "comm",
                      {{"nodes", static_cast<double>(targets.size())},
                       {"predicted", static_cast<double>(stats.predicted)},
                       {"leaf_slots", static_cast<double>(stats.leaf_slots)}});
  }
  cumulative_.predicted += stats.predicted;
  cumulative_.predicted_on_leaf += stats.predicted_on_leaf;
  cumulative_.leaf_slots += stats.leaf_slots;
  if (ground_truth_) {
    const auto leaf = locate_leaf_positions(rearranged->size(), options.tree_width);
    for (std::size_t pos = 0; pos < rearranged->size(); ++pos) {
      if (ground_truth_((*rearranged)[pos])) {
        ++cumulative_.failed_encountered;
        if (leaf[pos]) ++cumulative_.failed_on_leaf;
      }
    }
  }
  ++trees_;
  return rearranged;
}

FpTreeBroadcaster::CacheEntry* FpTreeBroadcaster::lookup(
    const std::vector<NodeId>& targets, int width, std::uint64_t hash) {
  for (const auto& entry : cache_) {
    if (entry->list_hash == hash && entry->width == width &&
        entry->list.base() == targets)
      return entry.get();
  }
  return nullptr;
}

FpTreeBroadcaster::CacheEntry* FpTreeBroadcaster::insert(
    const std::vector<NodeId>& targets, int width, std::uint64_t hash) {
  if (cache_.size() >= kMaxCacheEntries) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cache_.size(); ++i)
      if (cache_[i]->last_used < cache_[victim]->last_used) victim = i;
    cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  const LeafLayout* layout = layout_for(targets.size(), width);
  auto entry = std::make_unique<CacheEntry>(targets, layout, predictor_);
  if (!entry->list.well_formed()) return nullptr;
  entry->width = width;
  entry->list_hash = hash;
  cache_.push_back(std::move(entry));
  return cache_.back().get();
}

const LeafLayout* FpTreeBroadcaster::layout_for(std::size_t n, int width) {
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 16) ^
                            static_cast<std::uint64_t>(static_cast<unsigned>(width));
  auto& slot = layouts_[key];
  if (!slot) slot = std::make_unique<LeafLayout>(build_leaf_layout(n, width));
  return slot.get();
}

void FpTreeBroadcaster::account(const RearrangeStats& stats, CacheEntry* entry,
                                const std::vector<NodeId>& out, int width,
                                bool from_cache) {
  (void)width;
  ++trees_;
  if (from_cache) ++cache_hits_;
  cumulative_.predicted += stats.predicted;
  cumulative_.predicted_on_leaf += stats.predicted_on_leaf;
  cumulative_.leaf_slots += stats.leaf_slots;
  if (auto* t = telemetry_)
    t->metrics.counter(from_cache ? "comm.fp_cache_served" : "comm.fp_rebuilds").inc();
  if (ground_truth_) {
    const std::uint64_t version = entry->list.out_version();
    bool recompute = true;
    if (ground_truth_epoch_) {
      const std::uint64_t epoch = ground_truth_epoch_();
      recompute = epoch != entry->gt_epoch || version != entry->gt_out_version;
      entry->gt_epoch = epoch;
    }
    if (recompute) {
      const auto& leaf = entry->list.layout().leaf;
      std::size_t failed = 0, on_leaf = 0;
      for (std::size_t pos = 0; pos < out.size(); ++pos) {
        if (ground_truth_(out[pos])) {
          ++failed;
          if (leaf[pos]) ++on_leaf;
        }
      }
      entry->gt_failed = failed;
      entry->gt_failed_on_leaf = on_leaf;
      entry->gt_out_version = version;
    }
    cumulative_.failed_encountered += entry->gt_failed;
    cumulative_.failed_on_leaf += entry->gt_failed_on_leaf;
  }
}

}  // namespace eslurm::comm
