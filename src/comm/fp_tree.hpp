// FP-Tree: the failure-prediction-based communication tree (Section IV).
//
// The FP-Tree Constructor of Fig. 3/4 has three components:
//   1. failure-node prediction  -> a cluster::FailurePredictor plugin;
//   2. leaf-node location       -> simulate the grouping recursion
//      (Eq. 2, Theta(n)) to find which positions of the flat node list
//      become leaves of the tree;
//   3. node-list rearranging    -> O(n) pass that fills leaf positions
//      from the predicted-failed set first and non-leaf positions from
//      the healthy set first.
// The rearranged list is then broadcast through the ordinary k-ary tree,
// so a predicted-failed node can only ever stall itself, never a subtree.
//
// Incremental maintenance: the RM broadcasts the *same* participation
// lists round after round (a satellite's contiguous slice of the compute
// pool), so rebuilding the whole Theta(n) arrangement per broadcast is
// wasted work.  FpTreeBroadcaster caches each recurring list; when a
// prediction flips, only the affected output positions are rewritten --
// the predicted tail of the leaf sequence plus the healthy ranks between
// the flipped node's old slot and the leaf boundary -- O(|predicted| +
// |rank shift|) instead of Theta(n).  A debug-mode assert checks the
// incremental result against a from-scratch rebuild after every update.
// Requires a predictor that fires change hooks (supports_change_hooks);
// anyone else gets the classic full rebuild per broadcast.
#pragma once

#include <memory>
#include <unordered_map>

#include "cluster/monitoring.hpp"
#include "comm/tree.hpp"

namespace eslurm::comm {

/// Simulates the tree-construction recursion on a list of n nodes and
/// returns, for each list position, whether it ends up a leaf.
/// Runs in Theta(n) (Eq. 2 of the paper, via the master theorem).
std::vector<bool> locate_leaf_positions(std::size_t n, int width);

/// Precomputed leaf geometry of an (n, width) tree, shared by every
/// cached list of the same shape: the per-position leaf flags, each leaf
/// position's rank among leaves, and the ascending leaf-position index.
struct LeafLayout {
  std::vector<bool> leaf;                 ///< position -> is a leaf
  std::vector<std::uint32_t> leaf_rank;   ///< valid where leaf[pos]
  std::vector<std::uint32_t> leaf_pos;    ///< ascending leaf positions
  std::size_t leaf_slots() const { return leaf_pos.size(); }
};

/// Builds (or copies nothing and just computes) the layout for n, width.
LeafLayout build_leaf_layout(std::size_t n, int width);

struct RearrangeStats {
  std::size_t predicted = 0;          ///< predicted-failed nodes in the list
  std::size_t predicted_on_leaf = 0;  ///< of those, placed on leaf positions
  std::size_t leaf_slots = 0;         ///< leaf positions available
  /// Ground-truth accounting (when a truth oracle is provided): nodes
  /// that really are failed at construction time, and how many of them
  /// ended up on leaves.  This is the paper's Section VII-A metric
  /// (81.7%): unpredicted failures land on leaves only by chance.
  std::size_t failed_encountered = 0;
  std::size_t failed_on_leaf = 0;

  double leaf_placement_ratio() const {
    return predicted ? static_cast<double>(predicted_on_leaf) /
                           static_cast<double>(predicted)
                     : 1.0;
  }
  double failed_leaf_ratio() const {
    return failed_encountered ? static_cast<double>(failed_on_leaf) /
                                    static_cast<double>(failed_encountered)
                              : 1.0;
  }
};

/// Rearranges `list` so predicted-failed nodes land on leaf positions.
/// Order is stable within the healthy and predicted subsets, preserving
/// any topology-aware ordering of the input (Section IV-E).
std::vector<NodeId> rearrange_nodelist(const std::vector<NodeId>& list, int width,
                                       const cluster::FailurePredictor& predictor,
                                       RearrangeStats* stats = nullptr);

/// Incrementally-maintained FP arrangement of one fixed node list.
/// Exposed for tests and benches; FpTreeBroadcaster manages a cache of
/// these keyed by list content.  The output is always bit-identical to
/// rearrange_nodelist(base, width, predictor) for the flip history
/// applied so far.
class IncrementalFpList {
 public:
  /// Builds from scratch (Theta(n)): splits `base` into healthy and
  /// predicted queues per `predictor` and fills the output.  `layout`
  /// must outlive the list and match (base.size(), width).
  IncrementalFpList(std::vector<NodeId> base, const LeafLayout* layout,
                    const cluster::FailurePredictor& predictor);

  /// Applies one prediction flip.  Nodes not in the list are ignored.
  /// Regime A (predicted <= leaf slots, the operational norm) costs
  /// O(|predicted| + |rank shift|); crossing into or out of the
  /// pathological regime (more predicted than leaf slots) falls back to
  /// one O(n) refill that still reuses the cached layout and queues.
  void apply_flip(NodeId node, bool now_predicted);

  /// True if `node` is a member of the base list.
  bool contains(NodeId node) const { return index_of_.count(node) > 0; }

  /// False if the base list held duplicate ids (such a list cannot be
  /// flip-tracked by node id; callers should fall back to full rebuilds).
  bool well_formed() const { return index_of_.size() == base_.size(); }

  const std::vector<NodeId>& base() const { return base_; }
  std::size_t predicted_count() const { return pred_seq_.size(); }
  const LeafLayout& layout() const { return *layout_; }

  /// Current arrangement statistics (exact, O(1) in regime A).
  RearrangeStats stats() const { return stats_; }

  /// The current output; copy-on-write, so callers may hold the returned
  /// pointer across later flips and keep a stable snapshot.
  std::shared_ptr<const std::vector<NodeId>> out();
  /// Monotonic version, bumped on every output change.
  std::uint64_t out_version() const { return out_version_; }

 private:
  void refill();  ///< O(n) output rebuild from the queues (regime B path)
  void write_healthy_ranks(std::size_t lo, std::size_t hi);
  std::vector<NodeId>& mutable_out();

  std::vector<NodeId> base_;
  const LeafLayout* layout_;
  std::unordered_map<NodeId, std::uint32_t> index_of_;
  std::vector<bool> pred_;                  ///< per base index
  std::vector<std::uint32_t> healthy_seq_;  ///< ascending base indices
  std::vector<std::uint32_t> pred_seq_;     ///< ascending base indices
  std::shared_ptr<std::vector<NodeId>> out_;
  std::uint64_t out_version_ = 0;
  bool regime_b_ = false;  ///< predicted > leaf slots: closed form invalid
  RearrangeStats stats_;
};

class FpTreeBroadcaster final : public TreeBroadcaster {
 public:
  /// `transport` (optional) routes relay/done traffic through a reliable
  /// channel -- see Broadcaster.  If the predictor supports change
  /// hooks, one is registered here; the predictor must not fire hooks
  /// after this broadcaster is destroyed.
  FpTreeBroadcaster(net::Network& network, const cluster::FailurePredictor& predictor,
                    std::string name = "fp-tree",
                    net::ReliableTransport* transport = nullptr);

  /// Optional instrumentation: an oracle for nodes that are *really*
  /// failed (or failing), used only to fill the ground-truth fields of
  /// the cumulative stats.  Never consulted for the rearrangement.
  /// `epoch` (optional) reports a counter that changes whenever the
  /// oracle's answers may have changed (e.g. ClusterModel::state_epoch);
  /// with it, unchanged rounds reuse the cached ground-truth counts
  /// instead of re-probing every listed node.
  void set_ground_truth(std::function<bool(NodeId)> is_failed,
                        std::function<std::uint64_t()> epoch = nullptr) {
    ground_truth_ = std::move(is_failed);
    ground_truth_epoch_ = std::move(epoch);
  }

  /// Aggregate rearrangement statistics over all broadcasts (drives the
  /// 81.7%-of-failed-nodes-on-leaves result of Section VII-A).
  const RearrangeStats& cumulative_stats() const { return cumulative_; }
  std::uint64_t trees_constructed() const { return trees_; }
  /// Of those, how many were served from the incremental cache.
  std::uint64_t trees_from_cache() const { return cache_hits_; }
  std::uint64_t incremental_updates() const { return incremental_updates_; }

  /// Lists shorter than this are rebuilt per broadcast (the rebuild is
  /// already cheap; the cache buys nothing).
  static constexpr std::size_t kMinIncrementalSize = 512;
  /// LRU capacity: must exceed the number of distinct recurring lists
  /// (one per satellite sublist per dispatch shape) or rounds thrash.
  static constexpr std::size_t kMaxCacheEntries = 64;

 protected:
  std::shared_ptr<const std::vector<NodeId>> prepare(
      std::shared_ptr<const std::vector<NodeId>> targets,
      const BroadcastOptions& options) override;

 private:
  struct CacheEntry {
    IncrementalFpList list;
    int width = 0;
    std::uint64_t list_hash = 0;
    std::uint64_t last_used = 0;
    /// Pending prediction flips delivered by the change hook, applied
    /// lazily at the next prepare() of this list.
    std::vector<std::pair<NodeId, bool>> pending;
    // Ground-truth stats cache, valid for (gt_epoch, gt_out_version).
    std::uint64_t gt_epoch = ~0ull;
    std::uint64_t gt_out_version = ~0ull;
    std::size_t gt_failed = 0;
    std::size_t gt_failed_on_leaf = 0;

    CacheEntry(std::vector<NodeId> base, const LeafLayout* layout,
               const cluster::FailurePredictor& predictor)
        : list(std::move(base), layout, predictor) {}
  };

  std::shared_ptr<const std::vector<NodeId>> prepare_full(
      const std::vector<NodeId>& targets, const BroadcastOptions& options);
  CacheEntry* lookup(const std::vector<NodeId>& targets, int width,
                     std::uint64_t hash);
  CacheEntry* insert(const std::vector<NodeId>& targets, int width,
                     std::uint64_t hash);
  const LeafLayout* layout_for(std::size_t n, int width);
  void account(const RearrangeStats& stats, CacheEntry* entry,
               const std::vector<NodeId>& out, int width, bool from_cache);

  const cluster::FailurePredictor& predictor_;
  std::function<bool(NodeId)> ground_truth_;
  std::function<std::uint64_t()> ground_truth_epoch_;
  RearrangeStats cumulative_;
  std::uint64_t trees_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t incremental_updates_ = 0;

  bool hooks_registered_ = false;
  std::vector<std::unique_ptr<CacheEntry>> cache_;
  std::uint64_t use_clock_ = 0;
  /// Layout registry keyed by (n, width); layouts are immutable and
  /// shared by cache entries and the ground-truth accounting.
  std::unordered_map<std::uint64_t, std::unique_ptr<LeafLayout>> layouts_;
};

}  // namespace eslurm::comm
