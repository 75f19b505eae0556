// At-least-once reliable channel layered on Network::send.
//
// Network::send gives a single attempt with an ambiguous failure: a
// `false` completion means "no ack before the deadline", which covers a
// dead peer, a dropped message, *and* a dropped ack (where the receiver
// actually processed the message).  The ReliableTransport turns that into
// a usable contract for RM control traffic:
//
//   * sender side: every logical message carries a per-channel sequence
//     number in its header (Message::seq) and is retransmitted on failure
//     with exponential backoff + jitter, up to a retry cap; only after the
//     cap is exhausted does the caller observe a permanent failure (so
//     transient loss is absorbed, while a genuinely dead satellite still
//     surfaces as one).
//   * receiver side: handlers registered through the transport sit behind
//     a bounded dedup window keyed by (sender, channel, seq), so a
//     retransmit-after-lost-ack or a chaos-duplicated frame is acked but
//     not re-processed -- job-load, job-terminate and heartbeat messages
//     become idempotent.
//
// The result is at-least-once delivery on the wire, exactly-once
// processing at the handler (within the dedup window).  With no chaos
// injector attached the first attempt always succeeds, no retransmit
// timers fire and no extra rng draws happen, so existing runs stay
// bit-identical when a subsystem migrates onto the transport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace eslurm::telemetry {
class Counter;
}  // namespace eslurm::telemetry

namespace eslurm::net {

struct TransportOptions {
  SimTime rto_initial = milliseconds(500);  ///< first retransmit timeout
  double backoff_factor = 2.0;              ///< rto *= factor per attempt
  SimTime rto_max = seconds(8);             ///< backoff ceiling
  double jitter_frac = 0.25;                ///< +/- fraction on each rto
  int max_retries = 6;                      ///< retransmits after attempt 1
  std::size_t dedup_window = 128;           ///< seqs remembered per channel
  /// Extra bytes the reliability header adds to each frame.  Defaults to
  /// 0 so migrating a subsystem onto the transport does not perturb the
  /// link-model timing of existing (chaos-free) experiments.
  std::size_t header_bytes = 0;
};

/// Upper bound on one reliable send's duration before it reports a
/// permanent failure: every attempt timing out plus the full
/// (jitter-inflated) backoff schedule.  Watchdogs layered above the
/// transport (tree completion, RM subtask) size themselves with this so
/// they do not fire while the transport is still legitimately retrying.
SimTime worst_case_send_time(const TransportOptions& options,
                             SimTime per_attempt_timeout);

/// Receiver-side memory of one channel: the last `capacity` distinct
/// seqs admitted, in FIFO order, as a ring that grows up to `capacity`
/// and then overwrites its oldest entry.  Membership is a scan of the
/// ring, skipped whenever the seq exceeds every seq ever admitted --
/// the in-order case, so a steady stream costs O(1) per frame.
/// `evicted_max` is the highest seq ever evicted, so a late frame older
/// than the window's memory is detectable (see
/// ReliableTransport::dedup_window_wraps()).
class DedupWindow {
 public:
  enum class Verdict : std::uint8_t {
    kDeliver,    ///< first sight within the window: process it
    kDuplicate,  ///< still remembered: ack but do not re-process
    kWrapped,    ///< at or below an evicted seq: processed, boundary crossed
  };

  /// Classifies `seq` and, unless it is a duplicate, admits it (evicting
  /// the oldest remembered seq once `capacity` are held).  `capacity`
  /// must be the same on every call.
  Verdict admit(std::uint64_t seq, std::size_t capacity);

  std::size_t size() const { return ring_.size(); }

 private:
  bool remembers(std::uint64_t seq) const;

  std::vector<std::uint64_t> ring_;  ///< FIFO; once full, head_ is the oldest
  std::uint32_t head_ = 0;
  bool evicted_any_ = false;
  std::uint64_t admitted_max_ = 0;  ///< largest seq ever admitted
  std::uint64_t evicted_max_ = 0;   ///< largest seq ever evicted
};

/// Reliable sender/receiver endpoint pair multiplexed over one Network.
/// One instance serves many (from, to, type) channels; subsystems
/// typically own one transport and route all their control traffic
/// through it.
class ReliableTransport {
 public:
  /// `name` labels this transport's telemetry counters so several
  /// instances (rm, frontend, a test) stay distinguishable.
  ReliableTransport(Network& network, Rng rng, TransportOptions options = {},
                    std::string name = "transport");
  ~ReliableTransport();

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  Network& network() { return network_; }
  const TransportOptions& options() const { return options_; }

  /// Reliable counterpart of Network::send: retransmits on failure until
  /// the retry cap, then reports `ok=false` (permanent failure).
  /// `timeout` <= 0 uses the link-model default and bounds each attempt,
  /// not the whole exchange.
  void send(NodeId from, NodeId to, Message msg, SimTime timeout = 0,
            SendCallback on_complete = {});

  /// Registers `handler` for `type` on `node`, behind the dedup window.
  /// Frames arriving through this transport are deduplicated on their
  /// (msg.src, node, type) channel by msg.seq and handed to the handler
  /// with the caller's payload (msg.src / type preserved; msg.id is the
  /// network id of the delivering frame).  A raw Network::send frame on
  /// the same type counts as seq 0 of its channel.
  void register_handler(NodeId node, MessageType type, Handler handler);
  void unregister_handler(NodeId node, MessageType type);
  /// Unregisters `type` on every node, in one pass over the registrations
  /// (one unregister_handler per node would cost a pass each).
  void unregister_handlers(MessageType type);

  std::uint64_t sends() const { return sends_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t permanent_failures() const { return permanent_failures_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  /// Frames that arrived with a sequence number at or below the highest
  /// seq already evicted from their channel's dedup window.  Such a frame
  /// is *processed* (the window no longer remembers it), so a nonzero
  /// count means a sufficiently delayed retransmit -- e.g. released by a
  /// long partition after > dedup_window newer messages -- was NOT
  /// deduplicated.  The exactly-once guarantee is bounded by the window;
  /// this counter makes the boundary observable instead of silent.
  std::uint64_t dedup_window_wraps() const { return dedup_window_wraps_; }

  /// Distinct (from, to, type) channels seen by either end.
  std::size_t channels() const { return channels_.size(); }

 private:
  /// Both ends of a channel: the sender's next seq and the receiver's
  /// window.  One record serves both, since the sender's (from, to,
  /// type) and the receiver's (src, self, type) name the same channel.
  struct Channel {
    std::uint64_t next_seq = 0;
    DedupWindow window;
  };

  /// Open-addressing (linear probing) index from a packed channel key to
  /// a dense Channel slot.  Channels are never removed.  References into
  /// it are invalidated by the next insert, so callers finish with a
  /// Channel before running code that may send.
  class ChannelTable {
   public:
    Channel& get(std::uint64_t key);
    std::size_t size() const { return channels_.size(); }

   private:
    struct Bucket {
      std::uint64_t key = 0;
      std::uint32_t slot = kEmpty;
    };
    static constexpr std::uint32_t kEmpty = UINT32_MAX;

    void grow();

    std::vector<Bucket> buckets_;  ///< 2^bits_ buckets, at most half full
    int bits_ = 0;
    std::vector<Channel> channels_;
  };

  /// One logical send across its attempts.
  struct PendingSend {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    Message frame;
    SimTime timeout = 0;
    SendCallback on_complete;
    int attempt = 0;  ///< attempts started (1 = the initial send)
  };

  void attempt(std::uint32_t pending);
  void attempt_done(std::uint32_t pending, bool ok);
  SimTime backoff_delay(int attempt);

  Network& network_;
  Rng rng_;
  TransportOptions options_;
  std::string name_;

  ChannelTable channels_;
  /// In-flight logical sends; network completions and retransmit timers
  /// capture {this, index} only.
  util::SlabPool<PendingSend> pending_;
  std::vector<std::pair<NodeId, MessageType>> registered_;

  std::uint64_t sends_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t permanent_failures_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t dedup_window_wraps_ = 0;

  telemetry::Counter* sends_counter_ = nullptr;
  telemetry::Counter* retransmits_counter_ = nullptr;
  telemetry::Counter* failures_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
  telemetry::Counter* wraps_counter_ = nullptr;
};

}  // namespace eslurm::net
