#include "net/transport.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace eslurm::net {

namespace {

/// Packs a (sender, receiver, type) channel into one map key.  Node ids
/// stay well under 2^24 and message types under 2^16 for every world the
/// simulator builds, so the fields cannot collide.
std::uint64_t channel_key(NodeId from, NodeId to, MessageType type) {
  return (static_cast<std::uint64_t>(from) << 40) |
         (static_cast<std::uint64_t>(to) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(type));
}

/// Fibonacci hashing: the top `bits` bits of the key times 2^64/phi,
/// which every key bit reaches.
std::size_t bucket_of(std::uint64_t key, int bits) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

}  // namespace

SimTime worst_case_send_time(const TransportOptions& options,
                             SimTime per_attempt_timeout) {
  double backoff_sum = 0.0;
  double rto = static_cast<double>(options.rto_initial);
  for (int i = 0; i < options.max_retries; ++i) {
    backoff_sum += std::min(rto, static_cast<double>(options.rto_max));
    rto *= options.backoff_factor;
  }
  backoff_sum *= 1.0 + options.jitter_frac;
  return per_attempt_timeout * (options.max_retries + 1) +
         static_cast<SimTime>(backoff_sum);
}

DedupWindow::Verdict DedupWindow::admit(std::uint64_t seq, std::size_t capacity) {
  // A seq above every admitted one cannot be remembered: skip the scan.
  if (seq <= admitted_max_ && remembers(seq)) return Verdict::kDuplicate;
  const bool wrapped = evicted_any_ && seq <= evicted_max_;
  admitted_max_ = std::max(admitted_max_, seq);
  if (ring_.size() < capacity) {
    ring_.push_back(seq);
  } else {
    // Full (or capacity 0, which forgets a seq as soon as it is admitted):
    // the new seq takes the oldest one's place.
    std::uint64_t evicted = seq;
    if (capacity > 0) {
      evicted = ring_[head_];
      ring_[head_] = seq;
      if (++head_ == capacity) head_ = 0;
    }
    evicted_max_ = std::max(evicted_max_, evicted);
    evicted_any_ = true;
  }
  return wrapped ? Verdict::kWrapped : Verdict::kDeliver;
}

bool DedupWindow::remembers(std::uint64_t seq) const {
  return std::find(ring_.begin(), ring_.end(), seq) != ring_.end();
}

ReliableTransport::Channel& ReliableTransport::ChannelTable::get(std::uint64_t key) {
  if ((channels_.size() + 1) * 2 > buckets_.size()) grow();
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t i = bucket_of(key, bits_);; i = (i + 1) & mask) {
    Bucket& bucket = buckets_[i];
    if (bucket.slot == kEmpty) {
      bucket.key = key;
      bucket.slot = static_cast<std::uint32_t>(channels_.size());
      return channels_.emplace_back();
    }
    if (bucket.key == key) return channels_[bucket.slot];
  }
}

void ReliableTransport::ChannelTable::grow() {
  std::vector<Bucket> old = std::move(buckets_);
  bits_ = old.empty() ? 4 : bits_ + 1;
  buckets_.assign(std::size_t{1} << bits_, Bucket{});
  const std::size_t mask = buckets_.size() - 1;
  for (const Bucket& bucket : old) {
    if (bucket.slot == kEmpty) continue;
    std::size_t i = bucket_of(bucket.key, bits_);
    while (buckets_[i].slot != kEmpty) i = (i + 1) & mask;
    buckets_[i] = bucket;
  }
}

ReliableTransport::ReliableTransport(Network& network, Rng rng,
                                     TransportOptions options, std::string name)
    : network_(network),
      rng_(std::move(rng)),
      options_(options),
      name_(std::move(name)) {
  if (auto* t = network_.engine().telemetry()) {
    sends_counter_ =
        &t->metrics.counter("transport.sends", {{"transport", name_}});
    retransmits_counter_ =
        &t->metrics.counter("transport.retransmits", {{"transport", name_}});
    failures_counter_ = &t->metrics.counter("transport.permanent_failures",
                                            {{"transport", name_}});
    duplicates_counter_ = &t->metrics.counter("transport.duplicates_suppressed",
                                              {{"transport", name_}});
    wraps_counter_ = &t->metrics.counter("transport.dedup_window_wrap",
                                         {{"transport", name_}});
  }
}

ReliableTransport::~ReliableTransport() {
  for (const auto& [node, type] : registered_) {
    network_.unregister_handler(node, type);
  }
}

SimTime ReliableTransport::backoff_delay(int attempt) {
  double rto = static_cast<double>(options_.rto_initial);
  for (int i = 1; i < attempt; ++i) rto *= options_.backoff_factor;
  rto = std::min(rto, static_cast<double>(options_.rto_max));
  // Symmetric jitter desynchronizes retransmit storms; the draw only
  // happens on a retransmit, so loss-free runs touch no rng state.
  if (options_.jitter_frac > 0.0) {
    rto *= 1.0 + options_.jitter_frac * (2.0 * rng_.next_double() - 1.0);
  }
  return std::max<SimTime>(1, static_cast<SimTime>(rto));
}

void ReliableTransport::attempt(std::uint32_t pending) {
  PendingSend& p = pending_[pending];
  ++p.attempt;
  network_.send(p.from, p.to, p.frame, p.timeout,
                [this, pending](bool ok) { attempt_done(pending, ok); });
}

void ReliableTransport::attempt_done(std::uint32_t pending, bool ok) {
  PendingSend& p = pending_[pending];
  if (!ok && p.attempt <= options_.max_retries) {
    ++retransmits_;
    if (retransmits_counter_) retransmits_counter_->inc();
    network_.engine().schedule_after(backoff_delay(p.attempt),
                                     [this, pending] { attempt(pending); });
    return;
  }
  if (!ok) {
    ++permanent_failures_;
    if (failures_counter_) failures_counter_->inc();
  }
  // Free the slot before the callback runs: it may send reentrantly,
  // which can grow the pool or reuse this very slot.
  SendCallback on_complete = std::move(p.on_complete);
  p.on_complete = nullptr;
  p.frame.payload.reset();
  pending_.release(pending);
  if (on_complete) on_complete(ok);
}

void ReliableTransport::send(NodeId from, NodeId to, Message msg,
                             SimTime timeout, SendCallback on_complete) {
  ++sends_;
  if (sends_counter_) sends_counter_->inc();

  msg.seq = channels_.get(channel_key(from, to, msg.type)).next_seq++;
  msg.bytes += options_.header_bytes;

  const std::uint32_t pending = pending_.acquire();
  PendingSend& p = pending_[pending];
  p.from = from;
  p.to = to;
  p.frame = std::move(msg);
  p.timeout = timeout;
  p.on_complete = std::move(on_complete);
  p.attempt = 0;
  attempt(pending);
}

void ReliableTransport::register_handler(NodeId node, MessageType type,
                                         Handler handler) {
  network_.register_handler(
      node, type, [this, node, type, handler = std::move(handler)](const Message& frame) {
        // The channel reference dies here: the handler may send, which
        // can grow the table.
        const DedupWindow::Verdict verdict =
            channels_.get(channel_key(frame.src, node, type))
                .window.admit(frame.seq, options_.dedup_window);
        if (verdict == DedupWindow::Verdict::kDuplicate) {
          // Retransmit after a lost ack, or a chaos duplicate: ack it
          // (the network already does) but do not re-process.
          ++duplicates_suppressed_;
          if (duplicates_counter_) duplicates_counter_->inc();
          return;
        }
        if (verdict == DedupWindow::Verdict::kWrapped) {
          // The window has already forgotten sequence numbers this old:
          // if this frame is a late retransmit it will be re-processed.
          // Count the wrap (the guarantee boundary) but deliver -- the
          // transport cannot distinguish it from a never-seen frame.
          ++dedup_window_wraps_;
          if (wraps_counter_) wraps_counter_->inc();
        }
        if (options_.header_bytes == 0) {
          handler(frame);
          return;
        }
        Message inner = frame;
        if (inner.bytes >= options_.header_bytes) {
          inner.bytes -= options_.header_bytes;
        }
        handler(inner);
      });
  registered_.emplace_back(node, type);
}

void ReliableTransport::unregister_handler(NodeId node, MessageType type) {
  network_.unregister_handler(node, type);
  registered_.erase(
      std::remove(registered_.begin(), registered_.end(),
                  std::make_pair(node, type)),
      registered_.end());
}

void ReliableTransport::unregister_handlers(MessageType type) {
  auto kept = registered_.begin();
  for (const auto& entry : registered_) {
    if (entry.second == type)
      network_.unregister_handler(entry.first, type);
    else
      *kept++ = entry;
  }
  registered_.erase(kept, registered_.end());
}

}  // namespace eslurm::net
