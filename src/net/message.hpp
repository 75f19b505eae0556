// Message and node-id types shared by the network, communication
// structures and RM daemons.
#pragma once

#include <any>
#include <cstdint>

namespace eslurm::net {

/// Dense node index; node 0..n-1 are cluster members.  The RM layer
/// assigns roles (master / satellite / compute) on top of these ids.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

/// Application-level message tag.  Ranges are reserved per subsystem so
/// multiple protocols can coexist on one node's inbox:
///   0-99    network internal
///   100-199 communication structures (comm)
///   200-299 resource-manager control traffic (rm)
///   300-399 user-facing RPC front-end (frontend)
using MessageType = int;

/// First type of the dynamically-allocated range handed out by
/// Network::alloc_message_types (the comm structures' 100-199 block).
inline constexpr MessageType kDynamicTypeBase = 100;

struct Message {
  MessageType type = 0;
  NodeId src = kNoNode;
  std::uint64_t id = 0;      ///< unique per send, assigned by the network
  /// Per-channel sequence number stamped by the reliable transport
  /// (net/transport.hpp); raw Network::send traffic leaves it 0.
  std::uint64_t seq = 0;
  std::size_t bytes = 256;   ///< serialized size driving the link model
  std::any payload;          ///< typed body, owned by the message

  template <typename T>
  const T& body() const { return std::any_cast<const T&>(payload); }
};

}  // namespace eslurm::net
