// Account ownership across a sharded deployment: the one hash that
// both the service router (which copies an event to its parties'
// owners) and the stream detector (which keeps per-account state only
// for the accounts it owns) use, so the two can never disagree.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace sybil::core {

/// Owning shard of an account id: splitmix64-mixed, then reduced mod
/// `shards`, so adjacent ids spread instead of striping. One shard (or
/// zero) owns everything.
inline std::uint32_t shard_of(graph::NodeId id, std::uint32_t shards) noexcept {
  if (shards <= 1) return 0;
  // splitmix64 finalizer: adjacent account ids land on unrelated shards,
  // so id-assignment patterns in a feed cannot stripe one shard.
  std::uint64_t x = static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shards);
}

}  // namespace sybil::core
