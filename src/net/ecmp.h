// ECMP path selection with destination hashing.
//
// Each router forwards along shortest paths; when several next hops tie, the
// choice is made by a deterministic hash of the destination (and the router),
// which is exactly the per-destination determinism that makes the paper's
// load-balancer oscillation "hard to catch, as it depends on nondeterministic
// ECMP hashing": for a fixed seed the paths are fixed, but different seeds
// pick different — sometimes unfortunate — path combinations.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace verdict::net {

/// The links of the ECMP path from src to dst under hash seed `seed`.
/// Throws when dst is unreachable.
[[nodiscard]] std::vector<LinkId> ecmp_path(const Topology& topo, NodeId src, NodeId dst,
                                            std::uint64_t seed = 0);

/// Next hop chosen by router `at` for traffic to `dst` (hash-of-destination
/// among equal-cost candidates).
[[nodiscard]] NodeId ecmp_next_hop(const Topology& topo, NodeId at, NodeId dst,
                                   std::uint64_t seed = 0);

}  // namespace verdict::net
