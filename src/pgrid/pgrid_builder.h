#ifndef GRIDVINE_PGRID_PGRID_BUILDER_H_
#define GRIDVINE_PGRID_PGRID_BUILDER_H_

#include <vector>

#include "common/key.h"
#include "common/rng.h"
#include "pgrid/pgrid_peer.h"

namespace gridvine {

/// Deterministic overlay construction: assigns peer paths and wires routing
/// tables in one pass. This models the *converged* state of P-Grid's
/// decentralized construction (see OnlineExchangeAgent for the
/// self-organizing path) and is what experiments use so results do not
/// depend on bootstrap randomness.
class PGridBuilder {
 public:
  /// Assigns the 2^d distinct d-bit paths, d = floor(log2 n), round-robin;
  /// peers beyond 2^d become replicas of the earlier ones. Then wires routing
  /// with `refs_per_level` references per level and links replica sets.
  static void BuildBalanced(const std::vector<PGridPeer*>& peers, Rng* rng,
                            int refs_per_level = 2);

  /// Builds a storage-adaptive (generally unbalanced) trie from a sample of
  /// the key distribution: the key space is split recursively, allocating
  /// peers to each half in proportion to the sample mass falling there, so
  /// peers end up with near-equal storage load even under skewed
  /// (order-preserving) hashing. Peers sharing a leaf become replicas.
  static void BuildAdaptive(const std::vector<PGridPeer*>& peers,
                            const std::vector<Key>& sample, Rng* rng,
                            int refs_per_level = 2);

  /// (Re)wires routing references and replica links from the peers' current
  /// paths: for every peer and level l, picks up to `refs_per_level` random
  /// peers from the complementary subtree at l. Idempotent; also usable as a
  /// repair pass after exchange-based construction.
  static void WireRouting(const std::vector<PGridPeer*>& peers, Rng* rng,
                          int refs_per_level);
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_PGRID_BUILDER_H_
