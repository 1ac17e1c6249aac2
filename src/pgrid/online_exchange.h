#ifndef GRIDVINE_PGRID_ONLINE_EXCHANGE_H_
#define GRIDVINE_PGRID_ONLINE_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/key.h"
#include "common/rng.h"
#include "pgrid/pgrid_peer.h"
#include "sim/simulator.h"

namespace gridvine {

/// P-Grid's self-organizing construction (Aberer, CoopIS'01), running over
/// the simulated network itself. Each agent periodically:
///
///   1. samples a uniform-ish random partner with a TTL random walk over the
///      current routing links (bootstrapped by a seed contact list);
///   2. runs a three-message exchange transaction with the partner:
///
///        Hello(path_A, load_A)  ->
///        Reply(path_B, action, entries_for_A, refs gossip)  <-
///        Commit(entries_for_B)  ->
///
///      where `action` is the case analysis of the CoopIS'01 algorithm:
///      identical paths split (when jointly overloaded) or replicate;
///      prefix-related paths make the shorter peer specialize; divergent
///      paths exchange refs. Data drains to whichever side is responsible.
///
/// Combined with MaintenanceAgent, a network bootstrapped this way becomes a
/// fully working overlay with no out-of-band steps.
class OnlineExchangeAgent {
 public:
  struct Options {
    /// Seconds between initiated encounters.
    SimTime period = 10.0;
    /// A pair with identical paths splits when it jointly holds more than
    /// this many entries (and the key depth allows).
    size_t max_local_keys = 64;
  };

  OnlineExchangeAgent(Simulator* sim, PGridPeer* peer, Rng rng,
                      Options options);

  /// Peers known before the overlay exists (the bootstrap list); the random
  /// walk starts from these until routing links develop.
  void AddSeedContact(NodeId id);

  void Start();
  void Stop() { running_ = false; }

  /// Initiates one encounter immediately with a walk-sampled partner
  /// (tests, churn rejoin).
  void InitiateEncounter();
  /// Runs one exchange transaction with `partner`, skipping the walk.
  void EncounterWith(NodeId partner);

  struct Stats {
    uint64_t encounters_started = 0;
    uint64_t splits = 0;
    uint64_t replications = 0;
    uint64_t specializations = 0;
    uint64_t ref_exchanges = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Handles one protocol message; returns false if `body` is not an
  /// exchange-protocol message. Wired through the peer's extension handler
  /// by the owner (see tests) or used standalone.
  bool OnMessage(NodeId from, const MessageBody& body);

 private:
  void ScheduleNext();
  /// Opens transaction `txn` with `partner` (the Hello message).
  void SendHello(uint64_t txn, NodeId partner);
  /// Picks a random contact for walking (seed list + routing links).
  std::vector<NodeId> KnownContacts() const;
  void ApplyEntries(const std::vector<std::pair<std::string, std::string>>&);
  /// Entries this peer holds but should belong to a peer with `their_path`.
  std::vector<std::pair<std::string, std::string>> EvictEntriesFor(
      const Key& their_path);

  Simulator* sim_;
  PGridPeer* peer_;
  Rng rng_;
  Options options_;
  bool running_ = false;
  std::vector<NodeId> seeds_;
  uint64_t next_txn_ = 1;
  Stats stats_;
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_ONLINE_EXCHANGE_H_
