#include "pgrid/pgrid_peer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pgrid/pgrid_builder.h"
#include "sim/fault_plan.h"

namespace gridvine {
namespace {

Key K(const std::string& bits) { return Key::FromBits(bits).value(); }

/// Fixture owning a small, manually wired 4-peer overlay over 2-bit paths:
/// peers 0..3 own paths 00, 01, 10, 11.
class PGridPeerTest : public ::testing::Test {
 protected:
  PGridPeerTest()
      : net_(&sim_, std::make_unique<ConstantLatency>(0.05), Rng(42)) {
    PGridPeer::Options opts;
    opts.key_depth = 4;
    opts.retry.base_timeout = 2.0;
    opts.retry.max_attempts = 2;
    for (int i = 0; i < 4; ++i) {
      peers_.push_back(std::make_unique<PGridPeer>(
          &sim_, &net_, Mt64Head<1>(uint64_t(100 + i))[0], opts));
    }
    std::vector<PGridPeer*> raw;
    for (auto& p : peers_) raw.push_back(p.get());
    PGridBuilder::BuildBalanced(raw, &bootstrap_rng_, /*refs_per_level=*/2);
  }

  PGridPeer* peer(size_t i) { return peers_[i].get(); }

  Simulator sim_;
  Network net_;
  Rng bootstrap_rng_{7};
  std::vector<std::unique_ptr<PGridPeer>> peers_;
};

TEST_F(PGridPeerTest, PathsAssigned) {
  EXPECT_EQ(peer(0)->path(), K("00"));
  EXPECT_EQ(peer(1)->path(), K("01"));
  EXPECT_EQ(peer(2)->path(), K("10"));
  EXPECT_EQ(peer(3)->path(), K("11"));
}

TEST_F(PGridPeerTest, Responsibility) {
  EXPECT_TRUE(peer(0)->IsResponsibleFor(K("0010")));
  EXPECT_FALSE(peer(0)->IsResponsibleFor(K("0110")));
  EXPECT_TRUE(peer(3)->IsResponsibleFor(K("1111")));
  // Short key prefixing the path counts as in-subtree.
  EXPECT_TRUE(peer(0)->IsResponsibleFor(K("0")));
}

TEST_F(PGridPeerTest, LocalUpdateAndRetrieve) {
  bool done = false;
  peer(0)->Update(K("0011"), "hello", [&](Result<PGridPeer::Reply> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->hops, 0);
    done = true;
  });
  EXPECT_TRUE(done);  // responsible locally: synchronous
  bool got = false;
  peer(0)->Retrieve(K("0011"), [&](Result<PGridPeer::Reply> r) {
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->values.size(), 1u);
    EXPECT_EQ(r->values[0], "hello");
    got = true;
  });
  EXPECT_TRUE(got);
}

TEST_F(PGridPeerTest, RemoteUpdateThenRemoteRetrieve) {
  bool stored = false;
  peer(0)->Update(K("1101"), "v-remote",
                  [&](Result<PGridPeer::Reply> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    EXPECT_GE(r->hops, 1);
                    stored = true;
                  });
  sim_.Run();
  ASSERT_TRUE(stored);
  // The responsible peer for prefix "11" now holds the entry.
  EXPECT_EQ(peer(3)->StorageSize(), 1u);
  EXPECT_EQ(peer(3)->storage().begin()->second, "v-remote");
}

TEST_F(PGridPeerTest, RetrieveFindsRemoteValue) {
  peer(3)->InsertLocal(K("1101"), "stored-at-3");
  bool got = false;
  peer(0)->Retrieve(K("1101"), [&](Result<PGridPeer::Reply> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->values.size(), 1u);
    EXPECT_EQ(r->values[0], "stored-at-3");
    EXPECT_GE(r->hops, 1);
    EXPECT_GT(r->rtt, 0.0);
    got = true;
  });
  sim_.Run();
  EXPECT_TRUE(got);
}

TEST_F(PGridPeerTest, PrefixRetrieveCollectsSubtree) {
  peer(1)->InsertLocal(K("0100"), "a");
  peer(1)->InsertLocal(K("0101"), "b");
  peer(1)->InsertLocal(K("0111"), "c");
  bool got = false;
  peer(1)->Retrieve(K("010"), [&](Result<PGridPeer::Reply> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->values.size(), 2u);  // 0100 and 0101, not 0111
    got = true;
  });
  EXPECT_TRUE(got);
}

// --- Value-prefix retrieves ---------------------------------------------------

/// Retrieves `key` with `value_prefix` from `from`, running the simulator
/// until the answer arrives; returns the values (or the error status).
Result<std::vector<std::string>> RetrieveWithPrefix(Simulator* sim,
                                                    PGridPeer* from,
                                                    const Key& key,
                                                    std::string_view prefix) {
  Result<std::vector<std::string>> out = Status::Internal("no answer");
  from->Retrieve(
      key,
      [&out](Result<PGridPeer::Reply> r) {
        if (r.ok()) {
          out = std::move(r->values);
        } else {
          out = r.status();
        }
      },
      prefix);
  sim->Run();
  return out;
}

TEST_F(PGridPeerTest, ValuePrefixRetrieveFiltersInStorageOrder) {
  // Insertion order is storage order within one key; the filter must keep
  // it (not sort the survivors).
  for (const char* v : {"schema|B", "EMBL#x triple", "schema|A", "conn|y"}) {
    peer(3)->InsertLocal(K("1101"), v);
  }
  const std::vector<std::string> want = {"schema|B", "schema|A"};
  // Local-answer path: peer 3 is responsible.
  auto local = RetrieveWithPrefix(&sim_, peer(3), K("1101"), "schema|");
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(*local, want);
  // Remote path: the responder filters before answering.
  auto remote = RetrieveWithPrefix(&sim_, peer(0), K("1101"), "schema|");
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(*remote, want);
  EXPECT_EQ(peer(0)->counters().local_answers, 0u);
}

TEST_F(PGridPeerTest, ValuePrefixSurvivesTimedOutFirstAttempt) {
  peer(3)->InsertLocal(K("1101"), "t1");
  peer(3)->InsertLocal(K("1101"), "mapping|m");
  peer(3)->InsertLocal(K("1101"), "t2");
  // Every route to "11" ends at peer 3; while it is down the first attempt
  // is lost. It comes back before the ~2 s timeout fires the re-attempt.
  net_.SetAlive(peer(3)->id(), false);
  sim_.Schedule(1.0, [this] { net_.SetAlive(peer(3)->id(), true); });
  auto got = RetrieveWithPrefix(&sim_, peer(0), K("1101"), "mapping|");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(peer(0)->counters().retries, 1u);
  EXPECT_EQ(*got, std::vector<std::string>{"mapping|m"});
}

TEST_F(PGridPeerTest, EmptyValuePrefixReturnsEveryValue) {
  peer(3)->InsertLocal(K("1101"), "b");
  peer(3)->InsertLocal(K("1101"), "a");
  auto got = RetrieveWithPrefix(&sim_, peer(0), K("1101"), "");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, (std::vector<std::string>{"b", "a"}));
}

TEST_F(PGridPeerTest, ValuePrefixLongerThanEveryValueMatchesNothing) {
  peer(3)->InsertLocal(K("1101"), "sch");
  peer(3)->InsertLocal(K("1101"), "schema");
  auto got = RetrieveWithPrefix(&sim_, peer(0), K("1101"), "schema|longer");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->empty());
}

TEST_F(PGridPeerTest, ValuePrefixCombinesWithSubtreeKey) {
  peer(1)->InsertLocal(K("0100"), "schema|a");
  peer(1)->InsertLocal(K("0100"), "t");
  peer(1)->InsertLocal(K("0101"), "schema|b");
  peer(1)->InsertLocal(K("0111"), "schema|c");  // outside subtree 010
  auto local = RetrieveWithPrefix(&sim_, peer(1), K("010"), "schema|");
  auto remote = RetrieveWithPrefix(&sim_, peer(2), K("010"), "schema|");
  const std::vector<std::string> want = {"schema|a", "schema|b"};
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(*local, want);
  EXPECT_EQ(*remote, want);
}

TEST(RetrieveRequestTest, SizeBytesCountsValuePrefix) {
  KeyRequest req;
  req.key = K("1010101010101010");
  const size_t bare = req.SizeBytes();
  EXPECT_EQ(bare, 24u + 2u);
  req.value = "mapping|";
  EXPECT_EQ(req.SizeBytes(), bare + 8u);
  EXPECT_EQ(req.TypeTag().name(), "pgrid.retrieve");
  // An update request counts its value as a retrieve counts its prefix.
  KeyRequest upd;
  upd.key = req.key;
  upd.value = "mapping|";
  upd.op = UpdateOp::kDelete;
  EXPECT_EQ(upd.SizeBytes(), bare + 8u);
  EXPECT_EQ(upd.TypeTag().name(), "pgrid.update");
  // A retrieve reply: 32 bytes plus each value and its 4-byte length.
  KeyResponse resp;
  EXPECT_EQ(resp.SizeBytes(), 32u);
  resp.values = {"ab", "cde"};
  EXPECT_EQ(resp.SizeBytes(), 32u + (2u + 4u) + (3u + 4u));
  EXPECT_EQ(resp.TypeTag().name(), "pgrid.retrieve_resp");
  // An update's ack is a flat 64 bytes.
  KeyResponse ack;
  ack.ack = true;
  EXPECT_EQ(ack.SizeBytes(), 64u);
  EXPECT_EQ(ack.TypeTag().name(), "pgrid.update_ack");
}

// --- The request contract, per operation -------------------------------------

/// Retrieve, Update and Remove are ack'd requests with one contract; each
/// case below runs for all three.
enum class Op { kRetrieve, kUpdate, kRemove };

/// What an operation's callback saw.
struct Outcome {
  int calls = 0;
  Status status = Status::Internal("no answer");
  int hops = -1;
  SimTime rtt = -1;
  NodeId responder = kInvalidNode;
};

class RequestContractTest : public PGridPeerTest,
                            public ::testing::WithParamInterface<Op> {
 protected:
  /// Issues the parameter's operation from peer 0 for value "v" under
  /// K("1101"), which peer 3 (path 11) is responsible for.
  void Issue(Outcome* out) {
    auto cb = [out](auto r) {
      ++out->calls;
      out->status = r.status();
      if (r.ok()) {
        out->hops = r->hops;
        out->rtt = r->rtt;
        out->responder = r->responder;
      }
    };
    switch (GetParam()) {
      case Op::kRetrieve:
        peer(0)->Retrieve(K("1101"), cb);
        break;
      case Op::kUpdate:
        peer(0)->Update(K("1101"), "v", cb);
        break;
      case Op::kRemove:
        peer(0)->Remove(K("1101"), "v", cb);
        break;
    }
  }

  /// The wire type of the operation's reply.
  std::string_view ReplyType() const {
    return GetParam() == Op::kRetrieve ? "pgrid.retrieve_resp"
                                       : "pgrid.update_ack";
  }
};

TEST_P(RequestContractTest, RemoteSuccessReportsHopsAndResponder) {
  peer(3)->InsertLocal(K("1101"), "v");
  // Peer 0's only way into "1" is peer 2, which forwards to peer 3.
  peer(0)->routing()->RemoveRef(peer(3)->id());
  Outcome out;
  Issue(&out);
  sim_.Run();
  ASSERT_EQ(out.calls, 1);
  ASSERT_TRUE(out.status.ok()) << out.status;
  EXPECT_EQ(out.hops, 2);
  EXPECT_EQ(out.responder, peer(3)->id());
  EXPECT_NEAR(out.rtt, 3 * 0.05, 1e-9);  // two hops there, one back
  EXPECT_EQ(peer(2)->counters().forwards, 1u);
  EXPECT_EQ(peer(0)->PendingRequests(), 0u);
  // The responder applied the operation: only Remove drops the pair.
  EXPECT_EQ(peer(3)->StorageSize(), GetParam() == Op::kRemove ? 0u : 1u);
}

TEST_P(RequestContractTest, DeadRegionTimesOutAfterMaxAttempts) {
  net_.SetAlive(peer(2)->id(), false);
  net_.SetAlive(peer(3)->id(), false);  // the whole "1" subtree is gone
  Outcome out;
  Issue(&out);
  sim_.Run();
  ASSERT_EQ(out.calls, 1);
  EXPECT_TRUE(out.status.IsTimeout()) << out.status;
  // max_attempts = 2: the first timeout retries, the second one fails.
  EXPECT_EQ(peer(0)->counters().timeouts, 2u);
  EXPECT_EQ(peer(0)->counters().retries, 1u);
  EXPECT_EQ(peer(0)->counters().failovers, 0u);
  EXPECT_EQ(peer(0)->PendingRequests(), 0u);
}

TEST_P(RequestContractTest, NegativeReplyFailsOverToUntriedFirstHop) {
  peer(3)->InsertLocal(K("1101"), "v");
  // Peer 2 knows no way into "11": a request reaching it is a dead end.
  peer(2)->routing()->RemoveRef(peer(3)->id());
  // The first attempt can only go through peer 2; peer 0 learns of peer 3
  // before the negative reply comes back.
  peer(0)->routing()->RemoveRef(peer(3)->id());
  sim_.Schedule(0.01, [this] { peer(0)->routing()->AddRef(0, peer(3)->id()); });
  Outcome out;
  Issue(&out);
  sim_.Run();
  ASSERT_EQ(out.calls, 1);
  ASSERT_TRUE(out.status.ok()) << out.status;
  EXPECT_EQ(peer(2)->counters().routing_dead_ends, 1u);
  EXPECT_EQ(peer(0)->counters().failovers, 1u);
  EXPECT_EQ(peer(0)->counters().retries, 0u);
  EXPECT_EQ(peer(0)->counters().timeouts, 0u);
  // The failover went straight to the untried peer 3, without waiting out
  // the ~2 s attempt timeout: two round trips in all.
  EXPECT_EQ(out.responder, peer(3)->id());
  EXPECT_EQ(out.hops, 1);
  EXPECT_NEAR(out.rtt, 4 * 0.05, 1e-9);
}

TEST_P(RequestContractTest, ReplyAfterResolutionIsDropped) {
  peer(3)->InsertLocal(K("1101"), "v");
  // Whatever is sent in the first second arrives 5 s late: the first
  // attempt times out (~2 s), the retry resolves the operation, and the
  // first attempt's reply comes in ~3 s after that.
  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::LatencySpike spike;
  spike.start = 0.0;
  spike.end = 1.0;
  spike.extra = 5.0;
  plan->AddLatencySpike(spike);
  net_.SetFaultPlan(std::move(plan));
  Outcome out;
  Issue(&out);
  sim_.Run();
  EXPECT_EQ(out.calls, 1);
  EXPECT_TRUE(out.status.ok()) << out.status;
  EXPECT_LT(out.rtt, 5.0);
  EXPECT_EQ(peer(0)->counters().timeouts, 1u);
  EXPECT_EQ(peer(0)->counters().retries, 1u);
  EXPECT_EQ(peer(0)->PendingRequests(), 0u);
  // Both attempts were answered and both replies delivered; the late one
  // found nothing pending.
  EXPECT_EQ(net_.stats().MessagesForType(ReplyType()), 2u);
  EXPECT_EQ(net_.stats().messages_dropped, 0u);
  EXPECT_EQ(peer(3)->StorageSize(), GetParam() == Op::kRemove ? 0u : 1u);
}

INSTANTIATE_TEST_SUITE_P(EachOp, RequestContractTest,
                         ::testing::Values(Op::kRetrieve, Op::kUpdate,
                                           Op::kRemove),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           switch (info.param) {
                             case Op::kRetrieve:
                               return "Retrieve";
                             case Op::kUpdate:
                               return "Update";
                             case Op::kRemove:
                               return "Remove";
                           }
                           return "Unknown";
                         });

TEST_F(PGridPeerTest, InsertIsIdempotent) {
  peer(0)->InsertLocal(K("0000"), "x");
  peer(0)->InsertLocal(K("0000"), "x");
  peer(0)->InsertLocal(K("0000"), "y");
  EXPECT_EQ(peer(0)->StorageSize(), 2u);
}

TEST_F(PGridPeerTest, RemoveDeletesRemotely) {
  peer(3)->InsertLocal(K("1110"), "doomed");
  bool removed = false;
  peer(0)->Remove(K("1110"), "doomed", [&](Result<PGridPeer::Reply> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    removed = true;
  });
  sim_.Run();
  EXPECT_TRUE(removed);
  EXPECT_EQ(peer(3)->StorageSize(), 0u);
}

TEST_F(PGridPeerTest, RetrieveTimesOutWhenRegionDead) {
  net_.SetAlive(peer(3)->id(), false);
  net_.SetAlive(peer(2)->id(), false);  // whole "1" subtree gone
  bool failed = false;
  peer(0)->Retrieve(K("1100"), [&](Result<PGridPeer::Reply> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status();
    failed = true;
  });
  sim_.Run();
  EXPECT_TRUE(failed);
  EXPECT_GE(peer(0)->counters().timeouts, 1u);
}

TEST_F(PGridPeerTest, UpdateIsReplicatedToReplicaSet) {
  // Make peer 2 a replica of peer 3 (same path).
  peer(2)->SetPath(K("11"));
  peer(3)->routing()->AddReplica(peer(2)->id());
  bool done = false;
  peer(0)->Update(K("1111"), "copied",
                  [&](Result<PGridPeer::Reply> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    done = true;
                  });
  sim_.Run();
  ASSERT_TRUE(done);
  // Whichever of {2,3} handled it, the other must hold the replica copy.
  EXPECT_EQ(peer(2)->StorageSize() + peer(3)->StorageSize(), 2u);
}

TEST_F(PGridPeerTest, CountersTrackTraffic) {
  peer(3)->InsertLocal(K("1100"), "v");
  peer(0)->Retrieve(K("1100"), [](Result<PGridPeer::Reply>) {});
  sim_.Run();
  EXPECT_EQ(peer(0)->counters().retrieves_issued, 1u);
}

}  // namespace
}  // namespace gridvine
