// Tests for the Raft consensus substrate: election safety, log replication,
// fail-over, log repair, snapshots, and randomized fault-injection properties.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "raft/raft.hpp"

namespace daosim::raft {
namespace {

using sim::CoTask;
using sim::Time;

/// Deterministic state machine: an append-only journal with a running hash.
class Journal : public StateMachine {
 public:
  struct State {
    std::vector<std::string> entries;
    std::uint64_t hash = 14695981039346656037ULL;
  };

  net::Body apply(const net::Body& command) override {
    const auto& cmd = command.get<std::string>();
    entries.push_back(cmd);
    hash = hash * 1099511628211ULL + std::hash<std::string>{}(cmd);
    return net::Body::make(strfmt("applied#%zu:%s", entries.size(), cmd.c_str()));
  }
  Snapshot snapshot() const override {
    return {net::Body::make(State{entries, hash}), entries.size() * 16};
  }
  void restore(const net::Body& snap) override {
    const State s = snap.has_value() ? snap.get<State>() : State{};
    entries = s.entries;
    hash = s.hash;
  }

  std::vector<std::string> entries;
  std::uint64_t hash = 14695981039346656037ULL;
};

/// A journal command as a log-entry body, charged its length on the wire.
net::Body cmd_body(const std::string& cmd) { return net::Body::make(cmd); }

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 42, RaftConfig cfg = {}) : fabric(sched) {
    std::vector<net::NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(fabric.add_node());
    domain = std::make_unique<net::RpcDomain>(fabric);
    for (std::size_t i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<net::RpcEndpoint>(*domain, ids[i]));
      sms.push_back(std::make_unique<Journal>());
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<RaftNode>(*eps[i], ids, *sms[i], cfg, seed + i));
    }
  }

  void start_all() {
    for (auto& n : nodes) n->start();
  }
  void stop_all() {
    for (auto& n : nodes) {
      if (n->running()) n->stop();
    }
    sched.run();  // drain retired loops
  }

  /// Runs the simulation until exactly one live leader exists (or time cap).
  RaftNode* await_leader(Time cap = 5 * sim::kSec) {
    const Time deadline = sched.now() + cap;
    while (sched.now() < deadline) {
      sched.run_until(sched.now() + 20 * sim::kMs);
      RaftNode* leader = nullptr;
      int count = 0;
      for (auto& n : nodes) {
        if (n->is_leader()) {
          ++count;
          leader = n.get();
        }
      }
      if (count == 1 && leader->commit_index() >= leader->snapshot_index()) return leader;
    }
    return nullptr;
  }

  /// Submits via the current leader, retrying across elections.
  std::string must_submit(const std::string& cmd, Time cap = 10 * sim::kSec) {
    const Time deadline = sched.now() + cap;
    std::string out;
    bool done = false;
    while (!done && sched.now() < deadline) {
      RaftNode* leader = await_leader();
      if (leader == nullptr) continue;
      bool finished = false;
      sched.spawn([&, leader]() -> CoTask<void> {
        SubmitResult r = co_await leader->submit(cmd_body(cmd), cmd.size());
        if (r.status == Errno::ok) {
          out = r.response.get<std::string>();
          done = true;
        }
        finished = true;
      });
      while (!finished && sched.now() < deadline) sched.run_until(sched.now() + 10 * sim::kMs);
    }
    DAOSIM_REQUIRE(done, "submit did not complete: %s", cmd.c_str());
    return out;
  }

  void settle(Time dt) { sched.run_until(sched.now() + dt); }

  sim::Scheduler sched;
  net::Fabric fabric;
  std::unique_ptr<net::RpcDomain> domain;
  std::vector<std::unique_ptr<net::RpcEndpoint>> eps;
  std::vector<std::unique_ptr<Journal>> sms;
  std::vector<std::unique_ptr<RaftNode>> nodes;
};

TEST(Raft, ElectsExactlyOneLeader) {
  Cluster c(3);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  int leaders = 0;
  for (auto& n : c.nodes) leaders += n->is_leader();
  EXPECT_EQ(leaders, 1);
  c.stop_all();
}

TEST(Raft, SingleNodeGroupSelfElectsAndCommits) {
  Cluster c(1);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(c.must_submit("solo"), "applied#1:solo");
  c.stop_all();
}

TEST(Raft, ReplicatesToAllMembers) {
  Cluster c(5);
  c.start_all();
  for (int i = 0; i < 10; ++i) c.must_submit(strfmt("cmd-%d", i));
  c.settle(500 * sim::kMs);  // let followers catch up
  for (auto& sm : c.sms) {
    ASSERT_EQ(sm->entries.size(), 10u);
    EXPECT_EQ(sm->entries.front(), "cmd-0");
    EXPECT_EQ(sm->entries.back(), "cmd-9");
  }
  c.stop_all();
}

TEST(Raft, AllStateMachinesAgree) {
  Cluster c(3);
  c.start_all();
  for (int i = 0; i < 25; ++i) c.must_submit(strfmt("op-%d", i));
  c.settle(500 * sim::kMs);
  for (auto& sm : c.sms) EXPECT_EQ(sm->hash, c.sms[0]->hash);
  c.stop_all();
}

TEST(Raft, SubmitToFollowerRedirects) {
  Cluster c(3);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  RaftNode* follower = nullptr;
  for (auto& n : c.nodes) {
    if (n.get() != leader) follower = n.get();
  }
  SubmitResult res;
  bool finished = false;
  c.sched.spawn([&]() -> CoTask<void> {
    res = co_await follower->submit(cmd_body("x"), 1);
    finished = true;
  });
  c.settle(100 * sim::kMs);
  ASSERT_TRUE(finished);
  EXPECT_EQ(res.status, Errno::again);
  ASSERT_TRUE(res.leader_hint.has_value());
  EXPECT_EQ(*res.leader_hint, leader->id());
  c.stop_all();
}

TEST(Raft, LeaderCrashTriggersFailover) {
  Cluster c(3);
  c.start_all();
  RaftNode* first = c.await_leader();
  ASSERT_NE(first, nullptr);
  c.must_submit("before-crash");
  first->crash();
  RaftNode* second = c.await_leader();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_GT(second->current_term(), 0u);
  c.must_submit("after-crash");
  c.settle(500 * sim::kMs);
  for (auto& n : c.nodes) {
    if (n.get() == first) continue;
    const auto& sm = *c.sms[&n - c.nodes.data()];
    ASSERT_EQ(sm.entries.size(), 2u);
    EXPECT_EQ(sm.entries[0], "before-crash");
    EXPECT_EQ(sm.entries[1], "after-crash");
  }
  c.stop_all();
}

TEST(Raft, CrashedNodeCatchesUpAfterRestart) {
  Cluster c(3);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  // Crash a follower, commit entries without it, restart it.
  RaftNode* victim = nullptr;
  for (auto& n : c.nodes) {
    if (n.get() != leader) victim = n.get();
  }
  victim->crash();
  for (int i = 0; i < 5; ++i) c.must_submit(strfmt("v-%d", i));
  victim->restart();
  c.settle(2 * sim::kSec);
  const auto& sm = *c.sms[&*std::find_if(c.nodes.begin(), c.nodes.end(),
                                         [&](auto& n) { return n.get() == victim; }) -
                          c.nodes.data()];
  EXPECT_EQ(sm.entries.size(), 5u);
  c.stop_all();
}

TEST(Raft, MinorityPartitionCannotCommit) {
  Cluster c(5);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  // Partition the leader plus one follower away from the other three.
  RaftNode* companion = nullptr;
  for (auto& n : c.nodes) {
    if (n.get() != leader) {
      companion = n.get();
      break;
    }
  }
  for (auto& n : c.nodes) {
    if (n.get() != leader && n.get() != companion) n->crash();
  }
  SubmitResult res;
  bool finished = false;
  c.sched.spawn([&]() -> CoTask<void> {
    res = co_await leader->submit(cmd_body("lost"), 4);
    finished = true;
  });
  c.settle(2 * sim::kSec);
  // The entry cannot commit without a majority: either the submit is still
  // hanging, or it failed when the leader stepped down.
  if (finished) {
    EXPECT_NE(res.status, Errno::ok);
  }
  EXPECT_EQ(leader->commit_index(), 1u);  // only the initial no-op barrier
  for (auto& n : c.nodes) {
    if (!n->running()) n->restart();
  }
  c.settle(2 * sim::kSec);
  c.stop_all();
}

TEST(Raft, DivergentLogIsRepaired) {
  Cluster c(3);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  c.must_submit("stable");
  // Isolate the leader; it accepts entries it can never commit.
  RaftNode* old_leader = leader;
  for (auto& n : c.nodes) {
    if (n.get() != old_leader) n->crash();
  }
  bool hang_finished = false;
  c.sched.spawn([&]() -> CoTask<void> {
    (void)co_await old_leader->submit(cmd_body("orphan-1"), 8);
    hang_finished = true;
  });
  c.settle(300 * sim::kMs);
  EXPECT_GE(old_leader->last_log_index(), 3u);  // no-op + stable + orphan
  // Heal the others; they elect a new leader and commit different entries.
  old_leader->crash();
  for (auto& n : c.nodes) {
    if (n.get() != old_leader) n->restart();
  }
  c.must_submit("winner");
  // Old leader rejoins; its orphan entry must be overwritten.
  old_leader->restart();
  c.settle(3 * sim::kSec);
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const auto& e = c.sms[i]->entries;
    ASSERT_GE(e.size(), 2u) << "node " << i;
    EXPECT_EQ(e[0], "stable");
    EXPECT_EQ(e[1], "winner");
    EXPECT_EQ(e.size(), 2u);
  }
  c.stop_all();
}

TEST(Raft, SnapshotCompactsLog) {
  RaftConfig cfg;
  cfg.snapshot_threshold = 16;
  Cluster c(3, 42, cfg);
  c.start_all();
  for (int i = 0; i < 64; ++i) c.must_submit(strfmt("s-%d", i));
  c.settle(time_t(1) * sim::kSec);
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GT(leader->snapshot_index(), 0u);
  EXPECT_LE(leader->log_size(), 17u);
  c.stop_all();
}

TEST(Raft, LaggardReceivesSnapshot) {
  RaftConfig cfg;
  cfg.snapshot_threshold = 8;
  Cluster c(3, 7, cfg);
  c.start_all();
  RaftNode* leader = c.await_leader();
  ASSERT_NE(leader, nullptr);
  RaftNode* victim = nullptr;
  for (auto& n : c.nodes) {
    if (n.get() != leader) victim = n.get();
  }
  victim->crash();
  for (int i = 0; i < 40; ++i) c.must_submit(strfmt("z-%d", i));
  victim->restart();
  c.settle(3 * sim::kSec);
  std::size_t vi = 0;
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    if (c.nodes[i].get() == victim) vi = i;
  }
  EXPECT_EQ(c.sms[vi]->entries.size(), 40u);
  EXPECT_GT(victim->snapshot_index(), 0u);  // caught up via InstallSnapshot
  c.stop_all();
}

TEST(Raft, TermsIncreaseMonotonically) {
  Cluster c(3);
  c.start_all();
  RaftNode* l1 = c.await_leader();
  ASSERT_NE(l1, nullptr);
  const std::uint64_t t1 = l1->current_term();
  l1->crash();
  RaftNode* l2 = c.await_leader();
  ASSERT_NE(l2, nullptr);
  EXPECT_GT(l2->current_term(), t1);
  c.stop_all();
}

// Property: under repeated random crash/restart churn, at most one leader per
// term, all state machines converge, and no committed entry is ever lost.
class RaftChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RaftChurnProperty, SafetyUnderCrashChurn) {
  const std::uint64_t seed = GetParam();
  sim::Xoshiro256 rng(seed);
  Cluster c(5, seed);
  c.start_all();
  std::vector<std::string> committed;
  for (int round = 0; round < 6; ++round) {
    // Random minority crash.
    const std::size_t nvictims = rng.uniform(3);  // 0..2 of 5
    std::vector<std::size_t> idx{0, 1, 2, 3, 4};
    rng.shuffle(idx);
    for (std::size_t v = 0; v < nvictims; ++v) c.nodes[idx[v]]->crash();
    // Commit a few entries through whatever majority remains.
    for (int k = 0; k < 3; ++k) {
      const std::string cmd = strfmt("r%d-k%d", round, k);
      c.must_submit(cmd);
      committed.push_back(cmd);
    }
    for (std::size_t v = 0; v < nvictims; ++v) c.nodes[idx[v]]->restart();
    c.settle(500 * sim::kMs);
  }
  c.settle(3 * sim::kSec);
  // Every node converged to exactly the committed sequence.
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    EXPECT_EQ(c.sms[i]->entries, committed) << "node " << i;
  }
  c.stop_all();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftChurnProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace daosim::raft
