// Raft consensus over the simulated fabric.
//
// DAOS replicates its pool and container metadata through a Raft-based
// service (§II of the paper: "a RAFT-based consensus algorithm for
// distributed, transactional indexing"). This is a from-scratch Raft with
// leader election, log replication, commitment, client sessions, and
// log-compaction snapshots, following the Raft paper's rules. The pool
// service (src/pool) runs its metadata state machine on top of it.
//
// Stable state (term, vote, log, snapshot) survives crash()/restart();
// volatile state (role, commit index, applied state machine) is rebuilt,
// matching Raft's persistence contract.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "net/rpc.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace daosim::raft {

/// An immutable copy of a state machine's state, plus its modelled size on
/// the wire (InstallSnapshot).
struct Snapshot {
  net::Body state;  // empty = the initial state
  std::uint64_t wire_bytes = 0;
};

/// Replicated state machine interface. Commands, replies and snapshots are
/// typed values in net::Body, as every RPC body is; apply() must be
/// deterministic.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual net::Body apply(const net::Body& command) = 0;
  virtual Snapshot snapshot() const = 0;
  virtual void restore(const net::Body& state) = 0;
};

struct RaftConfig {
  sim::Time election_timeout_min = 150 * sim::kMs;
  sim::Time election_timeout_max = 300 * sim::kMs;
  sim::Time heartbeat_interval = 50 * sim::kMs;
  /// Compact the log once it exceeds this many entries.
  std::size_t snapshot_threshold = 4096;
};

struct LogEntry {
  std::uint64_t term = 0;
  net::Body command;  // empty = no-op barrier entry
  std::uint64_t wire_bytes = 0;
};

/// Outcome of RaftNode::submit.
struct SubmitResult {
  Errno status = Errno::ok;
  net::Body response;                          // state machine output when ok
  std::optional<net::NodeId> leader_hint{};    // populated on Errno::again
};

// RPC opcodes used by Raft (shared RpcEndpoint with other services).
constexpr std::uint16_t kOpRequestVote = 0x10;
constexpr std::uint16_t kOpAppendEntries = 0x11;
constexpr std::uint16_t kOpInstallSnapshot = 0x12;

class RaftNode {
 public:
  /// @param ep       this replica's RPC endpoint (handlers are registered)
  /// @param members  fabric node ids of all replicas, including this one
  RaftNode(net::RpcEndpoint& ep, std::vector<net::NodeId> members, StateMachine& sm,
           RaftConfig cfg, std::uint64_t seed);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Spawns the election ticker and apply loop.
  void start();
  /// Graceful stop: halts all loops, fails pending submissions.
  void stop();
  /// Simulated crash: node drops off the network and loses volatile state.
  void crash();
  /// Recovers from stable storage and rejoins.
  void restart();

  /// Replicates `command` (charged `wire_bytes` per AppendEntries); completes
  /// once it is committed and applied on this leader. Non-leaders fail fast
  /// with Errno::again plus a leader hint.
  sim::CoTask<SubmitResult> submit(net::Body command, std::uint64_t wire_bytes);

  bool is_leader() const { return role_ == Role::leader && running_; }
  bool running() const { return running_; }
  std::uint64_t current_term() const { return term_; }
  std::optional<net::NodeId> leader_hint() const { return leader_hint_; }
  net::NodeId id() const { return ep_.node(); }

  // Introspection for tests and reports.
  std::uint64_t commit_index() const { return commit_; }
  std::uint64_t last_applied() const { return applied_; }
  std::uint64_t last_log_index() const { return snap_last_index_ + log_.size(); }
  std::uint64_t log_size() const { return log_.size(); }
  std::uint64_t snapshot_index() const { return snap_last_index_; }
  /// Returns the command at 1-based log index, if still in the log.
  std::optional<LogEntry> entry_at(std::uint64_t index) const;

 private:
  enum class Role { follower, candidate, leader };

  struct Waiter {
    explicit Waiter(sim::Scheduler& s) : done(s) {}
    sim::Event done;
    std::uint64_t term = 0;
    net::Body response;
    bool failed = false;
  };

  // --- message types (carried in net::Body) ---
  struct VoteReq {
    std::uint64_t term;
    net::NodeId candidate;
    std::uint64_t last_log_index;
    std::uint64_t last_log_term;
  };
  struct VoteResp {
    std::uint64_t term;
    bool granted;
  };
  struct AppendReq {
    std::uint64_t term;
    net::NodeId leader;
    std::uint64_t prev_index;
    std::uint64_t prev_term;
    std::vector<LogEntry> entries;
    std::uint64_t leader_commit;
  };
  struct AppendResp {
    std::uint64_t term;
    bool success;
    std::uint64_t match_index;
    std::uint64_t conflict_index;
  };
  struct SnapReq {
    std::uint64_t term;
    net::NodeId leader;
    std::uint64_t last_index;
    std::uint64_t last_term;
    Snapshot snap;
  };
  struct SnapResp {
    std::uint64_t term;
  };

  // --- coroutine loops ---
  sim::CoTask<void> ticker();
  sim::CoTask<void> apply_loop();
  sim::CoTask<void> replicator(net::NodeId peer);
  sim::CoTask<void> run_election();
  sim::CoTask<void> solicit_vote(net::NodeId peer, std::uint64_t term,
                                 std::shared_ptr<struct VoteTally> tally);

  // --- RPC handlers ---
  sim::CoTask<net::Reply> on_request_vote(net::Request req);
  sim::CoTask<net::Reply> on_append_entries(net::Request req);
  sim::CoTask<net::Reply> on_install_snapshot(net::Request req);

  // --- helpers ---
  void become_follower(std::uint64_t term);
  void become_leader();
  void advance_commit();
  void fail_waiters();
  void maybe_compact();
  void poke_replicators();
  void halt(bool drop_network);
  std::uint64_t term_at(std::uint64_t index) const;
  sim::Time random_timeout();
  static std::uint64_t entries_wire_size(const std::vector<LogEntry>& es);

  net::RpcEndpoint& ep_;
  sim::Scheduler& sched_;
  std::vector<net::NodeId> members_;
  StateMachine& sm_;
  RaftConfig cfg_;
  sim::Xoshiro256 rng_;

  // Stable state (survives crash).
  std::uint64_t term_ = 0;
  std::optional<net::NodeId> voted_for_{};
  std::deque<LogEntry> log_;  // log_[i] has 1-based index snap_last_index_+1+i
  std::uint64_t snap_last_index_ = 0;
  std::uint64_t snap_last_term_ = 0;
  Snapshot snap_;

  // Volatile state.
  bool running_ = false;
  Role role_ = Role::follower;
  std::optional<net::NodeId> leader_hint_{};
  std::uint64_t commit_ = 0;
  std::uint64_t applied_ = 0;
  sim::Time last_heartbeat_ = 0;
  sim::Time election_deadline_ = 0;
  std::uint64_t epoch_ = 0;  // bumped on stop/crash to retire old loops
  std::map<net::NodeId, std::uint64_t> next_index_;
  std::map<net::NodeId, std::uint64_t> match_index_;
  std::unique_ptr<sim::Event> apply_notify_;
  std::map<net::NodeId, std::unique_ptr<sim::Event>> peer_notify_;
  std::map<std::uint64_t, Waiter*> waiters_;  // log index -> submitter
};

}  // namespace daosim::raft
