#include "raft/raft.hpp"

#include <algorithm>

namespace daosim::raft {

using net::Body;
using net::Reply;
using net::Request;

namespace {
constexpr std::uint64_t kControlMsgBytes = 64;
constexpr std::size_t kMaxEntriesPerAppend = 256;
constexpr sim::Time kTickInterval = 10 * sim::kMs;
}  // namespace

/// Shared tally for one election round.
struct VoteTally {
  std::size_t granted = 1;  // own vote
  bool decided = false;
};

RaftNode::RaftNode(net::RpcEndpoint& ep, std::vector<net::NodeId> members, StateMachine& sm,
                   RaftConfig cfg, std::uint64_t seed)
    : ep_(ep),
      sched_(ep.domain().scheduler()),
      members_(std::move(members)),
      sm_(sm),
      cfg_(cfg),
      rng_(seed ^ (0x5851F42D4C957F2DULL * (ep.node() + 1))) {
  DAOSIM_REQUIRE(!members_.empty(), "raft group cannot be empty");
  DAOSIM_REQUIRE(std::find(members_.begin(), members_.end(), ep_.node()) != members_.end(),
                 "this node must be a group member");
  apply_notify_ = std::make_unique<sim::Event>(sched_);
  for (auto m : members_) {
    if (m != ep_.node()) peer_notify_[m] = std::make_unique<sim::Event>(sched_);
  }
  ep_.register_handler(kOpRequestVote, [this](Request r) { return on_request_vote(std::move(r)); });
  ep_.register_handler(kOpAppendEntries,
                       [this](Request r) { return on_append_entries(std::move(r)); });
  ep_.register_handler(kOpInstallSnapshot,
                       [this](Request r) { return on_install_snapshot(std::move(r)); });
}

sim::Time RaftNode::random_timeout() {
  const sim::Time span = cfg_.election_timeout_max - cfg_.election_timeout_min;
  return cfg_.election_timeout_min + (span ? rng_.uniform(span) : 0);
}

std::uint64_t RaftNode::term_at(std::uint64_t index) const {
  if (index == 0) return 0;
  if (index == snap_last_index_) return snap_last_term_;
  DAOSIM_REQUIRE(index > snap_last_index_ && index <= last_log_index(),
                 "term_at(%llu) outside log [%llu, %llu]", static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(snap_last_index_), static_cast<unsigned long long>(last_log_index()));
  return log_[index - snap_last_index_ - 1].term;
}

std::optional<LogEntry> RaftNode::entry_at(std::uint64_t index) const {
  if (index <= snap_last_index_ || index > last_log_index()) return std::nullopt;
  return log_[index - snap_last_index_ - 1];
}

std::uint64_t RaftNode::entries_wire_size(const std::vector<LogEntry>& es) {
  std::uint64_t b = kControlMsgBytes;
  for (const auto& e : es) b += e.wire_bytes + 24;
  return b;
}

void RaftNode::start() {
  DAOSIM_REQUIRE(!running_, "raft node already running");
  running_ = true;
  ++epoch_;
  role_ = Role::follower;
  election_deadline_ = sched_.now() + random_timeout();
  sched_.spawn(ticker());
  sched_.spawn(apply_loop());
}

void RaftNode::halt(bool drop_network) {
  running_ = false;
  ++epoch_;
  role_ = Role::follower;
  fail_waiters();
  apply_notify_->set();
  for (auto& [peer, ev] : peer_notify_) ev->set();
  if (drop_network) ep_.set_down(true);
}

void RaftNode::stop() { halt(/*drop_network=*/false); }

void RaftNode::crash() { halt(/*drop_network=*/true); }

void RaftNode::restart() {
  DAOSIM_REQUIRE(!running_, "restart of a running node");
  ep_.set_down(false);
  leader_hint_.reset();
  commit_ = snap_last_index_;
  applied_ = snap_last_index_;
  sm_.restore(snap_.state);
  apply_notify_->reset();
  for (auto& [peer, ev] : peer_notify_) ev->reset();
  start();
}

void RaftNode::become_follower(std::uint64_t term) {
  const bool was_leader = role_ == Role::leader;
  term_ = term;
  role_ = Role::follower;
  voted_for_.reset();
  election_deadline_ = sched_.now() + random_timeout();
  if (was_leader) fail_waiters();
}

void RaftNode::become_leader() {
  role_ = Role::leader;
  leader_hint_ = ep_.node();
  for (auto m : members_) {
    if (m == ep_.node()) continue;
    next_index_[m] = last_log_index() + 1;
    match_index_[m] = 0;
  }
  // Barrier no-op: commits entries from previous terms (Raft §5.4.2).
  log_.push_back(LogEntry{term_, {}, 0});
  for (auto m : members_) {
    if (m != ep_.node()) sched_.spawn(replicator(m));
  }
  advance_commit();
  poke_replicators();
}

void RaftNode::poke_replicators() {
  for (auto& [peer, ev] : peer_notify_) ev->set();
}

void RaftNode::fail_waiters() {
  for (auto& [idx, w] : waiters_) {
    w->failed = true;
    w->done.set();
  }
  waiters_.clear();
}

void RaftNode::advance_commit() {
  if (role_ != Role::leader) return;
  std::vector<std::uint64_t> matches;
  matches.push_back(last_log_index());
  for (auto m : members_) {
    if (m != ep_.node()) matches.push_back(match_index_[m]);
  }
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const std::uint64_t majority_match = matches[members_.size() / 2];
  if (majority_match > commit_ && majority_match > snap_last_index_ &&
      term_at(majority_match) == term_) {
    commit_ = majority_match;
    apply_notify_->set();
  }
}

void RaftNode::maybe_compact() {
  if (log_.size() <= cfg_.snapshot_threshold || applied_ <= snap_last_index_) return;
  snap_ = sm_.snapshot();
  snap_last_term_ = term_at(applied_);
  const std::uint64_t drop = applied_ - snap_last_index_;
  log_.erase(log_.begin(), log_.begin() + std::ptrdiff_t(drop));
  snap_last_index_ = applied_;
}

// ---------------------------------------------------------------------------
// Loops

sim::CoTask<void> RaftNode::ticker() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await sched_.delay(kTickInterval);
    if (!running_ || epoch != epoch_) co_return;
    if (role_ == Role::leader) continue;
    if (sched_.now() >= election_deadline_) {
      sched_.spawn(run_election());
      election_deadline_ = sched_.now() + random_timeout();
    }
  }
}

sim::CoTask<void> RaftNode::run_election() {
  if (!running_ || role_ == Role::leader) co_return;
  ++term_;
  role_ = Role::candidate;
  voted_for_ = ep_.node();
  leader_hint_.reset();
  auto tally = std::make_shared<VoteTally>();
  const std::uint64_t majority = members_.size() / 2 + 1;
  const std::uint64_t term = term_;
  if (tally->granted >= majority) {  // single-node group
    tally->decided = true;
    become_leader();
    co_return;
  }
  for (auto m : members_) {
    if (m != ep_.node()) sched_.spawn(solicit_vote(m, term, tally));
  }
}

sim::CoTask<void> RaftNode::solicit_vote(net::NodeId peer, std::uint64_t term,
                                         std::shared_ptr<VoteTally> tally) {
  VoteReq req{term, ep_.node(), last_log_index(), term_at(last_log_index())};
  Reply r = co_await ep_.call(peer, kOpRequestVote, Body::make(req), kControlMsgBytes);
  if (!running_ || term_ != term || role_ != Role::candidate || tally->decided) co_return;
  if (r.status != Errno::ok) co_return;
  const auto& resp = r.body.get<VoteResp>();
  if (resp.term > term_) {
    become_follower(resp.term);
    co_return;
  }
  if (resp.granted && ++tally->granted >= members_.size() / 2 + 1) {
    tally->decided = true;
    become_leader();
  }
}

sim::CoTask<void> RaftNode::replicator(net::NodeId peer) {
  const std::uint64_t epoch = epoch_;
  const std::uint64_t term = term_;
  // peer_notify_ is filled once per membership and entries are never erased;
  // the unique_ptr indirection keeps each Event's address stable regardless.
  auto& notify = *peer_notify_.at(peer);  // daosim-check: allow(ref-across-suspend): insert-only map of unique_ptr; Event address is stable
  while (running_ && epoch == epoch_ && role_ == Role::leader && term_ == term) {
    std::uint64_t ni = next_index_[peer];
    if (ni <= snap_last_index_) {
      // Follower is behind the compacted log: ship the snapshot.
      SnapReq req{term, ep_.node(), snap_last_index_, snap_last_term_, snap_};
      Reply r = co_await ep_.call(peer, kOpInstallSnapshot, Body::make(req),
                                  kControlMsgBytes + snap_.wire_bytes);
      if (!running_ || epoch != epoch_ || term_ != term || role_ != Role::leader) co_return;
      if (r.status == Errno::ok) {
        const auto& resp = r.body.get<SnapResp>();
        if (resp.term > term_) {
          become_follower(resp.term);
          co_return;
        }
        next_index_[peer] = snap_last_index_ + 1;
        match_index_[peer] = snap_last_index_;
      }
      continue;
    }

    const std::uint64_t prev = ni - 1;
    AppendReq req{term, ep_.node(), prev, term_at(prev), {}, commit_};
    const std::uint64_t first = ni - snap_last_index_ - 1;
    const std::size_t count =
        std::min(kMaxEntriesPerAppend, log_.size() - std::size_t(first));
    req.entries.assign(log_.begin() + std::ptrdiff_t(first),
                       log_.begin() + std::ptrdiff_t(first + count));
    Reply r = co_await ep_.call(peer, kOpAppendEntries, Body::make(std::move(req)),
                                entries_wire_size(req.entries));
    if (!running_ || epoch != epoch_ || term_ != term || role_ != Role::leader) co_return;
    if (r.status == Errno::ok) {
      const auto& resp = r.body.get<AppendResp>();
      if (resp.term > term_) {
        become_follower(resp.term);
        co_return;
      }
      if (resp.success) {
        match_index_[peer] = std::max(match_index_[peer], resp.match_index);
        next_index_[peer] = match_index_[peer] + 1;
        advance_commit();
      } else {
        next_index_[peer] = std::max<std::uint64_t>(
            1, std::min(resp.conflict_index, last_log_index()));
        continue;  // retry immediately with the earlier index
      }
    }
    // Nothing new to send? Sleep until poked or the heartbeat interval.
    if (next_index_[peer] > last_log_index()) {
      notify.reset();
      if (next_index_[peer] > last_log_index()) {
        co_await notify.wait_for(cfg_.heartbeat_interval);
      }
    }
  }
}

sim::CoTask<void> RaftNode::apply_loop() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await apply_notify_->wait();
    if (!running_ || epoch != epoch_) co_return;
    apply_notify_->reset();
    while (applied_ < commit_) {
      ++applied_;
      auto entry = entry_at(applied_);
      DAOSIM_REQUIRE(entry.has_value(), "committed entry %llu missing from log",
                     static_cast<unsigned long long>(applied_));
      Body response = entry->command.has_value() ? sm_.apply(entry->command) : Body();
      auto it = waiters_.find(applied_);
      if (it != waiters_.end()) {
        Waiter* w = it->second;
        waiters_.erase(it);
        if (w->term == entry->term) {
          w->response = std::move(response);
        } else {
          w->failed = true;  // a different leader's entry landed at our index
        }
        w->done.set();
      }
    }
    maybe_compact();
  }
}

// ---------------------------------------------------------------------------
// Client interface

sim::CoTask<SubmitResult> RaftNode::submit(net::Body command, std::uint64_t wire_bytes) {
  if (!running_ || role_ != Role::leader) {
    co_return SubmitResult{Errno::again, {}, leader_hint_};
  }
  log_.push_back(LogEntry{term_, std::move(command), wire_bytes});
  const std::uint64_t index = last_log_index();
  Waiter waiter(sched_);
  waiter.term = term_;
  waiters_[index] = &waiter;
  advance_commit();  // single-node groups commit immediately
  poke_replicators();
  co_await waiter.done.wait();
  if (waiter.failed) {
    co_return SubmitResult{Errno::stale, {}, leader_hint_};
  }
  co_return SubmitResult{Errno::ok, std::move(waiter.response), ep_.node()};
}

// ---------------------------------------------------------------------------
// RPC handlers

sim::CoTask<net::Reply> RaftNode::on_request_vote(net::Request req) {
  if (!running_) co_return Reply{Errno::busy, 0, {}};
  const auto& rv = req.body.get<VoteReq>();
  VoteResp resp{term_, false};
  if (rv.term > term_) become_follower(rv.term);
  resp.term = term_;
  const bool up_to_date =
      rv.last_log_term > term_at(last_log_index()) ||
      (rv.last_log_term == term_at(last_log_index()) && rv.last_log_index >= last_log_index());
  if (rv.term == term_ && up_to_date &&
      (!voted_for_.has_value() || *voted_for_ == rv.candidate)) {
    voted_for_ = rv.candidate;
    resp.granted = true;
    election_deadline_ = sched_.now() + random_timeout();
  }
  co_return Reply{Errno::ok, kControlMsgBytes, Body::make(resp)};
}

sim::CoTask<net::Reply> RaftNode::on_append_entries(net::Request req) {
  if (!running_) co_return Reply{Errno::busy, 0, {}};
  auto& ae = req.body.get<AppendReq>();
  AppendResp resp{term_, false, 0, 0};
  if (ae.term < term_) {
    co_return Reply{Errno::ok, kControlMsgBytes, Body::make(resp)};
  }
  if (ae.term > term_ || role_ == Role::candidate) become_follower(ae.term);
  resp.term = term_;
  leader_hint_ = ae.leader;
  election_deadline_ = sched_.now() + random_timeout();

  if (ae.prev_index > last_log_index()) {
    resp.conflict_index = last_log_index() + 1;
    co_return Reply{Errno::ok, kControlMsgBytes, Body::make(resp)};
  }
  if (ae.prev_index > snap_last_index_ && term_at(ae.prev_index) != ae.prev_term) {
    // Back up over the whole conflicting term in one round trip.
    const std::uint64_t bad_term = term_at(ae.prev_index);
    std::uint64_t ci = ae.prev_index;
    while (ci > snap_last_index_ + 1 && term_at(ci - 1) == bad_term) --ci;
    resp.conflict_index = ci;
    co_return Reply{Errno::ok, kControlMsgBytes, Body::make(resp)};
  }

  for (std::size_t k = 0; k < ae.entries.size(); ++k) {
    const std::uint64_t idx = ae.prev_index + 1 + k;
    if (idx <= snap_last_index_) continue;  // already covered by our snapshot
    if (idx <= last_log_index()) {
      if (term_at(idx) == ae.entries[k].term) continue;
      log_.erase(log_.begin() + std::ptrdiff_t(idx - snap_last_index_ - 1), log_.end());
    }
    log_.push_back(ae.entries[k]);
  }
  resp.success = true;
  resp.match_index = ae.prev_index + ae.entries.size();
  if (ae.leader_commit > commit_) {
    commit_ = std::min(ae.leader_commit, last_log_index());
    apply_notify_->set();
  }
  co_return Reply{Errno::ok, kControlMsgBytes, Body::make(resp)};
}

sim::CoTask<net::Reply> RaftNode::on_install_snapshot(net::Request req) {
  if (!running_) co_return Reply{Errno::busy, 0, {}};
  const auto& snap = req.body.get<SnapReq>();
  if (snap.term < term_) {
    co_return Reply{Errno::ok, kControlMsgBytes, Body::make(SnapResp{term_})};
  }
  if (snap.term > term_ || role_ == Role::candidate) become_follower(snap.term);
  leader_hint_ = snap.leader;
  election_deadline_ = sched_.now() + random_timeout();
  if (snap.last_index > snap_last_index_) {
    sm_.restore(snap.snap.state);
    snap_ = snap.snap;
    snap_last_index_ = snap.last_index;
    snap_last_term_ = snap.last_term;
    log_.clear();
    commit_ = std::max(commit_, snap.last_index);
    applied_ = snap.last_index;
  }
  co_return Reply{Errno::ok, kControlMsgBytes, Body::make(SnapResp{term_})};
}

}  // namespace daosim::raft
