#include "pool/pool_service.hpp"

#include "engine/proto.hpp"

namespace daosim::pool {

using net::Body;
using net::Request;

namespace {
/// Coordinator tick: how often the leader checks for (and re-drives)
/// incomplete rebuild tasks. Re-driving is idempotent — scans are read-only
/// and rebuild_done is duplicate-guarded — so a lost RPC just costs a tick.
constexpr sim::Time kCoordTick = 50 * sim::kMs;
/// Consecutive failed scan/assign RPCs before the coordinator evicts the
/// unresponsive participant (models SWIM-style failure detection; without it
/// a participant that crashes mid-rebuild wedges the task forever).
constexpr int kScanFailEvict = 3;
/// Fixed header of every pool-service reply.
constexpr std::uint64_t kReplyHeaderBytes = 64;

// Trace-digest tags for rebuild coordination milestones.
constexpr std::uint64_t kTraceRebuildDrive = 0xFA17E005'0000'0000ULL;
constexpr std::uint64_t kTraceRebuildAssign = 0xFA17E006'0000'0000ULL;
constexpr std::uint64_t kTraceRebuildDone = 0xFA17E007'0000'0000ULL;

template <typename T = std::monostate>
Reply ok(T payload = {}) {
  return {Errno::ok, ReplyBody(std::in_place_type<T>, std::move(payload))};
}
Reply fail(Errno e) { return {e, {}}; }
}  // namespace

Reply PoolMetaSm::apply(const Command& cmd) {
  return std::visit([this](const auto& c) { return exec(c); }, cmd);
}

net::Body PoolMetaSm::apply(const net::Body& command) {
  return Body::make(apply(command.get<Command>()));
}

Reply PoolMetaSm::exec(const ContCreate& c) {
  if (!s_.containers.emplace(c.cont, ContMeta{c.props, 1, {}}).second) return fail(Errno::exists);
  return ok();
}

Reply PoolMetaSm::exec(const ContOpen& c) {
  const auto it = s_.containers.find(c.cont);
  if (it == s_.containers.end()) return fail(Errno::no_entry);
  return ok(it->second.props);
}

Reply PoolMetaSm::exec(const ContDestroy& c) {
  return s_.containers.erase(c.cont) > 0 ? ok() : fail(Errno::no_entry);
}

Reply PoolMetaSm::exec(const AllocOids& c) {
  const auto it = s_.containers.find(c.cont);
  if (it == s_.containers.end()) return fail(Errno::no_entry);
  const std::uint64_t base = it->second.oid_counter;
  it->second.oid_counter += c.count;
  return ok(OidBase{base});
}

Reply PoolMetaSm::exec(const ListConts&) {
  ContList out;
  for (const auto& [u, meta] : s_.containers) out.conts.push_back(u);
  return ok(std::move(out));
}

Reply PoolMetaSm::exec(const PoolEvict& c) {
  if (s_.excluded.insert(c.engine).second) {
    ++s_.map_version;
    s_.evicted_at[c.engine] = s_.map_version;
    // Delta log BEFORE start_rebuild: requeues may bump map_version again
    // without a membership change, and the log records only the latter.
    s_.deltas.push_back(MapDelta{s_.map_version, c.engine, /*excluded=*/true});
    start_rebuild(/*resync=*/false, c.engine, 0);
  }
  return ok(MapVersion{s_.map_version});
}

Reply PoolMetaSm::exec(const PoolReint& c) {
  if (s_.excluded.erase(c.engine) > 0) {
    ++s_.map_version;
    s_.deltas.push_back(MapDelta{s_.map_version, c.engine, /*excluded=*/false});
    const auto it = s_.evicted_at.find(c.engine);
    start_rebuild(/*resync=*/true, c.engine, it != s_.evicted_at.end() ? it->second : 0);
  }
  return ok(MapVersion{s_.map_version});
}

Reply PoolMetaSm::exec(const MapQuery&) {
  return ok(MapState{s_.map_version, s_.excluded});
}

Reply PoolMetaSm::exec(const RebuildDone& c) {
  const auto it = s_.rebuilds.find(c.version);
  if (it == s_.rebuilds.end()) return ok(DoneOutcome::stale);
  // Duplicate-apply guard: a retried report (lost reply, re-driven task)
  // must not double-count the engine.
  if (!it->second.done.insert(c.engine).second) return ok(DoneOutcome::dup);
  return ok(DoneOutcome::counted);
}

Reply PoolMetaSm::exec(const SnapCreate& c) {
  const auto it = s_.containers.find(c.cont);
  if (it == s_.containers.end()) return fail(Errno::no_entry);
  it->second.snapshots.insert(c.epoch);  // idempotent: re-creating is a no-op
  return ok();
}

Reply PoolMetaSm::exec(const SnapDestroy& c) {
  const auto it = s_.containers.find(c.cont);
  if (it == s_.containers.end() || it->second.snapshots.erase(c.epoch) == 0) {
    return fail(Errno::no_entry);
  }
  return ok();
}

Reply PoolMetaSm::exec(const SnapList& c) {
  const auto it = s_.containers.find(c.cont);
  if (it == s_.containers.end()) return fail(Errno::no_entry);
  const auto& snaps = it->second.snapshots;
  return ok(SnapEpochs{{snaps.begin(), snaps.end()}});
}

void PoolMetaSm::start_rebuild(bool resync, net::NodeId node, std::uint32_t since_version) {
  if (engines_.empty()) return;  // no roster: rebuild coordination disabled
  // A newer map change invalidates in-flight scans (they ran against a stale
  // exclusion set), but superseding must not drop their work: an eviction
  // scan only re-replicates onto substitutes for the current exclusion set,
  // and a resync scan only pushes one engine's window diff. Anything the new
  // event's own scan does not cover is re-queued as a fresh task against the
  // new map.
  bool requeue_repair = false;
  std::map<net::NodeId, std::uint32_t> requeue_resyncs;  // node -> since_version
  for (auto& [v, t] : s_.rebuilds) {
    if (t.complete()) continue;
    t.superseded = true;
    if (t.resync) {
      // A pending resync survives unless its engine was evicted again (then
      // the eviction rebuild restores its replicas from the survivors) or
      // this very event re-creates it.
      if (t.node != node && !s_.excluded.contains(t.node)) {
        requeue_resyncs.emplace(t.node, t.since_version);
      }
    } else if (resync) {
      // A reintegration scan does not re-replicate data for engines that are
      // still excluded: carry the pending eviction repair forward.
      requeue_repair = true;
    }
  }
  queue_task(resync, node, since_version);
  for (const auto& [n, since] : requeue_resyncs) {
    ++s_.map_version;
    queue_task(/*resync=*/true, n, since);
  }
  if (requeue_repair && !s_.excluded.empty()) {
    ++s_.map_version;
    queue_task(/*resync=*/false, /*node=*/0, /*since_version=*/0);
  }
}

void PoolMetaSm::queue_task(bool resync, net::NodeId node, std::uint32_t since_version) {
  RebuildTask task;
  task.version = s_.map_version;
  task.resync = resync;
  task.node = node;
  task.since_version = since_version;
  task.excluded = s_.excluded;
  for (const net::NodeId e : engines_) {
    if (!s_.excluded.contains(e)) task.participants.insert(e);
  }
  if (task.participants.empty()) return;
  s_.rebuilds.emplace(s_.map_version, std::move(task));
}

std::vector<PoolMetaSm::MapDelta> PoolMetaSm::deltas_since(std::uint32_t version) const {
  std::vector<MapDelta> out;
  for (const MapDelta& d : s_.deltas) {
    if (d.version > version) out.push_back(d);
  }
  return out;
}

const PoolMetaSm::RebuildTask* PoolMetaSm::rebuild_task(std::uint32_t version) const {
  const auto it = s_.rebuilds.find(version);
  return it == s_.rebuilds.end() ? nullptr : &it->second;
}

std::optional<std::uint32_t> PoolMetaSm::newest_incomplete_rebuild() const {
  std::optional<std::uint32_t> out;
  for (const auto& [v, t] : s_.rebuilds) {
    if (!t.complete()) out = v;
  }
  return out;
}

std::vector<std::uint32_t> PoolMetaSm::incomplete_rebuilds() const {
  std::vector<std::uint32_t> out;
  for (const auto& [v, t] : s_.rebuilds) {
    if (!t.complete()) out.push_back(v);
  }
  return out;
}

std::size_t PoolMetaSm::rebuilds_incomplete() const {
  std::size_t n = 0;
  for (const auto& [v, t] : s_.rebuilds) {
    if (!t.complete()) ++n;
  }
  return n;
}

raft::Snapshot PoolMetaSm::snapshot() const {
  // Modelled wire size: every field at its fixed width.
  std::uint64_t bytes = sizeof(s_.map_version) + 4 * s_.excluded.size() +
                        8 * s_.evicted_at.size() + sizeof(MapDelta) * s_.deltas.size();
  for (const auto& [u, m] : s_.containers) {
    bytes += sizeof(u) + sizeof(m.props) + sizeof(m.oid_counter) + 8 * m.snapshots.size();
  }
  for (const auto& [v, t] : s_.rebuilds) {
    bytes += 16 + 4 * (t.excluded.size() + t.participants.size() + t.done.size());
  }
  return {Body::make(s_), bytes};
}

void PoolMetaSm::restore(const net::Body& state) {
  s_ = state.has_value() ? state.get<State>() : State{};
}

PoolServiceReplica::PoolServiceReplica(net::RpcEndpoint& ep, std::vector<net::NodeId> replicas,
                                       PoolMap map, raft::RaftConfig cfg, std::uint64_t seed)
    : ep_(ep), map_(std::move(map)), metrics_(strfmt("pool/%u", ep.node())) {
  std::set<net::NodeId> engines;
  for (const auto& t : map_.targets) engines.insert(t.engine);
  sm_.set_engines(std::move(engines));
  commands_applied_ = &metrics_.find_or_create<telemetry::Counter>("commands_applied");
  rebuild_reports_ = &metrics_.find_or_create<telemetry::Counter>("rebuild/done_reports");
  metrics_.add_probe("rebuild/tasks_total", [this] { return sm_.rebuild_tasks().size(); });
  metrics_.add_probe("rebuild/tasks_incomplete", [this] { return sm_.rebuilds_incomplete(); });
  metrics_.add_probe("map_version", [this] { return sm_.map_version(); });
  raft_ = std::make_unique<raft::RaftNode>(ep_, std::move(replicas), sm_, cfg, seed);
  ep_.register_handler(engine::kOpPoolSvc,
                       [this](Request r) { return on_client_command(std::move(r)); });
  ep_.register_handler(engine::kOpRebuildDone,
                       [this](Request r) { return on_rebuild_done(std::move(r)); });
}

void PoolServiceReplica::start() {
  raft_->start();
  if (!coord_running_) {
    coord_running_ = true;
    sim::CoTask<void> loop = coordinator_loop();
    ep_.domain().scheduler().spawn(std::move(loop));
  }
}

void PoolServiceReplica::stop() {
  coord_running_ = false;
  raft_->stop();
}

sim::CoTask<void> PoolServiceReplica::coordinator_loop() {
  sim::Scheduler& sched = ep_.domain().scheduler();
  while (coord_running_) {
    co_await sched.delay(kCoordTick);
    if (!coord_running_) break;
    if (!raft_->is_leader() || driving_) continue;
    const std::vector<std::uint32_t> versions = sm_.incomplete_rebuilds();
    if (versions.empty()) continue;
    driving_ = true;
    // Drive every pending task, oldest first: after a re-queue, an eviction
    // repair and one or more resyncs can be in flight at the same time.
    for (const std::uint32_t version : versions) {
      if (!coord_running_ || !raft_->is_leader()) break;
      co_await drive_task(version);
    }
    driving_ = false;
  }
}

sim::CoTask<void> PoolServiceReplica::drive_task(std::uint32_t version) {
  const PoolMetaSm::RebuildTask* tp = sm_.rebuild_task(version);
  if (tp == nullptr) co_return;
  const PoolMetaSm::RebuildTask task = *tp;  // copy: sm_ may change under us
  if (task.complete()) co_return;
  ep_.domain().scheduler().trace_note(kTraceRebuildDrive ^ version);

  engine::RebuildScanReq base;
  base.version = task.version;
  base.resync = task.resync;
  base.reint_node = task.resync ? task.node : 0;
  base.since_version = task.since_version;
  base.excluded.assign(task.excluded.begin(), task.excluded.end());

  // Phase 1: every participant scans its VOS trees and reports the entries it
  // is the canonical source for. Done participants are NOT skipped here —
  // `done` means an engine finished its destination-side assignment, but its
  // scan feeds other destinations' assignments. A re-driven task (failed
  // pulls, leader crash, lost reply) must see the full entry set, or the
  // remaining destinations would silently complete against a partial one.
  // Scans are read-only and mark-recording is first-wins, so re-scanning a
  // done engine is idempotent.
  std::vector<engine::RebuildEntry> entries;
  for (const net::NodeId node : task.participants) {
    engine::RebuildScanReq req = base;
    Body body = Body::make(std::move(req));
    net::Reply r = co_await ep_.call(node, engine::kOpRebuildScan, std::move(body), 512);
    if (r.status != Errno::ok) {
      if (++scan_fail_[{version, node}] >= kScanFailEvict) co_await commit(PoolEvict{node});
      co_return;  // superseded or retried next tick
    }
    scan_fail_.erase({version, node});
    auto& resp = r.body.get<engine::RebuildScanResp>();
    entries.insert(entries.end(), resp.entries.begin(), resp.entries.end());
  }

  // Phase 2: hand each participant the entries it is the destination for. An
  // empty assignment still obliges the engine to report rebuild_done, so the
  // task's `done` set can cover every participant.
  std::map<net::NodeId, std::vector<engine::RebuildEntry>> by_dst;
  for (const auto& e : entries) by_dst[map_.targets[e.dst].engine].push_back(e);
  for (const net::NodeId node : task.participants) {
    if (task.done.contains(node)) continue;
    engine::RebuildScanReq req = base;
    req.assign = true;
    if (const auto it = by_dst.find(node); it != by_dst.end()) req.entries = it->second;
    const std::uint64_t wire = 512 + 64 * req.entries.size();
    Body body = Body::make(std::move(req));
    net::Reply r = co_await ep_.call(node, engine::kOpRebuildScan, std::move(body), wire);
    if (r.status != Errno::ok) {
      if (++scan_fail_[{version, node}] >= kScanFailEvict) co_await commit(PoolEvict{node});
      co_return;
    }
    scan_fail_.erase({version, node});
  }
  ep_.domain().scheduler().trace_note(kTraceRebuildAssign ^ version);
}

sim::CoTask<raft::SubmitResult> PoolServiceReplica::commit(const Command& cmd) {
  return raft_->submit(Body::make(cmd), wire_bytes(cmd));
}

sim::CoTask<net::Reply> PoolServiceReplica::on_rebuild_done(net::Request req) {
  const auto& r = req.body.get<engine::RebuildDoneReq>();
  if (!raft_->is_leader()) {
    engine::RebuildDoneResp resp{raft_->leader_hint()};
    co_return net::Reply{Errno::again, kReplyHeaderBytes, Body::make(std::move(resp))};
  }
  raft::SubmitResult sr = co_await commit(RebuildDone{r.engine, r.version});
  if (sr.status != Errno::ok) {
    engine::RebuildDoneResp resp{sr.leader_hint};
    co_return net::Reply{sr.status, kReplyHeaderBytes, Body::make(std::move(resp))};
  }
  rebuild_reports_->inc();
  ep_.domain().scheduler().trace_note(kTraceRebuildDone ^ (std::uint64_t(r.version) << 16) ^
                                      r.engine);
  engine::RebuildDoneResp resp{raft_->leader_hint()};
  co_return net::Reply{Errno::ok, kReplyHeaderBytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> PoolServiceReplica::on_client_command(net::Request req) {
  const auto& r = req.body.get<PoolSvcReq>();
  if (!raft_->is_leader()) {
    PoolSvcResp resp{{}, raft_->leader_hint()};
    co_return net::Reply{Errno::again, kReplyHeaderBytes, Body::make(std::move(resp))};
  }
  raft::SubmitResult sr = co_await commit(r.command);
  if (sr.status != Errno::ok) {
    PoolSvcResp resp{{}, sr.leader_hint};
    co_return net::Reply{sr.status, kReplyHeaderBytes, Body::make(std::move(resp))};
  }
  commands_applied_->inc();
  PoolSvcResp resp{std::move(sr.response.get<Reply>()), raft_->leader_hint()};
  const std::uint64_t wire = kReplyHeaderBytes + wire_bytes(resp.reply);
  co_return net::Reply{Errno::ok, wire, Body::make(std::move(resp))};
}

}  // namespace daosim::pool
