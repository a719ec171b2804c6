#include "agg/agg.hpp"

#include <algorithm>
#include <utility>

namespace daosim::agg {

using net::Body;
using net::Reply;

namespace {
// Trace tag folded into the deterministic run hash, one note per aggregated
// shard (0xFA17E00E; DTX owns ..E009-E00D, client transactions E00F and
// E016). The background pass runs only when enabled, so the knob perturbs the
// trace; only triggers emit it when off.
constexpr std::uint64_t kTraceAgg = 0xFA17E00E'0000'0000ULL;

// Pool-service SnapList: bounded attempts per query; a failed query defers
// the shard (deferred_on_floor) and the next pass or trigger asks again.
constexpr int kSnapQueryAttempts = 3;

// Media charge for walking a shard's object/dkey/akey trees before merging
// (the pass's read-side cost even when nothing is retired).
constexpr std::uint64_t kDescentBytes = 256;
}  // namespace

AggregationService::AggregationService(engine::Engine& eng, rebuild::RebuildService* rebuild,
                                       std::vector<net::NodeId> svc_nodes, AggConfig cfg)
    : eng_(eng),
      sched_(eng.endpoint().domain().scheduler()),
      rebuild_(rebuild),
      svc_(eng.endpoint(), std::move(svc_nodes)),
      cfg_(cfg) {
  eng_.endpoint().register_handler(engine::kOpContAggregate, [this](net::Request req) {
    return on_aggregate(std::move(req));
  });
  if (!cfg_.enabled) return;  // keep the metric tree untouched when off
  telemetry::Registry& reg = eng_.telemetry();
  runs_ = &reg.find_or_create<telemetry::Counter>("vos/agg/runs");
  retired_ = &reg.find_or_create<telemetry::Counter>("vos/agg/extents_retired");
  flattened_ = &reg.find_or_create<telemetry::Counter>("vos/agg/bytes_flattened");
  deferred_ = &reg.find_or_create<telemetry::Counter>("vos/agg/deferred_on_floor");
  floor_epoch_ = &reg.find_or_create<telemetry::Gauge>("vos/agg/floor_epoch");
}

std::uint64_t AggregationService::runs() const { return runs_ ? runs_->value() : 0; }
std::uint64_t AggregationService::extents_retired() const {
  return retired_ ? retired_->value() : 0;
}
std::uint64_t AggregationService::bytes_flattened() const {
  return flattened_ ? flattened_->value() : 0;
}
std::uint64_t AggregationService::deferred_on_floor() const {
  return deferred_ ? deferred_->value() : 0;
}

void AggregationService::start() {
  if (!cfg_.enabled || running_) return;
  running_ = true;
  sim::CoTask<void> loop = agg_loop();
  sched_.spawn(std::move(loop));
}

void AggregationService::stop() { running_ = false; }

void AggregationService::note_restart() {
  // The pool-service leader may have moved while this engine was down.
  svc_.forget_leader();
}

sim::CoTask<void> AggregationService::agg_loop() {
  while (running_) {
    co_await sched_.delay(cfg_.tick);
    if (!running_) break;
    if (eng_.endpoint().is_down()) continue;  // crashed engines idle until restart
    co_await run_pass();
  }
}

std::vector<AggregationService::ShardItem> AggregationService::collect_shards() const {
  std::vector<ShardItem> items;
  for (std::uint32_t t = 0; t < eng_.target_count(); ++t) {
    vos::VosTarget& vt = eng_.vos_target(t);
    for (const vos::Uuid& uuid : vt.list_containers()) {
      const vos::VosContainer* cont = vt.find_container(uuid);
      if (cont == nullptr || cont->current_epoch() == 0) continue;
      items.push_back(ShardItem{t, uuid, cont->current_epoch()});
    }
  }
  return items;  // (target, uuid) order: targets ascending, uuids map-sorted
}

sim::CoTask<Reply> AggregationService::on_aggregate(net::Request req) {
  const auto& r = req.body.get<engine::ContAggregateReq>();
  const vos::VosContainer* cont = eng_.vos_target(r.target).find_container(r.cont);
  if (cont == nullptr || cont->current_epoch() == 0) {
    co_return Reply{Errno::ok, engine::kObjRpcHeader, {}};  // no history to merge
  }
  const ShardItem item{r.target, r.cont, cont->current_epoch()};
  const std::optional<vos::Epoch> ceiling = co_await snapshot_ceiling(item.cont);
  co_await step_shard(item, ceiling);
  co_return Reply{ceiling ? Errno::ok : Errno::again, engine::kObjRpcHeader, {}};
}

sim::CoTask<bool> AggregationService::step_shard(ShardItem item,
                                                 std::optional<vos::Epoch> ceiling) {
  // An unknown ceiling (pool service unreachable) merges nothing: a guess
  // could destroy history a snapshot still pins.
  vos::Epoch upto = ceiling ? std::min(item.epoch_clock, *ceiling) : 0;
  if (rebuild_ != nullptr) upto = std::min(upto, rebuild_->min_resync_floor());
  if (upto == 0) {
    if (deferred_) deferred_->inc();
    co_return false;
  }
  // Walking the shard's index trees reads media through the target's
  // xstream, sharing bandwidth with foreground I/O.
  co_await eng_.rebuild_read(item.target, kDescentBytes);
  if (eng_.endpoint().is_down()) co_return true;  // crashed during the descent
  // The merge itself is shard-atomic: the container lookup and the aggregate
  // share one expression, so no reference outlives it into a suspension.
  // VOS clamps `upto` below the oldest prepared DTX epoch internally.
  const vos::VosContainer::AggregateResult r =
      eng_.vos_target(item.target).container(item.cont).aggregate(upto);
  if (floor_epoch_) floor_epoch_->set(static_cast<std::int64_t>(r.upto));
  if (r.extents_retired > 0) {
    if (retired_) retired_->inc(r.extents_retired);
    if (flattened_) flattened_->inc(r.bytes_flattened);
    // Rewriting the merged extents is a media write on the same target.
    co_await eng_.rebuild_write(item.target, r.bytes_flattened + 64);
  }
  sched_.trace_note(kTraceAgg ^ (std::uint64_t(item.target) << 40) ^ item.cont.lo ^ r.upto);
  co_return true;
}

sim::CoTask<void> AggregationService::run_pass() {
  if (passing_) co_return;  // a slow pass outliving its tick never doubles up
  passing_ = true;
  // Copy the worklist out of VOS first: SnapList RPCs and media charges
  // suspend, and no container reference may live across those suspensions.
  const std::vector<ShardItem> items = collect_shards();
  // Resume strictly after the cursor (wrapping) so a credit smaller than the
  // shard count still visits every shard across consecutive passes.
  std::size_t start = 0;
  if (cursor_) {
    while (start < items.size() &&
           std::pair(items[start].target, items[start].cont) <= *cursor_) {
      ++start;
    }
  }
  // Snapshot ceilings are per container, not per shard: query each uuid once
  // per pass and share the answer across its target shards.
  std::map<vos::Uuid, std::optional<vos::Epoch>> snap_cache;
  std::uint32_t credits = cfg_.shards_per_run;
  for (std::size_t i = 0; i < items.size() && credits > 0; ++i) {
    const ShardItem& item = items[(start + i) % items.size()];
    if (!running_ || eng_.endpoint().is_down()) break;  // stopped or crashed mid-pass
    std::optional<vos::Epoch> ceiling;
    if (const auto sit = snap_cache.find(item.cont); sit != snap_cache.end()) {
      ceiling = sit->second;
    } else {
      ceiling = co_await snapshot_ceiling(item.cont);
      snap_cache[item.cont] = ceiling;
    }
    if (!co_await step_shard(item, ceiling)) continue;
    --credits;
    cursor_ = {item.target, item.cont};
  }
  if (runs_) runs_->inc();
  passing_ = false;
}

sim::CoTask<std::optional<vos::Epoch>> AggregationService::snapshot_ceiling(vos::Uuid cont) {
  // No pool service wired (minimal harness): nothing can create snapshots.
  if (svc_.empty()) co_return vos::kEpochMax;
  const auto res = co_await svc_.request(pool::SnapList{cont}, kSnapQueryAttempts);
  const auto snaps = pool::reply_as<pool::SnapEpochs>(res);
  // no_entry = the pool service never saw this container (created outside
  // cont_create): no snapshot can exist for it either.
  if (snaps.error() == Errno::no_entry) co_return vos::kEpochMax;
  if (!snaps.ok()) co_return std::nullopt;  // unreachable: defer the shard
  // Epochs arrive ascending; never merge across the oldest snapshot.
  const auto& epochs = snaps->epochs;
  co_return epochs.empty() ? vos::kEpochMax : std::max<vos::Epoch>(epochs.front(), 1) - 1;
}

}  // namespace daosim::agg
