// Engine-side background aggregation service: incrementally flattens each
// local VOS shard's committed epoch history into single-version extents,
// reclaiming version-stack depth so sustained overwrite traffic keeps O(log n)
// read-side visibility resolution instead of accreting an ever-deeper history.
//
// The service is the only code that merges a shard, and only below one safety
// floor, derived per shard step:
//   floor = min( shard epoch clock at collection,
//                oldest container snapshot - 1   (pool-service SnapList),
//                rebuild min_resync_floor()      (restart/resync epoch marks),
//                dtx_min_prepared_epoch() - 1    (clamped inside VOS) )
// so snapshot reads, in-flight transactions, and rebuild's epoch-diff resync
// all see byte-identical history before and after a merge. See docs/vos.md.
//
// Two callers run that step: a tick-driven background loop with a per-pass
// shard credit (mirroring the rebuild/DTX services), and the client's
// cont_aggregate trigger (kOpContAggregate). Every descent and rewrite is
// charged through the engine's xstream + media path, so aggregation shares
// bandwidth with foreground I/O. Disabled (the default) the service spawns no
// loop and registers no metrics but still serves the trigger: runs that never
// call cont_aggregate are bit-identical to a build without the loop.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "pool/command.hpp"
#include "rebuild/rebuild.hpp"

namespace daosim::agg {

struct AggConfig {
  /// Master switch for the background pass. Off (default) = no loop and no
  /// telemetry; the client trigger is served either way.
  bool enabled = false;
  /// Pass period per engine.
  sim::Time tick = 500 * sim::kMs;
  /// Credit cap: container shards aggregated per pass. A persistent cursor
  /// round-robins the remainder across passes so every shard is eventually
  /// visited even when the credit is smaller than the shard count.
  std::uint32_t shards_per_run = 4;
};

class AggregationService {
 public:
  /// @param rebuild    this engine's rebuild service (resync floor source);
  ///                   may be null in minimal harnesses (no floor constraint)
  /// @param svc_nodes  pool-service replica nodes for SnapList queries;
  ///                   empty disables the snapshot floor (no snapshots exist
  ///                   without a pool service to create them)
  AggregationService(engine::Engine& eng, rebuild::RebuildService* rebuild,
                     std::vector<net::NodeId> svc_nodes, AggConfig cfg = {});
  AggregationService(const AggregationService&) = delete;
  AggregationService& operator=(const AggregationService&) = delete;

  /// Spawns the background loop (idempotent; no-op unless cfg.enabled).
  void start();
  void stop();

  /// Called by the harness when this engine comes back up after a crash.
  /// Passes are shard-atomic (the merge itself never suspends), so recovery
  /// is just dropping the cached pool-service leader hint; the loop resumes
  /// from its cursor on the next tick.
  void note_restart();

  const AggConfig& config() const { return cfg_; }
  std::uint64_t runs() const;
  std::uint64_t extents_retired() const;
  std::uint64_t bytes_flattened() const;
  std::uint64_t deferred_on_floor() const;

 private:
  /// One shard picked up by a pass or a trigger, copied out of VOS so RPC
  /// and media suspensions never span a container reference.
  struct ShardItem {
    std::uint32_t target = 0;  // local target index
    vos::Uuid cont;
    vos::Epoch epoch_clock = 0;  // shard clock at collection time
  };

  sim::CoTask<void> agg_loop();
  sim::CoTask<void> run_pass();
  /// kOpContAggregate: one step on one shard; Errno::again if the ceiling is unknown.
  sim::CoTask<net::Reply> on_aggregate(net::Request req);
  /// The per-shard step both callers run: upto = min(shard clock, snapshot
  /// ceiling, rebuild min_resync_floor()); false (deferred, nothing charged)
  /// when the ceiling is unknown or upto is 0. Otherwise charges the descent,
  /// merges below upto and charges the rewrite.
  sim::CoTask<bool> step_shard(ShardItem item, std::optional<vos::Epoch> ceiling);
  std::vector<ShardItem> collect_shards() const;
  /// Highest epoch the container's snapshots allow aggregating to:
  /// vos::kEpochMax when unconstrained (no snapshots, or the pool service
  /// never saw the container), nullopt when the service is unreachable —
  /// absence of evidence is not a license to merge.
  sim::CoTask<std::optional<vos::Epoch>> snapshot_ceiling(vos::Uuid cont);

  engine::Engine& eng_;
  sim::Scheduler& sched_;
  rebuild::RebuildService* rebuild_;
  pool::SvcRoute svc_;
  AggConfig cfg_;
  bool running_ = false;
  bool passing_ = false;
  /// Last shard aggregated: the next pass resumes strictly after it (in
  /// (target, uuid) order, wrapping), so a small credit still covers every
  /// shard deterministically.
  std::optional<std::pair<std::uint32_t, vos::Uuid>> cursor_;
  // Metrics live under "engine/<node>/vos/agg/..." — created only when the
  // service is enabled so disabled runs dump identical metric trees.
  telemetry::Counter* runs_ = nullptr;
  telemetry::Counter* retired_ = nullptr;
  telemetry::Counter* flattened_ = nullptr;
  telemetry::Counter* deferred_ = nullptr;
  telemetry::Gauge* floor_epoch_ = nullptr;
};

}  // namespace daosim::agg
