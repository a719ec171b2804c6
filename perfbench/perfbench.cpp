// daosim benchmark program: one process, one thread, four workloads on the
// paper's testbed (8 servers x 2 engines x 8 targets), reached only through
// the simulator's public API (Testbed, IorRunner, client::ArrayObject,
// Testbed::registries(), TraceLog::profile_ops, Scheduler::events_processed)
// plus getrusage for the host side.
//
//   daosim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics. The job runs on a fresh testbed
// once for each of the workload's object placements drawn from the seed, then
// again (cycling through the placements) until --seconds is spent. The
// simulated metrics pool the placements' first jobs; every later job must
// reproduce its placement's first bit for bit. host_s is the median over all
// jobs. Before each job a block of set-ups is timed on its own; setup_s is
// the fastest block's mean set-up time.
// --trace 1 runs kRounds rounds, each on its own placement: an untraced and a
// traced job (the two must agree bit for bit), then the extra jobs the
// per-layer split needs. Host-time splits are medians over the rounds.
// perfbench/README.md maps each metric to its layer.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed correctness or determinism check, or a check that could not
// run, makes "correct" false and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ior/ior.hpp"

namespace {

using namespace daosim;
using telemetry::TraceLog;
using Latency = telemetry::DurationHistogram::State;

/// Seed used when --seed is omitted, and the seed held out from tuning:
/// a later performance claim made on other seeds is confirmed on this one.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 20231130;

/// One set-up takes 0.3-3 ms, too short to time alone, so set-ups are timed
/// in blocks of this many. The machine's speed changes by up to 1.6x in
/// episodes of 0.1 s to minutes; the fastest of the run's blocks (one before
/// each job) is what the set-up costs when nothing else slows it.
constexpr std::uint32_t kSetupsPerBlock = 16;
/// Rounds of the traced run. The jobs of a round run back to back, so a
/// difference of host times within a round cancels the machine's slow drift;
/// the per-layer host metrics are medians over the rounds.
constexpr std::uint32_t kRounds = 3;
/// Causal-trace sampling in the traced run (the figure benches' rate).
constexpr std::uint64_t kTraceSample = 16;
/// The p99 needs at least ten samples beyond it.
constexpr std::uint64_t kMinRpcsPerPhase = 1000;
/// DFS chunk size of the IOR container (the DAOS default).
constexpr std::uint64_t kIorChunk = 1 * kMiB;

// ----------------------------------------------------------------- workloads

/// One client overwriting one array object pass after pass, every pass read
/// back in full (the only workload where vos evtree inserts/probes, the
/// aggregation service and stored payload bytes do the work).
struct OverwriteGeometry {
  std::uint64_t object_bytes = 8 * kMiB;
  std::uint64_t transfer = 4 * kKiB;
  std::uint64_t chunk = 64 * kKiB;
  std::uint32_t passes = 30;
  sim::Time settle = 500 * sim::kMs;  // idle window for aggregation per pass
};

struct Workload {
  const char* name;
  std::uint32_t client_nodes;
  std::uint32_t ppn;
  std::optional<ior::IorConfig> ior;  // nullopt: the overwrite workload
  /// Object placements pooled per run. One placement's simulated metrics
  /// move by up to 20 % from seed to seed (which targets a job's chunks
  /// share); pooling keeps the seed-to-seed spread inside the bounds.
  /// easy-dfs's read p99 sits in a 2x-wide histogram bucket and needs eight.
  std::uint32_t placements;
};

ior::IorConfig ior_config(ior::Api api, bool file_per_process, std::uint64_t transfer,
                          std::uint64_t block, bool collective) {
  ior::IorConfig cfg;
  cfg.api = api;
  cfg.transfer_size = transfer;
  cfg.block_size = block;
  cfg.file_per_process = file_per_process;
  cfg.collective = collective;
  cfg.oclass = std::uint8_t(client::ObjClass::SX);
  cfg.eq_depth = 1;  // closed loop: a rank issues its next transfer after the last completes
  return cfg;
}

std::vector<Workload> workloads() {
  return {
      {"easy-dfs", 16, 16, ior_config(ior::Api::dfs, true, 8 * kMiB, 32 * kMiB, false), 8},
      {"easy-hdf5", 16, 16, ior_config(ior::Api::hdf5, true, 8 * kMiB, 32 * kMiB, false), 4},
      // 8 nodes rather than the figure's 4 so the write phase makes the
      // >= 1000 object RPCs a p99 needs (one per 1 MiB chunk).
      {"hard-mpiio-coll", 8, 16, ior_config(ior::Api::mpiio, false, 1 * kMiB, 8 * kMiB, true), 4},
      {"overwrite-agg", 1, 1, std::nullopt, 4},
  };
}

cluster::ClusterConfig cluster_config(const Workload& w, std::uint64_t seed, bool traced) {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 8;
  cfg.client_nodes = w.client_nodes;
  cfg.seed = seed;
  cfg.client.trace_seed = seed;
  cfg.client.trace_sample = traced ? kTraceSample : 0;
  if (w.ior.has_value()) {
    cfg.payload = vos::PayloadMode::discard;  // timing-only at benchmark scale
  } else {
    cfg.payload = vos::PayloadMode::store;
    cfg.agg.enabled = true;
    cfg.agg.tick = 100 * sim::kMs;
    cfg.agg.shards_per_run = 64;  // every local shard of the object, every pass
  }
  return cfg;
}

/// The input a job draws from (seed, placement): which object ids its files
/// (or the overwrite object) get, and so where their chunks land; for the
/// overwrite workload also the bytes written.
std::uint64_t placement_key(std::uint64_t seed, std::uint32_t placement) {
  return client::mix64(seed ^ client::mix64(std::uint64_t(placement) + 1));
}

// ------------------------------------------------------------- measurements

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// Flat snapshot of every registry: counters and probes by value, gauges and
/// stat gauges by high-water mark (".max"), histograms by ".count"/".sum".
using Snapshot = std::map<std::string, double>;

Snapshot snapshot(const cluster::Testbed& tb) {
  using telemetry::Kind;
  Snapshot s;
  for (const telemetry::Registry* reg : tb.registries()) {
    for (const auto& [path, node] : reg->nodes()) {
      const std::string key = reg->root() + "/" + path;
      switch (node->kind()) {
        case Kind::counter:
          s[key] = double(static_cast<const telemetry::Counter&>(*node).value());
          break;
        case Kind::probe:
          s[key] = double(static_cast<const telemetry::Probe&>(*node).value());
          break;
        case Kind::gauge:
          s[key + ".max"] = double(static_cast<const telemetry::Gauge&>(*node).max_seen());
          break;
        case Kind::stat_gauge: {
          const sim::Summary& st = static_cast<const telemetry::StatGauge&>(*node).stats();
          s[key + ".max"] = st.count() != 0 ? st.max() : 0.0;
          break;
        }
        case Kind::histogram: {
          const auto& st = static_cast<const telemetry::DurationHistogram&>(*node).state();
          s[key + ".count"] = double(st.count);
          s[key + ".sum"] = double(st.sum_ns);
          break;
        }
      }
    }
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view p) { return s.substr(0, p.size()) == p; }
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

/// after - before for cumulative fields; high-water marks are taken as-is.
Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [key, v] : after) {
    const auto it = before.find(key);
    d[key] = ends_with(key, ".max") || it == before.end() ? v : v - it->second;
  }
  return d;
}

/// Sum (or max) of every snapshot entry under root prefix `root` whose key
/// contains `part` and ends with `suffix`, e.g. sum(d, "client/", "/rpc/update/sent").
double sum(const Snapshot& d, std::string_view root, std::string_view suffix,
           std::string_view part = "") {
  double total = 0;
  for (const auto& [key, v] : d) {
    if (starts_with(key, root) && ends_with(key, suffix) &&
        key.find(part) != std::string::npos) {
      total += v;
    }
  }
  return total;
}
double max_of(const Snapshot& d, std::string_view root, std::string_view suffix) {
  double m = 0;
  for (const auto& [key, v] : d) {
    if (starts_with(key, root) && ends_with(key, suffix)) m = std::max(m, v);
  }
  return m;
}

// ------------------------------------------------------------------- a job

/// The simulated outputs of one measured job: deterministic for its inputs,
/// so every repeat and the traced run must reproduce them exactly.
struct SimResult {
  double write_sim_s = 0, read_sim_s = 0;
  double write_p50_us = 0, write_p99_us = 0;
  double read_p50_us = 0, read_p99_us = 0;
  std::uint64_t write_rpcs = 0, read_rpcs = 0;
  std::uint64_t events = 0;
  bool operator==(const SimResult&) const = default;
};

struct Job {
  SimResult sim;
  Latency write_latency, read_latency;  // client object-RPC latency per phase
  double host_s = 0;
  double host_write_s = -1;  // measured inline by the overwrite loop only
  std::uint64_t write_ops = 0, read_ops = 0;
  std::uint64_t write_bytes = 0, read_bytes = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t minor_faults = 0;
  std::vector<std::string> problems;  // failed checks and checks that could not run
  Snapshot counters;                  // registry deltas over the measured work
  std::map<std::string, TraceLog::OpProfile> profile;  // traced jobs only
};

/// Records the per-phase latency and checks the p99 sample-count rule.
void set_latency(Job& job, const Latency& w, const Latency& r) {
  job.write_latency = w;
  job.read_latency = r;
  job.sim.write_p50_us = w.percentile_ns(50) / 1e3;
  job.sim.write_p99_us = w.percentile_ns(99) / 1e3;
  job.sim.read_p50_us = r.percentile_ns(50) / 1e3;
  job.sim.read_p99_us = r.percentile_ns(99) / 1e3;
  job.sim.write_rpcs = w.count;
  job.sim.read_rpcs = r.count;
  for (const auto& [phase, n] : {std::pair{"write", w.count}, std::pair{"read", r.count}}) {
    if (n < kMinRpcsPerPhase) {
      job.problems.push_back(strfmt("%s phase has %llu RPC latency samples, a p99 needs %llu",
                                    phase, static_cast<unsigned long long>(n),
                                    static_cast<unsigned long long>(kMinRpcsPerPhase)));
    }
  }
}

/// A started testbed with the workload's set-up done: for IOR, the runner's
/// lazy set-up (container, DFS and DFuse mounts on every client node, MPI
/// world), forced by a job that moves no data; for the overwrite workload,
/// the container.
struct Rig {
  cluster::Testbed tb;
  std::optional<ior::IorRunner> runner;
  explicit Rig(cluster::ClusterConfig cfg) : tb(std::move(cfg)) {}
};

std::unique_ptr<Rig> set_up(const Workload& w, const std::optional<ior::IorConfig>& cfg,
                            std::uint64_t seed, std::uint64_t key, bool traced) {
  auto rig = std::make_unique<Rig>(cluster_config(w, seed, traced));
  cluster::Testbed& tb = rig->tb;
  tb.start();
  tb.run([&tb, &cfg, key]() -> sim::CoTask<void> {
    pool::ContProps props;
    props.chunk_size = kIorChunk;
    auto created = co_await tb.client(0).cont_create(cluster::kPoolUuid, props);
    DAOSIM_REQUIRE(created.ok(), "cont_create: %s", errno_name(created.error()));
    if (cfg.has_value()) {
      // The placement: the object ids handed out before the job's first.
      auto skipped = co_await tb.client(0).alloc_oids(cluster::kPoolUuid, 1 + key % 1000000);
      DAOSIM_REQUIRE(skipped.ok(), "alloc_oids: %s", errno_name(skipped.error()));
    }
  });
  if (cfg.has_value()) {
    // The runner's own set-up finds the container existing.
    rig->runner.emplace(tb, w.ppn, kIorChunk);
    ior::IorConfig noop = *cfg;
    noop.do_write = false;
    noop.do_read = false;
    (void)rig->runner->run(noop);
  }
  return rig;
}

/// Brackets a job's measured work: host wall clock, page faults, events,
/// registry deltas, and the span log when one is attached.
class Measure {
 public:
  Measure(cluster::Testbed& tb, TraceLog* trace) : tb_(tb), trace_(trace) {
    if (trace_ != nullptr) tb_.attach_trace(trace_);
    before_ = snapshot(tb_);
    events0_ = tb_.sched().events_processed();
    faults0_ = self_usage().ru_minflt;
    t0_ = Clock::now();
  }
  void finish(Job& job) {
    job.host_s = since(t0_);
    job.minor_faults = std::uint64_t(self_usage().ru_minflt - faults0_);
    job.sim.events = tb_.sched().events_processed() - events0_;
    job.counters = delta(before_, snapshot(tb_));
    if (trace_ != nullptr) {
      tb_.attach_trace(nullptr);
      job.profile = trace_->profile_ops();
    }
  }

 private:
  cluster::Testbed& tb_;
  TraceLog* trace_;
  Snapshot before_;
  std::uint64_t events0_ = 0;
  long faults0_ = 0;
  Clock::time_point t0_;
};

/// Checks, from the fabric's byte counters, that the client nodes sent at
/// least the bytes the job wrote and received at least the bytes it read: a
/// transfer that never reached the wire shows here.
void check_wire_bytes(Job& job, cluster::Testbed& tb) {
  double tx = 0, rx = 0;
  for (std::uint32_t c = 0; c < tb.client_node_count(); ++c) {
    const std::string node = strfmt("fabric/node/%u/", tb.client(c).endpoint().node());
    const auto get = [&](const char* field) {
      const auto it = job.counters.find(node + field);
      return it == job.counters.end() ? 0.0 : it->second;
    };
    tx += get("tx_bytes");
    rx += get("rx_bytes");
  }
  if (tx < double(job.write_bytes)) {
    job.problems.push_back(strfmt("client nodes sent %.0f bytes, fewer than the %llu written", tx,
                                  static_cast<unsigned long long>(job.write_bytes)));
  }
  if (rx < double(job.read_bytes)) {
    job.problems.push_back(strfmt("client nodes received %.0f bytes, fewer than the %llu read",
                                  rx, static_cast<unsigned long long>(job.read_bytes)));
  }
}

Job run_ior(const Workload& w, const ior::IorConfig& cfg, std::uint64_t seed,
            std::uint32_t placement, TraceLog* trace) {
  Job job;
  const auto rig = set_up(w, cfg, seed, placement_key(seed, placement), trace != nullptr);
  Measure measure(rig->tb, trace);
  const ior::IorResult r = rig->runner->run(cfg);
  measure.finish(job);

  const std::uint64_t ranks = std::uint64_t(w.client_nodes) * w.ppn;
  const std::uint64_t ops_per_phase = ranks * cfg.segments * (cfg.block_size / cfg.transfer_size);
  const std::uint64_t bytes_per_phase = ranks * cfg.segments * cfg.block_size;
  job.sim.write_sim_s = r.write.seconds;
  job.sim.read_sim_s = r.read.seconds;
  if (cfg.do_write) {
    job.write_ops = ops_per_phase;
    job.write_bytes = bytes_per_phase;
    if (!(r.write.seconds > 0)) job.problems.push_back("write phase took no simulated time");
  }
  if (cfg.do_read) {
    job.read_ops = ops_per_phase;
    job.read_bytes = bytes_per_phase;
    if (!(r.read.seconds > 0)) job.problems.push_back("read phase took no simulated time");
    if (r.read_fill_errors != 0) {
      job.problems.push_back(strfmt("%llu short reads",
                                    static_cast<unsigned long long>(r.read_fill_errors)));
    }
    if (r.data_loss_events != 0) {
      job.problems.push_back(strfmt("%llu data-loss reads",
                                    static_cast<unsigned long long>(r.data_loss_events)));
    }
  }
  check_wire_bytes(job, rig->tb);
  if (cfg.do_write && cfg.do_read) set_latency(job, r.write_rpc_latency, r.read_rpc_latency);
  job.attempted = job.write_ops + job.read_ops;
  // A failed write aborts the job by exception (see main); a failed read is
  // a short or data-loss read. Discard mode keeps no bytes to verify.
  job.failed = r.read_fill_errors + r.data_loss_events;
  return job;
}

Job run_overwrite(const Workload& w, std::uint64_t seed, std::uint32_t placement,
                  TraceLog* trace) {
  using cluster::kPoolUuid;
  const OverwriteGeometry g;
  const std::uint64_t key = placement_key(seed, placement);
  Job job;
  const auto rig = set_up(w, std::nullopt, seed, key, trace != nullptr);
  cluster::Testbed& tb = rig->tb;
  const Latency update0 = tb.client_rpc_latency("update");
  const Latency fetch0 = tb.client_rpc_latency("fetch");
  sim::Time write_ns = 0, read_ns = 0;
  double host_write_s = 0;
  std::uint64_t bad_writes = 0, short_reads = 0, bad_reads = 0;
  Measure measure(tb, trace);
  tb.run([&]() -> sim::CoTask<void> {
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1 + key % 1000000, client::ObjClass::SX), g.chunk);
    std::vector<std::byte> buf(g.transfer), out(g.transfer);
    for (std::uint32_t pass = 0; pass < g.passes; ++pass) {
      const std::uint64_t pattern = client::mix64(key ^ pass);
      const auto host0 = Clock::now();
      const sim::Time w0 = tb.sched().now();
      for (std::uint64_t off = 0; off < g.object_bytes; off += g.transfer) {
        ior::fill_pattern(buf, off, pattern);
        if (co_await arr.write(off, g.transfer, buf) != Errno::ok) ++bad_writes;
      }
      write_ns += tb.sched().now() - w0;
      host_write_s += since(host0);
      co_await tb.sched().delay(g.settle);
      const sim::Time r0 = tb.sched().now();
      for (std::uint64_t off = 0; off < g.object_bytes; off += g.transfer) {
        std::fill(out.begin(), out.end(), std::byte{0});
        auto got = co_await arr.read(off, out);
        if (!got.ok() || *got != g.transfer) {
          ++short_reads;
        } else if (ior::check_pattern(out, off, pattern) != 0) {
          ++bad_reads;  // every byte of every readback is compared
        }
      }
      read_ns += tb.sched().now() - r0;
    }
  });
  measure.finish(job);
  job.host_write_s = host_write_s;

  job.write_ops = job.read_ops = g.object_bytes / g.transfer * g.passes;
  job.write_bytes = job.read_bytes = g.object_bytes * g.passes;
  job.sim.write_sim_s = sim::to_seconds(write_ns);
  job.sim.read_sim_s = sim::to_seconds(read_ns);
  check_wire_bytes(job, tb);
  set_latency(job, tb.client_rpc_latency("update") - update0,
              tb.client_rpc_latency("fetch") - fetch0);
  for (const auto& [n, what] : {std::pair{bad_writes, "failed writes"},
                                std::pair{short_reads, "short reads"},
                                std::pair{bad_reads, "reads that failed the byte check"}}) {
    if (n != 0) job.problems.push_back(strfmt("%llu %s", static_cast<unsigned long long>(n), what));
  }
  job.attempted = job.write_ops + job.read_ops;
  job.failed = bad_writes + short_reads + bad_reads;
  return job;
}

Job run_job(const Workload& w, const std::optional<ior::IorConfig>& cfg, std::uint64_t seed,
            std::uint32_t placement, TraceLog* trace) {
  return cfg.has_value() ? run_ior(w, *cfg, seed, placement, trace)
                         : run_overwrite(w, seed, placement, trace);
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Accumulates jobs' counts and problems; everything found wrong becomes a
/// named failure line on stderr and flips "correct".
struct Verdict {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;

  void add(const std::string& what, const Job& job) {
    attempted += job.attempted;
    failed += job.failed;
    for (const auto& p : job.problems) problems.push_back(what + ": " + p);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return problems.empty() && failed == 0; }
};

std::string describe(const SimResult& s) {
  return strfmt("write %.17g s p50 %.17g p99 %.17g us (%llu RPCs), read %.17g s "
                "p50 %.17g p99 %.17g us (%llu RPCs), %llu events",
                s.write_sim_s, s.write_p50_us, s.write_p99_us,
                static_cast<unsigned long long>(s.write_rpcs), s.read_sim_s, s.read_p50_us,
                s.read_p99_us, static_cast<unsigned long long>(s.read_rpcs),
                static_cast<unsigned long long>(s.events));
}

void require_identical(Verdict& v, const std::string& what, const SimResult& expect,
                       const SimResult& got) {
  v.require(expect == got, strfmt("determinism: %s differs\n  expected %s\n  got      %s",
                                  what.c_str(), describe(expect).c_str(), describe(got).c_str()));
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-34s %16.6f %-6s%s\n", m.name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

int emit(Verdict& v, const std::vector<Metric>& metrics) {
  std::string json;
  for (const Metric& m : metrics) {
    // JSON has no NaN or infinity; either is a failed measurement.
    v.require(std::isfinite(m.value), m.name + " is not a finite number");
    json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", json.empty() ? "" : ", ",
                   m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  for (const auto& p : v.problems) std::fprintf(stderr, "FAILED CHECK: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              v.correct() ? "true" : "false", static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed), json.c_str());
  std::fflush(stdout);
  return v.correct() ? 0 : 1;
}

/// Mean host time of one set-up over a block of kSetupsPerBlock.
double setup_block(const Workload& w, std::uint64_t seed) {
  double total = 0;
  for (std::uint32_t k = 0; k < kSetupsPerBlock; ++k) {
    const auto t0 = Clock::now();
    const auto rig = set_up(w, w.ior, seed, placement_key(seed, k % w.placements), false);
    total += since(t0);  // the rig's teardown is not set-up
  }
  return total / kSetupsPerBlock;
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Verdict v;
  std::vector<double> setup;  // one block before each job
  std::vector<Job> first;  // each placement's first job
  std::vector<double> host;
  const auto t0 = Clock::now();
  double last = 0;
  for (std::uint32_t k = 0; k <= w.placements || since(t0) + last <= seconds; ++k) {
    const auto r0 = Clock::now();
    const std::uint32_t p = k % w.placements;
    setup.push_back(setup_block(w, seed));
    Job job = run_job(w, w.ior, seed, p, nullptr);
    last = since(r0);
    std::fprintf(stderr, "  job %u (placement %u): set-up block %.6f s, host %.3f s, %llu events\n",
                 k + 1, p, setup.back(), job.host_s,
                 static_cast<unsigned long long>(job.sim.events));
    v.add(strfmt("job %u", k + 1), job);
    host.push_back(job.host_s);
    if (k < w.placements) {
      first.push_back(std::move(job));
    } else {
      require_identical(v, strfmt("job %u vs placement %u's first job", k + 1, p), first[p].sim,
                        job.sim);
    }
  }
  const std::size_t jobs = host.size();

  // Pool the placements: bandwidth over their summed phase times,
  // percentiles over their merged latency histograms.
  double write_s = 0, read_s = 0, write_bytes = 0, read_bytes = 0;
  Latency wl, rl;
  for (const Job& j : first) {
    write_s += j.sim.write_sim_s;
    read_s += j.sim.read_sim_s;
    write_bytes += double(j.write_bytes);
    read_bytes += double(j.read_bytes);
    wl += j.write_latency;
    rl += j.read_latency;
  }
  const std::vector<Metric> metrics = {
      {"host_s", median(host), "s"},
      {"setup_s", *std::min_element(setup.begin(), setup.end()), "s"},
      {"peak_rss_mib", double(self_usage().ru_maxrss) / 1024.0, "MiB"},
      {"write_gibs", ratio(write_bytes / double(kGiB), write_s), "GiB/s"},
      {"read_gibs", ratio(read_bytes / double(kGiB), read_s), "GiB/s"},
      {"write_p50_us", wl.percentile_ns(50) / 1e3, "us"},
      {"write_p99_us", wl.percentile_ns(99) / 1e3, "us"},
      {"read_p50_us", rl.percentile_ns(50) / 1e3, "us"},
      {"read_p99_us", rl.percentile_ns(99) / 1e3, "us"},
  };
  std::printf("# %s seed %llu: %zu jobs over %u placements, %zu blocks of %u set-ups\n",
              w.name, static_cast<unsigned long long>(seed), jobs, w.placements, setup.size(),
              kSetupsPerBlock);
  for (const Metric& m : metrics) {
    const std::uint64_t rpcs = m.name == "write_p99_us" ? wl.count
                               : m.name == "read_p99_us" ? rl.count
                                                         : 0;
    print_metric(m, rpcs ? strfmt("  (%llu RPCs)", static_cast<unsigned long long>(rpcs)) : "");
  }
  // Printed like the others but kept out of the JSON metrics: it is 0 in a
  // correct run, and the JSON's "failed" and "attempted" carry it.
  print_metric({"failed_op_ratio", ratio(double(v.failed), double(v.attempted)), "ratio"},
               strfmt("  (%llu of %llu ops)", static_cast<unsigned long long>(v.failed),
                      static_cast<unsigned long long>(v.attempted)));
  std::printf("  determinism: %zu repeated jobs %s\n", jobs - first.size(),
              v.problems.empty() ? "bit-identical to their placement's first" : "DIFFER");
  return emit(v, metrics);
}

/// Mean simulated us per sampled op of `op` in one critical-path stage.
double stage_us(const Job& job, const char* op, std::size_t stage) {
  const auto it = job.profile.find(op);
  if (it == job.profile.end() || it->second.count == 0) return 0;
  return double(it->second.stages.ns[stage]) / double(it->second.count) / 1e3;
}

/// What the traced run keeps of each job for its host and simulated splits.
struct Sample {
  double host_s = 0;
  double host_write_s = -1;
  SimResult sim;
};

int run_traced(const Workload& w, std::uint64_t seed) {
  Verdict v;
  // The process's first job pays its page faults (host.minor_faults is taken
  // there); host times come from the rounds after it.
  const Job cold = run_job(w, w.ior, seed, 0, nullptr);
  v.add("first untraced job", cold);

  // Round r runs these jobs back to back on placement r; series[name][r] is
  // job `name` of round r. IOR rungs are named by their API (HDF5 is the
  // untraced job itself on easy-hdf5).
  std::map<std::string, std::vector<Sample>> series;
  bool identical = true;  // every traced job equals its round's untraced job
  std::optional<Job> traced0;  // round 1's traced job: stage split and registry deltas
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    const auto job = [&](const std::string& name, const std::optional<ior::IorConfig>& cfg,
                         TraceLog* trace) {
      Job j = run_job(w, cfg, seed, r, trace);
      v.add(strfmt("round %u %s job", r + 1, name.c_str()), j);
      series[name].push_back({j.host_s, j.host_write_s, j.sim});
      return j;
    };
    const Job plain = job("untraced", w.ior, nullptr);
    if (r == 0) require_identical(v, "second untraced job vs first", cold.sim, plain.sim);
    TraceLog log;
    log.set_keep_unsampled(false);  // memory bounded by the sampling rate
    Job traced = job("traced", w.ior, &log);
    identical = identical && traced.sim == plain.sim;
    require_identical(v, strfmt("round %u: traced job vs untraced job", r + 1), plain.sim,
                      traced.sim);
    if (r == 0) traced0 = std::move(traced);
    if (!w.ior.has_value()) continue;  // the overwrite loop times its write passes inline

    // Host time of the write phase alone: the same job with no read phase.
    ior::IorConfig write_only = *w.ior;
    write_only.do_read = false;
    const Job wj = job("write-only", write_only, nullptr);
    v.require(wj.sim.write_sim_s == plain.sim.write_sim_s,
              strfmt("determinism: round %u: the write-only job's write phase differs from the "
                     "full job's",
                     r + 1));
    // Interface ladder (easy-hdf5): the same geometry one interface lower each rung.
    if (w.ior->api == ior::Api::hdf5) {
      for (const ior::Api api : {ior::Api::posix, ior::Api::dfs, ior::Api::daos_array}) {
        ior::IorConfig lower = *w.ior;
        lower.api = api;
        job(ior::to_string(api), lower, nullptr);
      }
    }
    // Two-phase collective buffering (hard-mpiio-coll): the same job, independent I/O.
    if (w.ior->collective) {
      ior::IorConfig independent = *w.ior;
      independent.collective = false;
      job("independent", independent, nullptr);
    }
  }

  const auto over_rounds = [](auto f) {
    std::vector<double> x;
    for (std::uint32_t r = 0; r < kRounds; ++r) x.push_back(f(r));
    return median(x);
  };
  const std::vector<Sample>& untraced = series.at("untraced");
  const auto write_host = [&](std::uint32_t r) {
    return w.ior.has_value() ? series.at("write-only")[r].host_s : untraced[r].host_write_s;
  };
  // A layer's cost: job `upper` minus job `lower`. Host time is the median of
  // the per-round differences; simulated time the mean over the rounds'
  // placements. Layers a workload does not go through report 0.
  struct Split {
    double host_s = 0, write_sim_s = 0, read_sim_s = 0;
  };
  const auto split = [&](const char* upper, const char* lower) {
    Split d;
    if (series.count(upper) == 0 || series.count(lower) == 0) return d;
    const std::vector<Sample>& u = series.at(upper);
    const std::vector<Sample>& l = series.at(lower);
    d.host_s = over_rounds([&](std::uint32_t r) { return u[r].host_s - l[r].host_s; });
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      d.write_sim_s += (u[r].sim.write_sim_s - l[r].sim.write_sim_s) / kRounds;
      d.read_sim_s += (u[r].sim.read_sim_s - l[r].sim.read_sim_s) / kRounds;
    }
    return d;
  };

  const Job& j = *traced0;
  const Snapshot& c = j.counters;
  const double ops = double(j.write_ops + j.read_ops);
  const double rpcs = sum(c, "engine/", "/extents_per_rpc.count");
  const double extents = sum(c, "engine/", "/extents_per_rpc.sum");
  std::uint64_t sampled = 0;
  for (const auto& [op, prof] : j.profile) sampled += prof.count;
  v.require(sampled > 0, "the traced job sampled no client ops: the stage split did not run");

  std::vector<Metric> m = {
      {"sim.events", double(cold.sim.events), "count"},
      {"sim.events_per_host_s",
       over_rounds([&](std::uint32_t r) {
         return ratio(double(untraced[r].sim.events), untraced[r].host_s);
       }),
       "1/s"},
      {"ior.ops", ops, "count"},
      {"ior.host_write_s", over_rounds(write_host), "s"},
      {"ior.host_read_s",
       over_rounds([&](std::uint32_t r) { return untraced[r].host_s - write_host(r); }), "s"},
      {"host.minor_faults", double(cold.minor_faults), "count"},
  };
  // The six critical-path stages, in TraceLog's stage order.
  static constexpr const char* kStageMetric[TraceLog::kStages][2] = {
      {"client.write.queue_us", "client.read.queue_us"},
      {"net.write.fabric_us", "net.read.fabric_us"},
      {"engine.write.queue_us", "engine.read.queue_us"},
      {"engine.write.service_us", "engine.read.service_us"},
      {"vos.write.us", "vos.read.us"},
      {"media.write.us", "media.read.us"},
  };
  for (std::size_t st = 0; st < TraceLog::kStages; ++st) {
    m.push_back({kStageMetric[st][0], stage_us(j, "arr_write", st), "us"});
    m.push_back({kStageMetric[st][1], stage_us(j, "arr_read", st), "us"});
  }
  const std::vector<Metric> layers = {
      {"client.update_rpcs", sum(c, "client/", "/rpc/update/sent"), "count"},
      {"client.fetch_rpcs", sum(c, "client/", "/rpc/fetch/sent"), "count"},
      {"client.extents_per_rpc", ratio(extents, rpcs), "ratio"},
      {"client.retries", sum(c, "client/", "/retry/attempts"), "count"},
      {"net.messages_per_op", ratio(sum(c, "fabric", "/messages"), ops), "ratio"},
      {"net.queue_delay_us_per_op", ratio(sum(c, "fabric", "/queue_delay_ns.sum"), ops) / 1e3,
       "us"},
      {"net.bytes_per_user_byte",
       ratio(sum(c, "fabric", "/tx_bytes"), double(j.write_bytes + j.read_bytes)), "ratio"},
      {"engine.svc_time_us_per_op", ratio(sum(c, "engine/", "/time_ns.sum", "/svc/"), ops) / 1e3,
       "us"},
      {"engine.queue_depth_max", max_of(c, "engine/", "/queue_depth.max"), "count"},
      {"engine.stream_misses", sum(c, "engine/", "/svc/stream_misses"), "count"},
      {"vos.tree_inserts_per_op", ratio(sum(c, "engine/", "/vos/tree_inserts"), ops), "ratio"},
      {"vos.extent_probes_per_read",
       ratio(sum(c, "engine/", "/vos/extent_probes"), double(j.read_ops)), "ratio"},
      {"agg.runs", sum(c, "engine/", "/vos/agg/runs"), "count"},
      {"agg.bytes_flattened_per_user_byte",
       ratio(sum(c, "engine/", "/vos/agg/bytes_flattened"), double(j.write_bytes)), "ratio"},
      {"agg.deferred_on_floor", sum(c, "engine/", "/vos/agg/deferred_on_floor"), "count"},
  };
  m.insert(m.end(), layers.begin(), layers.end());

  const std::pair<const char*, Split> ladder[] = {
      {"h5", split("untraced", "POSIX")},
      {"posix", split("POSIX", "DFS")},
      {"dfs", split("DFS", "DAOS")},
  };
  for (const auto& [layer, d] : ladder) m.push_back({strfmt("%s.host_s", layer), d.host_s, "s"});
  for (const auto& [layer, d] : ladder) {
    m.push_back({strfmt("%s.write_sim_s", layer), d.write_sim_s, "s"});
    m.push_back({strfmt("%s.read_sim_s", layer), d.read_sim_s, "s"});
  }
  const Split two_phase = split("untraced", "independent");
  m.push_back({"mpiio.two_phase_host_s", two_phase.host_s, "s"});
  m.push_back({"mpiio.two_phase_write_sim_s", two_phase.write_sim_s, "s"});
  m.push_back({"mpiio.two_phase_read_sim_s", two_phase.read_sim_s, "s"});

  m.push_back({"trace.sampled_ops", double(sampled), "count"});
  m.push_back({"trace.overhead", over_rounds([&](std::uint32_t r) {
                 return ratio(series.at("traced")[r].host_s, untraced[r].host_s);
               }),
               "ratio"});

  std::printf("# %s seed %llu: %u rounds on placements 0-%u; host s per job and round\n",
              w.name, static_cast<unsigned long long>(seed), kRounds, kRounds - 1);
  for (const auto& [name, samples] : series) {
    std::printf("  %-12s", name.c_str());
    for (const Sample& s : samples) std::printf(" %9.4f", s.host_s);
    std::printf("\n");
  }
  std::printf("# per-layer metrics (stage split and counters from round 1, traced 1 op in %llu)\n",
              static_cast<unsigned long long>(kTraceSample));
  for (const Metric& x : m) print_metric(x);
  std::printf("  determinism: traced jobs %s the untraced jobs\n",
              identical ? "bit-identical to" : "DIFFER from");
  return emit(v, m);
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "daosim_perfbench: %s\n"
               "usage: daosim_perfbench --workload <easy-dfs|easy-hdf5|hard-mpiio-coll|"
               "overwrite-agg> --seconds S [--seed N (default %llu; held out: %llu)] "
               "[--trace 0|1]\n",
               msg.c_str(), static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0) {
    usage(strfmt("%s: not a non-negative integer: '%s'", flag, s));
  }
  return std::uint64_t(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 0;  // required: run.py passes BENCHMARK.json's run_seconds
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage(strfmt("%s needs a value", argv[i]));
    const char* value = argv[i + 1];
    if (arg == "--workload") name = value;
    else if (arg == "--seed") seed = parse_u64("--seed", value);
    else if (arg == "--seconds") seconds = parse_u64("--seconds", value);
    else if (arg == "--trace") trace = parse_u64("--trace", value);
    else usage(strfmt("unknown argument '%s'", argv[i]));
  }
  if (trace > 1) usage("--trace must be 0 or 1");
  if (seconds == 0) usage("--seconds is required and must be positive");
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (it == all.end()) usage(strfmt("unknown workload '%s'", name.c_str()));

  try {
    return trace != 0 ? run_traced(*it, seed) : run_untraced(*it, seed, double(seconds));
  } catch (const std::exception& e) {
    // A failed write or any other simulator requirement aborts the job; the
    // run is then incorrect and prints no result.
    std::fprintf(stderr, "FAILED: %s: %s\n", it->name, e.what());
    return 1;
  }
}
