// perfbench: the simulator's end-to-end and per-layer benchmark.
//
// One invocation runs ONE workload on one simulator thread:
//
//   perfbench --workload lan_long|wide_n32|wan_faults --seed N
//             --seconds S --trace 0|1 --scratch DIR [--quick] [--setup-only]
//
// --setup-only builds the workload's cluster and client driver, executes
// the first simulated event, prints the steady-clock time of that moment
// and exits; run.py launches it repeatedly for setup_s, the time from
// process start to the first simulated event.
// --trace 0  repeats the untraced run of the workload for S host seconds
//            (at least two runs) and reports the end-to-end metrics:
//            host-plane medians, scaled by a calibration loop timed after
//            each run, plus the simulated-plane metrics, which must repeat
//            exactly between runs of one seed.
// --trace 1  makes one traced run (commit hooks on every replica, the
//            simulator stepped in fixed 100 ms slices, each slice timed),
//            one untraced reference run of the same driver, and one
//            harness::execute_full run of the same spec; then replays the
//            captured blocks and certificates through each layer's public
//            functions and times those calls. The replay happens after the
//            simulation ends, so it cannot perturb the run.
//
// The last stdout line is one JSON object: correct, attempted, failed, the
// failed gates, and every metric with its value, unit and direction.
// perfbench/run.py builds this program, checks that object against
// BENCHMARK.json and prints the benchmark's result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/workload.h"
#include "core/config.h"
#include "crypto/signer.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "mempool/mempool.h"
#include "net/network.h"
#include "quorum/cert_verifier.h"
#include "quorum/vote_aggregator.h"
#include "sim/event_queue.h"
#include "storage/block_store.h"
#include "types/block.h"
#include "types/certificates.h"
#include "types/messages.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace bamboo;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean_of(const std::vector<double>& v, std::size_t from,
               std::size_t to) {
  if (to <= from) return 0;
  double sum = 0;
  for (std::size_t i = from; i < to; ++i) sum += v[i];
  return sum / static_cast<double>(to - from);
}

/// Mean of the last quarter over the mean of the first quarter: about 1
/// when per-item cost does not grow along the run.
double growth(const std::vector<double>& v) {
  const std::size_t q = v.size() / 4;
  if (q == 0) return 1;
  const double first = mean_of(v, 0, q);
  return first > 0 ? mean_of(v, v.size() - q, v.size()) / first : 1;
}

volatile std::uint64_t g_calibration_sink = 0;

/// Host-speed calibration: a fixed loop of random hash-map and ordered-map
/// lookups over a ~6 MB working set, built only from the standard library
/// so no change to the simulator can change its cost. It allocates nothing
/// while timed. The host this benchmark was tuned on (a shared 4-vCPU KVM
/// guest) drifts in speed by up to 1.7x over minutes, for this loop and the
/// simulator alike; dividing by the loop's time measured in the same run
/// removes most of that drift.
double calibration_s() {
  constexpr std::size_t kKeys = 1 << 17;
  constexpr int kOps = 1 << 19;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {  // splitmix64
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> keys(kKeys);
  std::unordered_map<std::uint64_t, std::uint64_t> index;
  std::map<std::uint64_t, std::uint64_t> tree;
  index.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = next();
    index.emplace(keys[i], i);
    if (i % 8 == 0) tree.emplace(keys[i], i);
  }
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t k = keys[next() % kKeys];
    acc += index.find(k)->second;
    const auto it = tree.lower_bound(k);
    if (it != tree.end()) acc ^= it->second;
  }
  const double s = seconds_since(t0);
  g_calibration_sink = acc;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  core::Config cfg;
  client::WorkloadConfig wl;
  double warmup_s = 0.5;
  double horizon_s = 0;  ///< total simulated seconds, warm-up included
  /// Width of the commit timeline stall_ms is read from.
  double stall_bucket_s = 0.0001;
};

Workload make_workload(const std::string& name, bool quick) {
  Workload w;
  w.name = name;
  core::Config& c = w.cfg;
  c.bsize = 400;
  c.psize = 128;
  if (name == "lan_long") {
    // The paper's default cell, run long enough that costs growing with
    // chain length dominate (retention 0 keeps every committed vertex).
    c.protocol = "hotstuff";
    c.n_replicas = 4;
    c.memsize = 200000;
    c.store = "memory";
    c.retention = 0;
    w.wl.mode = client::LoadMode::kClosedLoop;
    w.wl.concurrency = 256;
    w.horizon_s = 6.5;
  } else if (name == "wide_n32") {
    // Wide quorum (22 of 32 signatures): crypto, quorum and net fan-out.
    c.protocol = "2chs";
    c.n_replicas = 32;
    c.bsize = 100;
    c.psize = 0;
    c.retention = 64;
    w.wl.mode = client::LoadMode::kClosedLoop;
    w.wl.concurrency = 64;
    w.horizon_s = 4.5;
  } else if (name == "wan_faults") {
    // Faults, store writes beside reads (restart reloads), Streamlet echo
    // traffic. The normal link model: lognormal with a 300 ms timeout
    // times out continuously on this topology. Round-robin leaders: a
    // static leader starves open-loop commits.
    c.protocol = "streamlet";
    c.n_replicas = 7;
    c.topology = "wan:3:10";
    c.link_model = "normal";
    c.timeout = sim::milliseconds(300);
    c.election = "roundrobin";
    c.store = "file";
    c.retention = 256;
    c.sync_batch = 16;
    c.sync_pipeline = 4;
    c.snapshot_gap = 16;
    c.churn =
        "crash-restart@1.5s:replica=6:for=2s;"
        "partition@4s:groups=0-1-2-3-4-5|6;heal@5s;"
        "degrade@8s:link=0-1:+20ms;restore@9s:link=0-1;"
        "crash-restart@11s:replica=3:for=3s";
    w.wl.mode = client::LoadMode::kOpenLoop;
    w.wl.arrival_rate_tps = 10000;
    w.horizon_s = 20;
    w.stall_bucket_s = 0.001;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (quick) w.horizon_s = std::max(1.0, w.horizon_s / 5);
  return w;
}

// ---------------------------------------------------------------------------
// One run, built the way harness::execute_full builds it
// ---------------------------------------------------------------------------

struct RunMode {
  /// Commit hooks on every replica (capture), and the simulator stepped in
  /// fixed 100 ms slices, each timed.
  bool traced = false;
  bool timeline = false;  ///< commit timeline for stall_ms
  /// Stop right after the first simulated event (set-up time).
  bool setup_only = false;
};

/// Simulated-plane outcome: deterministic for a seed, so two runs of one
/// seed must agree on every field (stall_ms is kept apart because it only
/// exists when the timeline is on).
struct SimPlane {
  double tput_tps = 0;
  double lat_p50_ms = 0;
  double lat_p99_ms = 0;
  double hist_p99_ms = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t issued_w = 0;
  std::uint64_t completed_w = 0;
  std::uint64_t rejected_w = 0;
  std::uint64_t inflight_end = 0;
  bool consistent = true;
  std::uint64_t safety_violations = 0;
  std::uint64_t certs_verified = 0;
  std::uint64_t certs_rejected = 0;
  std::uint64_t restarts = 0;
  std::uint64_t sync_requests = 0;
  std::uint64_t sync_blocks = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t timeouts = 0;
  double recovery_ms = 0;
  // observer (replica 0)
  std::uint64_t views = 0;
  std::uint64_t observer_timeouts = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t blocks_forked = 0;
  std::uint64_t committed_height = 0;
  std::uint64_t live_vertices = 0;
  std::uint64_t high_qc_sigs = 0;
  // cluster-wide sums (retired replica instances included)
  std::uint64_t blocks_proposed = 0;
  std::uint64_t blocks_committed_all = 0;
  std::uint64_t votes_sent = 0;
  std::uint64_t msgs_handled = 0;
  std::uint64_t issued_total = 0;
  std::uint64_t mem_admitted = 0;
  std::uint64_t mem_rejected = 0;
  std::int64_t cpu_busy_ns = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t store_appends = 0;
  std::uint64_t store_reads = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t disk_logical = 0;
  std::string latency_hist;

  bool operator==(const SimPlane&) const = default;
};

struct Slices {
  std::vector<double> host_s;
  std::vector<double> pending;  ///< simulator queue depth at each boundary
};

struct RunOut {
  /// steady_clock reading, in ns, just after the first simulated event.
  std::int64_t first_event_ns = 0;
  double sim_host_s = 0;  ///< first event -> end of horizon
  std::uint64_t events = 0;
  SimPlane sp;
  double stall_ms = 0;
  std::vector<crypto::Digest> committed_hashes;  ///< observer's chain
  std::vector<types::BlockPtr> chain;  ///< observer's commits (traced only)
  std::uint64_t hook_commits = 0;      ///< commit-hook calls, all replicas
  Slices slices;
};

/// A fresh directory for one cluster's file stores, inside the scratch dir.
std::string fresh_dir(const std::string& scratch, const std::string& tag) {
  static std::uint64_t seq = 0;
  const std::filesystem::path p =
      std::filesystem::path(scratch) /
      (tag + "-" + std::to_string(::getpid()) + "-" + std::to_string(seq++));
  std::filesystem::remove_all(p);
  return p.string();
}

/// Removes a scratch directory when it goes out of scope; declare it before
/// the cluster whose stores live there.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

core::Config config_for(const Workload& w, std::uint64_t seed,
                        const std::string& store_dir) {
  core::Config cfg = w.cfg;
  cfg.seed = seed;
  if (cfg.store == "file") cfg.store_path = store_dir;
  return cfg;
}

/// Mean length, in ms, of the kStallGaps longest intervals inside
/// [from_s, to_s) between consecutive timeline buckets that saw a commit
/// reach a client. The single longest gap is one event and moves by tens
/// of percent between seeds on the fault-free workloads; the mean of the
/// longest ten keeps the metric steady while still tracking stalls.
double stall_ms_of(const util::TimelineCounter& tl, double from_s,
                   double to_s) {
  constexpr std::size_t kStallGaps = 10;
  std::vector<double> gaps;
  double last = from_s;
  for (std::size_t i = 0; i < tl.num_buckets(); ++i) {
    const double start = tl.bucket_start(i);
    if (start < from_s || start >= to_s) continue;
    if (tl.rate(i) > 0) {
      gaps.push_back(start - last);
      last = start;
    }
  }
  gaps.push_back(to_s - last);
  const std::size_t k = std::min(kStallGaps, gaps.size());
  std::partial_sort(gaps.begin(), gaps.begin() + k, gaps.end(),
                    std::greater<>());
  return mean_of(gaps, 0, k) * 1000.0;
}

RunOut run_once(const Workload& w, std::uint64_t seed, const RunMode& mode,
                const std::string& scratch) {
  RunOut out;
  const std::string store_dir = fresh_dir(scratch, "store");
  const DirGuard guard{store_dir};
  {
    // Declared before the cluster: pending probe events reference it.
    harness::RecoveryProbe probe;
    const core::Config cfg = config_for(w, seed, store_dir);
    harness::Cluster cluster(cfg);
    if (mode.traced) {
      for (types::NodeId id = 0; id < cfg.n_replicas; ++id) {
        core::Replica::Hooks hooks;
        hooks.on_commit_block = [&out, id](const types::BlockPtr& block,
                                           types::View, sim::Time) {
          ++out.hook_commits;
          if (id == 0) out.chain.push_back(block);
        };
        cluster.set_hooks(id, std::move(hooks));
      }
    }
    client::WorkloadConfig wl = w.wl;
    wl.payload_size = cfg.psize;
    client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                  cluster.config(), wl);
    std::unique_ptr<util::TimelineCounter> timeline;
    if (mode.timeline) {
      timeline = std::make_unique<util::TimelineCounter>(w.stall_bucket_s,
                                                         w.horizon_s);
      driver.set_timeline(timeline.get());
    }
    driver.install();
    harness::install_churn(cluster,
                           harness::effective_churn(harness::FaultPlan{}, cfg),
                           &probe);
    cluster.start();
    driver.start();
    sim::Simulator& simulator = cluster.simulator();
    simulator.step();
    out.first_event_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now().time_since_epoch())
                             .count();
    if (mode.setup_only) return out;

    const Clock::time_point t1 = Clock::now();
    const auto advance = [&](double until_s) {
      const sim::Time deadline = sim::from_seconds(until_s);
      if (!mode.traced) {
        simulator.run_until(deadline);
        return;
      }
      constexpr sim::Duration kSlice = sim::milliseconds(100);
      while (simulator.now() < deadline) {
        const sim::Time next =
            std::min(deadline, (simulator.now() / kSlice + 1) * kSlice);
        const Clock::time_point s0 = Clock::now();
        simulator.run_until(next);
        out.slices.host_s.push_back(seconds_since(s0));
        out.slices.pending.push_back(
            static_cast<double>(simulator.events_pending()));
      }
    };
    advance(w.warmup_s);
    const std::uint64_t rejected_before = driver.stats().rejected;
    driver.begin_measurement();
    advance(w.horizon_s);
    driver.end_measurement();
    out.sim_host_s = seconds_since(t1);
    out.events = simulator.events_executed();

    SimPlane& sp = out.sp;
    const client::WorkloadDriver::Stats& ds = driver.stats();
    const double window_s = driver.measured_seconds();
    sp.issued_w = driver.measured_issued();
    sp.completed_w = driver.measured_completed();
    sp.tput_tps = ratio(static_cast<double>(sp.completed_w), window_s);
    const util::LatencyHistogram& hist = driver.latency_hist();
    sp.latency_samples = hist.count();
    // Exact sample percentiles: the histogram's quantiles are bucket
    // representatives (1/64 resolution) and read the same on every seed.
    sp.lat_p50_ms = driver.latencies_ms().percentile(50);
    sp.lat_p99_ms = driver.latencies_ms().percentile(99);
    sp.hist_p99_ms = hist.quantile(0.99);
    sp.latency_hist = hist.encode();
    sp.rejected_w = ds.rejected - rejected_before;
    sp.inflight_end = ds.issued - ds.completed - ds.rejected - ds.abandoned;
    sp.issued_total = ds.issued;
    sp.completed_total = ds.completed;
    driver.stop();

    sp.consistent = cluster.check_consistency().consistent;
    sp.restarts = cluster.restarts();
    sp.timeouts = cluster.total_timeouts();
    sp.recovery_ms = probe.mean_ms(sim::to_seconds(simulator.now()));
    const core::Replica& obs = cluster.replica(0);
    sp.views = obs.current_view();
    sp.observer_timeouts = obs.pm().timeouts_fired();
    sp.blocks_received = obs.stats().blocks_received;
    sp.blocks_forked = obs.stats().blocks_forked;
    sp.committed_height = obs.forest().committed_height();
    sp.live_vertices = obs.forest().size();
    sp.high_qc_sigs = obs.forest().high_qc().sigs.size();
    out.committed_hashes = obs.forest().committed_hashes();

    const auto add_stats = [&sp](const core::ReplicaStats& s) {
      sp.safety_violations += s.safety_violations;
      sp.certs_verified += s.certs_verified;
      sp.certs_rejected += s.certs_rejected;
      sp.blocks_proposed += s.blocks_proposed;
      sp.blocks_committed_all += s.blocks_committed;
      sp.votes_sent += s.votes_sent;
      sp.msgs_handled += s.msgs_handled;
      sp.cpu_busy_ns += s.cpu_busy;
    };
    const auto add_sync = [&sp](const sync::SyncStats& s) {
      sp.sync_requests += s.requests_sent;
      sp.sync_blocks += s.blocks_applied;
      sp.snapshots_installed += s.snapshots_installed;
    };
    add_stats(cluster.retired_stats());
    add_sync(cluster.retired_sync_stats());
    sp.mem_admitted = cluster.retired_mem_admitted();
    sp.mem_rejected = cluster.retired_mem_rejected();
    for (types::NodeId id = 0; id < cluster.size(); ++id) {
      const core::Replica& r = cluster.replica(id);
      add_stats(r.stats());
      add_sync(r.sync_stats());
      sp.mem_admitted += r.pool().admitted_count();
      sp.mem_rejected += r.pool().rejected_count();
      const storage::StoreStats& st = cluster.store(id).stats();
      sp.store_appends += st.appends;
      sp.store_reads += st.reads;
      sp.disk_bytes += st.bytes_written;
      sp.disk_logical += st.logical_bytes;
    }
    sp.messages_sent = cluster.network().messages_sent();
    sp.bytes_sent = cluster.network().bytes_sent();
    if (timeline) {
      out.stall_ms = stall_ms_of(*timeline, w.warmup_s, w.horizon_s);
    }
  }
  return out;
}

harness::RunSpec spec_of(const Workload& w, std::uint64_t seed,
                         const std::string& store_dir) {
  harness::RunSpec spec;
  spec.cfg = config_for(w, seed, store_dir);
  spec.workload = w.wl;
  spec.opts.warmup_s = w.warmup_s;
  spec.opts.measure_s = w.horizon_s - w.warmup_s;
  return spec;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower" | "higher"
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Nominal over measured calibration time; run.py scales setup_s by it.
  double host_scale = 1;

  void add(std::string name, double value, std::string unit,
           std::string better) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(better)});
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) failed_gates.push_back(what);
  }
};

void print_report(const Report& r) {
  util::Json::Object metrics;
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << " ("
              << m.better << " is better)\n";
    metrics[m.name] = util::Json::Object{
        {"value", m.value}, {"unit", m.unit}, {"better", m.better}};
  }
  util::Json::Array gates;
  for (const std::string& g : r.failed_gates) {
    std::cout << "GATE FAILED: " << g << "\n";
    gates.emplace_back(g);
  }
  const util::Json out = util::Json::Object{
      {"correct", r.failed_gates.empty()},
      {"attempted", static_cast<std::int64_t>(r.attempted)},
      {"failed", static_cast<std::int64_t>(r.failed)},
      {"host_scale", r.host_scale},
      {"gates_failed", std::move(gates)},
      {"metrics", std::move(metrics)}};
  std::cout << out.dump() << std::endl;
}

// ---------------------------------------------------------------------------
// Correctness gates shared by both modes
// ---------------------------------------------------------------------------

void gate_run(Report& rep, const Workload& w, const RunOut& run, bool quick) {
  const SimPlane& sp = run.sp;
  rep.gate(sp.consistent, "replicas disagree on the committed chain");
  rep.gate(sp.safety_violations == 0, "safety violations");
  rep.gate(sp.certs_rejected == 0,
           "certificates rejected with no Byzantine replica");
  rep.gate(sp.latency_samples > 0, "no transaction committed in the window");
  if (quick) return;  // coverage needs the full horizon
  if (w.name == "lan_long") {
    rep.gate(sp.committed_height >= 3000 && sp.live_vertices >= 3000,
             "lan_long: committed chain below 3000 blocks at retention 0");
  } else if (w.name == "wide_n32") {
    rep.gate(sp.high_qc_sigs == 22, "wide_n32: QCs do not carry 22 sigs");
  } else if (w.name == "wan_faults") {
    rep.gate(sp.restarts == 2, "wan_faults: restarts != 2");
    rep.gate(sp.sync_blocks > 0, "wan_faults: no blocks synced");
    rep.gate(sp.snapshots_installed >= 1, "wan_faults: no snapshot installed");
    rep.gate(sp.timeouts > 0, "wan_faults: no view timed out");
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

void end_to_end(const Workload& w, std::uint64_t seed, double budget_s,
                bool quick, const std::string& scratch, Report& rep) {
  constexpr int kMinRuns = 2;
  constexpr int kMaxRuns = 40;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> host_per_sim, calibrations;
  RunOut first;
  double stall_ms = -1;
  double last_run_s = 0;
  // Peak RSS through the first simulation only: calibration loops and later
  // runs would add allocator growth of their own.
  double rss_mb = 0;
  for (int i = 0; i < kMaxRuns; ++i) {
    // Start another run only if it should end inside the budget.
    if (i >= kMinRuns && seconds_since(t0) + last_run_s > budget_s) break;
    const Clock::time_point r0 = Clock::now();
    // The first run has the timeline off; every later run has it on and
    // must still match the first on every simulated-plane field.
    RunMode mode;
    mode.timeline = i > 0;
    RunOut run = run_once(w, seed, mode, scratch);
    if (i == 0) rss_mb = peak_rss_mb();
    calibrations.push_back(calibration_s());
    last_run_s = seconds_since(r0);
    host_per_sim.push_back(run.sim_host_s / w.horizon_s);
    rep.attempted += run.sp.issued_w;
    rep.failed += run.sp.rejected_w;
    gate_run(rep, w, run, quick);
    if (i == 0) {
      first = std::move(run);
      continue;
    }
    rep.gate(run.sp == first.sp && run.committed_hashes == first.committed_hashes,
             "two untraced runs of one seed disagree (run " +
                 std::to_string(i) + ")");
    if (stall_ms < 0) stall_ms = run.stall_ms;
    rep.gate(run.stall_ms == stall_ms, "stall_ms differs between runs");
  }

  const SimPlane& sp = first.sp;
  std::cout << w.name << ": " << host_per_sim.size() << " runs of "
            << w.horizon_s << " simulated s, latency_samples="
            << sp.latency_samples << ", committed_height="
            << sp.committed_height << "\n";
  // Host times are reported at the calibration loop's nominal speed: the
  // raw median times kNominalCalibration_s over the run's median loop time.
  constexpr double kNominalCalibration_s = 0.15;
  rep.host_scale = kNominalCalibration_s / median(calibrations);
  std::cout << w.name << ": raw host_s_per_sim_s=" << median(host_per_sim)
            << ", calibration median " << median(calibrations)
            << " s, host scale " << rep.host_scale << "\n";
  rep.add("host_s_per_sim_s", median(host_per_sim) * rep.host_scale, "s/s",
          "lower");
  rep.add("peak_rss_mb", rss_mb, "MB", "lower");
  rep.add("sim_tput_tps", sp.tput_tps, "tx/s", "higher");
  rep.add("sim_lat_p50_ms", sp.lat_p50_ms, "ms", "lower");
  rep.add("sim_lat_p99_ms", sp.lat_p99_ms, "ms", "lower");
  rep.add("fail_ratio",
          ratio(static_cast<double>(sp.rejected_w + sp.inflight_end),
                static_cast<double>(sp.issued_w)),
          "ratio", "lower");
  rep.add("stall_ms", stall_ms, "ms", "lower");
}

// ---------------------------------------------------------------------------
// --trace 1: traced run + per-layer replays
// ---------------------------------------------------------------------------

/// Time `pass` at least three times and for at least 50 ms; returns the
/// median pass in seconds.
template <typename F>
double time_passes(F&& pass) {
  std::vector<double> per;
  const Clock::time_point t0 = Clock::now();
  while (per.size() < 3 || seconds_since(t0) < 0.05) {
    const Clock::time_point p0 = Clock::now();
    pass();
    per.push_back(seconds_since(p0));
  }
  return median(per);
}

/// The committed chain's justify QCs, re-signed with the replay key store so
/// certificate checks run the success path without reaching into the
/// cluster's private keys. Same views, hashes, signer sets and sizes.
std::vector<types::QuorumCert> resigned_qcs(
    const std::vector<types::BlockPtr>& chain, const crypto::KeyStore& keys) {
  std::vector<types::QuorumCert> qcs;
  for (const types::BlockPtr& b : chain) {
    types::QuorumCert qc = b->justify();
    if (qc.is_genesis()) continue;
    const crypto::Digest d = types::vote_digest(qc.view, qc.block_hash);
    for (crypto::Signature& sig : qc.sigs) sig = keys.sign(sig.signer, d);
    qcs.push_back(std::move(qc));
  }
  return qcs;
}

volatile std::uint64_t g_sink = 0;

void per_layer(const Workload& w, std::uint64_t seed, bool quick,
               const std::string& scratch, Report& rep) {
  // 1. traced run, untraced reference, and the program's own entry point.
  RunMode traced_mode;
  traced_mode.traced = traced_mode.timeline = true;
  RunMode plain_mode;
  plain_mode.timeline = true;
  const RunOut traced = run_once(w, seed, traced_mode, scratch);
  const RunOut ref = run_once(w, seed, plain_mode, scratch);
  gate_run(rep, w, traced, quick);
  rep.gate(traced.committed_hashes == ref.committed_hashes &&
               traced.sp == ref.sp && traced.stall_ms == ref.stall_ms,
           "tracing perturbed the run (committed chain or counters differ)");
  rep.attempted = ref.sp.issued_w;
  rep.failed = ref.sp.rejected_w;

  const DirGuard ex_dir{fresh_dir(scratch, "exec")};
  const harness::RunSpec spec = spec_of(w, seed, ex_dir.path);
  const harness::RunOutput ex = harness::execute_full(spec);
  rep.gate(ex.result.latency_hist == ref.sp.latency_hist &&
               ex.result.hist_p99_ms == ref.sp.hist_p99_ms &&
               ex.result.latency_ms_p99 == ref.sp.lat_p99_ms &&
               ex.result.latency_samples == ref.sp.latency_samples &&
               ex.events_executed == ref.events,
           "benchmark run differs from harness::execute_full");

  const SimPlane& sp = ref.sp;
  const core::Config& cfg = w.cfg;
  const std::uint32_t n = cfg.n_replicas;
  const std::vector<types::BlockPtr>& chain = traced.chain;
  rep.gate(!chain.empty(), "commit hooks captured no blocks");
  rep.gate(traced.hook_commits == sp.blocks_committed_all,
           "commit hooks missed commits");
  const double host_s = ref.sim_host_s;
  const double sim_s = w.horizon_s;

  // 2. sim: slices and EventQueue schedule+pop at the run's mean depth.
  const double depth = std::max(
      1.0, mean_of(traced.slices.pending, 0, traced.slices.pending.size()));
  double queue_ns = 0;
  {
    constexpr int kOps = 200000;
    queue_ns = 1e9 / kOps * time_passes([&] {
      sim::EventQueue q;
      util::Rng rng(seed);
      for (std::size_t i = 0; i < static_cast<std::size_t>(depth); ++i) {
        q.schedule(static_cast<sim::Time>(rng.uniform_u64(10'000'000)),
                   [] { g_sink = g_sink + 1; });
      }
      for (int i = 0; i < kOps; ++i) {
        auto fired = q.pop();
        fired.fn();
        q.schedule(fired.at + static_cast<sim::Time>(
                                  rng.uniform_u64(10'000'000)),
                   [] { g_sink = g_sink + 1; });
      }
    });
  }
  std::vector<double> slice_ms;
  for (double s : traced.slices.host_s) slice_ms.push_back(s * 1000.0);
  const double sim_share = ref.events * queue_ns * 1e-9 / host_s;
  rep.add("sim.events_per_sim_s", static_cast<double>(ref.events) / sim_s,
          "1/s", "lower");
  rep.add("sim.mevents_per_s", static_cast<double>(ref.events) / host_s / 1e6,
          "Mevents/s", "higher");
  rep.add("sim.slice_ms_p50", percentile(slice_ms, 50), "ms", "lower");
  rep.add("sim.slice_ms_p90", percentile(slice_ms, 90), "ms", "lower");
  rep.add("sim.cost_growth", growth(slice_ms), "ratio", "lower");
  rep.add("sim.queue_ns", queue_ns, "ns", "lower");

  // 3. net: broadcast of a captured proposal at the workload's n.
  double bcast_ns = 0;
  {
    const DirGuard dir{fresh_dir(scratch, "net")};
    harness::Cluster probe_cluster(config_for(w, seed, dir.path));
    net::SimNetwork& net = probe_cluster.network();
    std::uint64_t delivered = 0;
    for (types::NodeId id = 0; id < net.num_endpoints(); ++id) {
      net.set_handler(id, [&delivered](const net::Envelope&) { ++delivered; });
    }
    types::ProposalMsg prop;
    prop.block = chain.empty() ? types::Block::genesis() : chain.back();
    const types::MessagePtr msg = types::make_message(std::move(prop));
    sim::Simulator& s = probe_cluster.simulator();
    constexpr int kRounds = 200;
    const double per_round = time_passes([&] {
      for (int r = 0; r < kRounds; ++r) {
        s.schedule_at(s.now(), [&net, &msg, n] { net.broadcast(0, n, msg); });
        s.run_all();
      }
    });
    bcast_ns = per_round / kRounds / std::max(1u, n - 1) * 1e9;
    rep.gate(delivered > 0, "net replay delivered nothing");
  }
  const double net_share = sp.messages_sent * bcast_ns * 1e-9 / host_s;
  rep.add("net.msgs_per_commit",
          ratio(static_cast<double>(sp.messages_sent),
                static_cast<double>(sp.committed_height)),
          "count", "lower");
  rep.add("net.bytes_per_tx",
          ratio(static_cast<double>(sp.bytes_sent),
                static_cast<double>(sp.completed_total)),
          "B", "lower");
  rep.add("net.broadcast_ns_per_dest", bcast_ns, "ns", "lower");

  // 4. crypto: SHA-256 over block encodings, vote/timeout digests, HMAC
  // verification of the captured certificates' signatures.
  const crypto::KeyStore keys(seed, cfg.num_endpoints());
  const std::vector<types::QuorumCert> qcs = resigned_qcs(chain, keys);
  std::vector<std::vector<std::uint8_t>> encodings;
  std::uint64_t enc_bytes = 0;
  const std::size_t enc_stride = std::max<std::size_t>(1, chain.size() / 1000);
  for (std::size_t i = 0; i < chain.size(); i += enc_stride) {
    encodings.push_back(storage::encode_block(*chain[i]));
    enc_bytes += encodings.back().size();
  }
  const double sha_s = time_passes([&] {
    for (const auto& e : encodings) g_sink = g_sink + crypto::Sha256::hash(e)[0];
  });
  const double sha_mb_s = ratio(static_cast<double>(enc_bytes) / 1e6, sha_s);
  const double mean_block_bytes =
      ratio(static_cast<double>(enc_bytes), static_cast<double>(encodings.size()));
  const double digest_ns =
      1e9 * time_passes([&] {
        for (const types::QuorumCert& qc : qcs) {
          g_sink = g_sink + types::vote_digest(qc.view, qc.block_hash)[0] +
                   types::timeout_digest(qc.view, qc.view - 1)[0];
        }
      }) /
      std::max<std::size_t>(1, 2 * qcs.size());
  std::uint64_t sigs = 0, bad_sigs = 0;
  for (const types::QuorumCert& qc : qcs) sigs += qc.sigs.size();
  const double verify_ns =
      1e9 * time_passes([&] {
        bad_sigs = 0;
        for (const types::QuorumCert& qc : qcs) {
          const crypto::Digest d = types::vote_digest(qc.view, qc.block_hash);
          for (const crypto::Signature& sig : qc.sigs) {
            if (!keys.verify(sig, d)) ++bad_sigs;
          }
        }
      }) /
      std::max<std::uint64_t>(1, sigs);
  rep.gate(bad_sigs == 0, "crypto replay: re-signed votes do not verify");
  const double sigs_per_qc =
      ratio(static_cast<double>(sigs), static_cast<double>(qcs.size()));
  // Each vote is signed once and verified at each receiver; every other
  // consensus message carries one signature; certificates carry k each.
  const double consensus_msgs = static_cast<double>(
      sp.msgs_handled > sp.issued_total ? sp.msgs_handled - sp.issued_total
                                        : 0);
  const double hmac_calls = static_cast<double>(sp.votes_sent) +
                            consensus_msgs +
                            static_cast<double>(sp.certs_verified) * sigs_per_qc;
  const double crypto_s =
      static_cast<double>(sp.blocks_proposed) * mean_block_bytes / 1e6 /
          std::max(1e-9, sha_mb_s) +
      2.0 * static_cast<double>(sp.votes_sent) * digest_ns * 1e-9 +
      hmac_calls * verify_ns * 1e-9;
  rep.add("crypto.sha256_mb_s", sha_mb_s, "MB/s", "higher");
  rep.add("crypto.digest_ns", digest_ns, "ns", "lower");
  rep.add("crypto.verify_ns", verify_ns, "ns", "lower");

  // 5. quorum: CertVerifier::check_qc and VoteAggregator::add.
  std::uint64_t qc_bad = 0;
  const double qc_check_s =
      time_passes([&] {
        quorum::CertVerifier verifier(keys, n);
        qc_bad = 0;
        for (const types::QuorumCert& qc : qcs) {
          if (verifier.check_qc(qc) != quorum::CertCheck::kOk) ++qc_bad;
        }
      }) /
      std::max<std::size_t>(1, qcs.size());
  rep.gate(qc_bad == 0, "quorum replay: captured QCs fail check_qc");
  const double vote_add_ns =
      1e9 * time_passes([&] {
        quorum::VoteAggregator agg(n);
        for (const types::QuorumCert& qc : qcs) {
          for (const crypto::Signature& sig : qc.sigs) {
            types::VoteMsg v;
            v.view = qc.view;
            v.height = qc.height;
            v.slot = qc.slot;
            v.block_hash = qc.block_hash;
            v.sig = sig;
            g_sink = g_sink + agg.add(v).has_value();
          }
          if (qc.view > 64) agg.gc_below(qc.view - 64);
        }
      }) /
      std::max<std::uint64_t>(1, sigs);
  // check_qc's own time, less the HMACs it runs (counted under crypto).
  const double qc_self_s =
      std::max(0.0, qc_check_s - sigs_per_qc * verify_ns * 1e-9);
  const double quorum_s =
      static_cast<double>(sp.certs_verified) * qc_self_s +
      static_cast<double>(sp.votes_sent) * vote_add_ns * 1e-9;
  rep.add("quorum.qc_check_us", qc_check_s * 1e6, "us", "lower");
  rep.add("quorum.vote_add_ns", vote_add_ns, "ns", "lower");
  rep.add("quorum.certs_per_commit",
          ratio(static_cast<double>(sp.certs_verified),
                static_cast<double>(sp.blocks_committed_all)),
          "count", "lower");
  rep.add("quorum.certs_rejected", static_cast<double>(sp.certs_rejected),
          "count", "lower");

  // 6. forest: add, add_qc, commit, prune (and retention pruning) replayed
  // over the captured chain, one timing per committed block.
  std::vector<double> commit_us;
  {
    forest::BlockForest forest;
    commit_us.reserve(chain.size());
    for (const types::BlockPtr& b : chain) {
      const Clock::time_point c0 = Clock::now();
      forest.add(b);
      forest.add_qc(b->justify());
      forest.commit(b->hash());
      g_sink = g_sink + forest.prune().size();
      if (cfg.retention > 0 && forest.committed_height() > cfg.retention) {
        forest.prune_below(forest.committed_height() - cfg.retention);
      }
      commit_us.push_back(seconds_since(c0) * 1e6);
    }
  }
  const double forest_s = static_cast<double>(sp.blocks_committed_all) *
                          mean_of(commit_us, 0, commit_us.size()) * 1e-6;
  rep.add("forest.commit_us_p50", percentile(commit_us, 50), "us", "lower");
  rep.add("forest.commit_us_p90", percentile(commit_us, 90), "us", "lower");
  rep.add("forest.commit_growth", growth(commit_us), "ratio", "lower");
  rep.add("forest.live_vertices", static_cast<double>(sp.live_vertices),
          "count", "lower");
  rep.add("forest.fork_ratio",
          ratio(static_cast<double>(sp.blocks_forked),
                static_cast<double>(sp.blocks_received)),
          "ratio", "lower");

  // 7. mempool: add_new of the committed transactions, take(bsize) +
  // mark_committed per block.
  double add_s = 0, take_s = 0;
  std::uint64_t adds = 0, takes = 0;
  {
    mempool::Mempool pool(cfg.memsize, mempool::parse_admission(cfg.admission));
    constexpr std::uint64_t kMaxTx = 200000;
    for (const types::BlockPtr& b : chain) {
      if (adds >= kMaxTx) break;
      const Clock::time_point a0 = Clock::now();
      for (const types::Transaction& tx : b->txns()) pool.add_new(tx);
      add_s += seconds_since(a0);
      adds += b->txns().size();
      const Clock::time_point t0 = Clock::now();
      for (const types::Transaction& tx : pool.take(cfg.bsize)) {
        pool.mark_committed(tx.id);
      }
      take_s += seconds_since(t0);
      ++takes;
    }
  }
  const double add_ns = ratio(add_s * 1e9, static_cast<double>(adds));
  const double take_us = ratio(take_s * 1e6, static_cast<double>(takes));
  const double mempool_s =
      static_cast<double>(sp.mem_admitted) * add_ns * 1e-9 +
      static_cast<double>(sp.blocks_proposed) * take_us * 1e-6;
  rep.add("mempool.add_ns", add_ns, "ns", "lower");
  rep.add("mempool.take_us", take_us, "us", "lower");
  rep.add("mempool.reject_frac",
          ratio(static_cast<double>(sp.mem_rejected),
                static_cast<double>(sp.mem_admitted + sp.mem_rejected)),
          "ratio", "lower");

  // 8. pacemaker, replica CPU queue, sync: counters of the run.
  rep.add("pacemaker.timeout_frac",
          ratio(static_cast<double>(sp.observer_timeouts),
                static_cast<double>(sp.views)),
          "ratio", "lower");
  rep.add("replica.cpu_util",
          static_cast<double>(sp.cpu_busy_ns) / 1e9 / (n * sim_s), "ratio",
          "lower");
  rep.add("sync.blocks_per_request",
          ratio(static_cast<double>(sp.sync_blocks),
                static_cast<double>(sp.sync_requests)),
          "count", "higher");
  rep.add("sync.recovery_ms", sp.recovery_ms, "ms", "lower");
  rep.add("sync.snapshots_installed",
          static_cast<double>(sp.snapshots_installed), "count", "higher");

  // 9. storage: append the captured chain to the workload's store kind,
  // then reopen it and replay it into a fresh forest (the restart path).
  double append_us = 0, reload_us = 0;
  {
    const DirGuard dir{fresh_dir(scratch, "replay")};
    std::filesystem::create_directories(dir.path);
    const std::string path =
        (std::filesystem::path(dir.path) / "log.blk").string();
    std::unique_ptr<storage::BlockStore> store =
        storage::make_store(cfg.store, path);
    const Clock::time_point a0 = Clock::now();
    for (const types::BlockPtr& b : chain) store->append(b);
    append_us = ratio(seconds_since(a0) * 1e6, static_cast<double>(chain.size()));
    const Clock::time_point r0 = Clock::now();
    std::unique_ptr<storage::BlockStore> reopened =
        cfg.store == "file" ? storage::make_store(cfg.store, path)
                            : std::move(store);
    forest::BlockForest forest;
    types::BlockPtr best;
    reopened->replay([&](const types::BlockPtr& b) {
      if (forest.add(b) != forest::AddResult::kAdded) return;
      forest.add_qc(b->justify());
      best = b;
    });
    if (best) forest.commit(best->hash());
    reload_us = ratio(seconds_since(r0) * 1e6, static_cast<double>(chain.size()));
    rep.gate(!best || forest.committed_height() == chain.back()->height(),
             "storage replay did not rebuild the chain");
  }
  const double storage_s =
      static_cast<double>(sp.store_appends) * append_us * 1e-6 +
      static_cast<double>(sp.store_reads) * reload_us * 1e-6;
  rep.add("storage.append_us", append_us, "us", "lower");
  rep.add("storage.reload_us_per_block", reload_us, "us", "lower");
  rep.add("storage.write_amp",
          ratio(static_cast<double>(sp.disk_bytes),
                static_cast<double>(sp.disk_logical)),
          "ratio", "lower");

  // 10. harness/report: one run record through CSV and JSON.
  const double record_s = time_passes([&] {
    const harness::report::Record rec = harness::report::make_run_record(
        "perfbench", w.name, w.name, 0, spec, 0, 1, ex.result);
    g_sink = g_sink + harness::report::csv_row(rec).size() +
             harness::report::to_json(rec).dump().size();
  });
  rep.add("report.record_us", record_s * 1e6, "us", "lower");

  // 11. layer shares: replayed cost per call x the run's call count, over
  // the untraced run's host time.
  const double shares[] = {sim_share,          net_share,
                           crypto_s / host_s,  quorum_s / host_s,
                           forest_s / host_s,  mempool_s / host_s,
                           storage_s / host_s, record_s / host_s};
  const char* names[] = {"sim",    "net",     "crypto",  "quorum",
                         "forest", "mempool", "storage", "report"};
  double explained = 0;
  for (std::size_t i = 0; i < std::size(shares); ++i) {
    rep.add(std::string("share.") + names[i], shares[i], "ratio", "lower");
    explained += shares[i];
  }
  rep.add("trace.overhead_frac", traced.sim_host_s / host_s - 1.0, "ratio",
          "lower");
  rep.add("trace.explained_frac", explained, "ratio", "higher");
  std::cout << w.name << ": traced " << traced.slices.host_s.size()
            << " slices, " << chain.size() << " captured blocks, "
            << qcs.size() << " QCs of " << sigs_per_qc << " sigs\n";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--quick] [--setup-only]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch;
  std::uint64_t seed = 11;
  double seconds = 10;
  int trace = 0;
  bool quick = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stod(next());
      else if (a == "--trace") trace = std::stoi(next());
      else if (a == "--scratch") scratch = next();
      else if (a == "--quick") quick = true;
      else if (a == "--setup-only") setup_only = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (workload.empty() || scratch.empty()) usage("--workload and --scratch are required");
  if (trace != 0 && trace != 1) usage("--trace takes 0 or 1");
  try {
    std::filesystem::create_directories(scratch);
    const Workload w = make_workload(workload, quick);
    if (setup_only) {
      RunMode mode;
      mode.setup_only = true;
      std::cout << "first_event_ns " << run_once(w, seed, mode, scratch).first_event_ns
                << std::endl;
      return 0;
    }
    Report rep;
    if (trace == 0) {
      end_to_end(w, seed, seconds, quick, scratch, rep);
    } else {
      per_layer(w, seed, quick, scratch, rep);
    }
    print_report(rep);
    return rep.failed_gates.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
