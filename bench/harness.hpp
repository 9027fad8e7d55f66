// Fixed-duration mixed-workload benchmark driver, reproducing the paper's
// §6 methodology: T threads repeatedly invoke a random operation on a
// uniformly random key from a range of size 2S against a structure
// prefilled with S keys; we report aggregate throughput, plus the wasted-
// memory and fence metrics behind Figs 5–7.
//
// Defaults are scaled for a small machine (the paper used 88 hardware
// threads and 5-second runs); pass --full for paper-scale parameters.
// Thread counts beyond the core count run oversubscribed, which is exactly
// the stall-inducing regime the paper probes past 88 threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/cli.hpp"
#include "common/thread_registry.hpp"
#include "common/rng.hpp"
#include "ds/fraser_skiplist.hpp"
#include "ds/michael_list.hpp"
#include "ds/natarajan_tree.hpp"
#include "obs/report.hpp"
#include "smr/smr.hpp"

namespace mp::bench {

struct Workload {
  int insert_pct;
  int remove_pct;
  const char* name;
};

/// The paper's three workloads (§6 "Workloads").
inline constexpr Workload kReadDominated{5, 5, "read-dom"};
inline constexpr Workload kWriteDominated{50, 50, "write-dom"};
inline constexpr Workload kReadOnly{0, 0, "read-only"};

/// Median cost of one steady_clock read, calibrated once per process from
/// ~1k back-to-back reads. The chained-timestamp capture in run_workload
/// charges each op exactly one clock read; subtracting this recovers the
/// op's own latency (a ~20 ns vDSO read is a visible bias on sub-100 ns
/// reads). Median, not min: the min underestimates whenever the TSC path
/// pipelines two adjacent reads more tightly than a read embedded in real
/// work.
inline std::uint64_t clock_read_overhead_ns() {
  static const std::uint64_t overhead = [] {
    constexpr int kSamples = 1001;
    std::vector<std::uint64_t> deltas(kSamples);
    auto prev = std::chrono::steady_clock::now();
    for (int i = 0; i < kSamples; ++i) {
      const auto now = std::chrono::steady_clock::now();
      deltas[i] = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
              .count());
      prev = now;
    }
    std::nth_element(deltas.begin(), deltas.begin() + kSamples / 2,
                     deltas.end());
    return deltas[kSamples / 2];
  }();
  return overhead;
}

/// Per-operation-type latency histograms (merged across worker threads).
struct OpLatency {
  obs::LatencyHistogram contains;
  obs::LatencyHistogram insert;
  obs::LatencyHistogram remove;

  void merge(const OpLatency& other) noexcept {
    contains.merge(other.contains);
    insert.merge(other.insert);
    remove.merge(other.remove);
  }

  obs::json::Value to_json() const {
    obs::json::Value out = obs::json::Value::object();
    out["contains"] = obs::to_json(contains);
    out["insert"] = obs::to_json(insert);
    out["remove"] = obs::to_json(remove);
    return out;
  }
};

struct RunResult {
  double mops = 0;             ///< aggregate throughput, million ops/s
  double avg_retired = 0;      ///< mean retired-list size at op start (Fig 6)
  double fences_per_read = 0;  ///< Fig 5 numerator/denominator
  std::uint64_t ops = 0;
  std::uint64_t departures = 0;  ///< churn mode: detach/re-register cycles
  smr::StatsSnapshot stats;    ///< delta over the timed phase
  OpLatency latency;           ///< per-op-type latency, ns
};

/// Insert uniformly random keys from [1, key_range] until `target` distinct
/// keys are present (§6: S keys from a range of size 2S).
template <typename DS>
void prefill(DS& ds, std::size_t target, std::uint64_t key_range,
             std::uint64_t seed = 0xF111) {
  common::Xoshiro256 rng(seed);
  const auto handle = ds.scheme().handle(0);
  std::size_t inserted = 0;
  while (inserted < target) {
    inserted += ds.insert(handle, 1 + rng.next_below(key_range), 1);
  }
}

/// Build a list by inserting keys in ascending order (Fig 7a's worst case
/// for MP index assignment: every insert halves the remaining index range).
template <typename DS>
void prefill_ascending(DS& ds, std::size_t count) {
  const auto handle = ds.scheme().handle(0);
  for (std::uint64_t key = 1; key <= count; ++key) {
    ds.insert(handle, key, key);
  }
}

/// Run one timed measurement: `threads` workers do random ops for
/// `duration_ms`, reporting deltas of the scheme's counters.
///
/// Churn mode (`churn` > 0, DESIGN.md §6): instead of using its worker
/// index as a fixed tid, each worker leases ids from a ThreadRegistry whose
/// detach hook forwards to Scheme::detach. Every `churn` completed ops the
/// worker departs (detach clears its protection state and orphans its
/// retired list) and immediately re-registers as a fresh worker — the
/// worker-pool-churn lifecycle the orphan pool exists for.
template <typename DS>
RunResult run_workload(DS& ds, int threads, const Workload& workload,
                       std::uint64_t key_range, int duration_ms,
                       std::uint64_t seed = 42, std::uint64_t churn = 0) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> total_departures{0};
  common::SpinBarrier barrier(static_cast<std::size_t>(threads) + 1);
  const smr::StatsSnapshot before = ds.scheme().stats_snapshot();

  std::unique_ptr<common::ThreadRegistry> registry;
  if (churn > 0) {
    registry = std::make_unique<common::ThreadRegistry>(
        ds.scheme().config().max_threads);
    registry->set_detach_hook(
        [](void* context, int tid) {
          static_cast<typename DS::Scheme*>(context)->detach(tid);
        },
        &ds.scheme());
  }

  std::mutex latency_mutex;
  OpLatency latency;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Workers draw from jump()-separated substreams of the one run seed:
      // additive seeding (`seed + t * 7919`) put worker states at unknown
      // relative phases of the same xoshiro orbit, so two streams could
      // overlap within a long run. Substreams are 2^128 steps apart.
      common::Xoshiro256 rng =
          common::Xoshiro256::stream(seed, static_cast<std::uint64_t>(t));
      std::uint64_t ops = 0;
      std::uint64_t departures = 0;
      std::optional<common::ThreadLease> lease;
      int tid = t;
      if (registry != nullptr) {
        lease.emplace(*registry);
        tid = lease->tid();
      }
      // The handle pairs this worker's tid with the scheme once; it is
      // re-minted after every churn departure since the tid changes.
      auto handle = ds.scheme().handle(tid);
      OpLatency local;  // single-writer; merged under the mutex after stop
      barrier.arrive_and_wait();
      // Chained timestamps: each op's end is the next op's start, so
      // latency capture costs one clock read per op (~20 ns on Linux
      // vDSO), not two. That one read's calibrated cost is subtracted
      // from every sample (floored at 0) so histograms report op time,
      // not op + clock time.
      const std::uint64_t clock_cost = clock_read_overhead_ns();
      auto prev = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.next_below(key_range);
        const auto coin = static_cast<int>(rng.next() % 100);
        obs::LatencyHistogram* hist;
        if (coin < workload.insert_pct) {
          ds.insert(handle, key, key);
          hist = &local.insert;
        } else if (coin < workload.insert_pct + workload.remove_pct) {
          ds.remove(handle, key);
          hist = &local.remove;
        } else {
          ds.contains(handle, key);
          hist = &local.contains;
        }
        const auto now = std::chrono::steady_clock::now();
        const std::uint64_t raw = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
                .count());
        hist->record(raw > clock_cost ? raw - clock_cost : 0);
        prev = now;
        ++ops;
        if (churn != 0 && ops % churn == 0) {
          // Depart (runs the detach hook: protection cleared, retired list
          // orphaned) and come back as a fresh worker. detach-then-assign
          // keeps the transient id footprint at one per worker, so churn
          // works even at threads == max_threads.
          lease->detach();
          *lease = common::ThreadLease(*registry);
          tid = lease->tid();
          handle = ds.scheme().handle(tid);
          ++departures;
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
      total_departures.fetch_add(departures, std::memory_order_relaxed);
      std::lock_guard lock(latency_mutex);
      latency.merge(local);
    });
  }

  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.ops = total_ops.load();
  result.departures = total_departures.load();
  const double seconds =
      std::chrono::duration<double>(end - start).count();
  result.mops = static_cast<double>(result.ops) / seconds / 1e6;
  result.stats = ds.scheme().stats_snapshot() - before;
  result.avg_retired = result.stats.avg_retired();
  result.fences_per_read =
      result.stats.reads == 0
          ? 0
          : static_cast<double>(result.stats.fences) /
                static_cast<double>(result.stats.reads);
  result.latency = latency;
  return result;
}

/// Common CLI flags for throughput benchmarks.
struct BenchArgs {
  std::vector<int> thread_counts;
  std::vector<std::string> schemes;
  std::size_t size = 0;           ///< S (prefill)
  int duration_ms = 0;
  std::uint32_t margin = 1u << 20;
  int runs = 1;
  std::size_t max_threads = 0;    ///< scheme slot capacity
  std::uint64_t churn = 0;        ///< ops per worker between departures (0=off)
  std::uint64_t scan_quantum = 0; ///< deamortized reclamation quantum (0=off)
  bool pool = true;               ///< node-pool arm (--pool on|off)
  bool reclaim_bg = false;        ///< reclamation arm (--reclaim fg|bg)
  std::string json_out;           ///< report path ("" = BENCH_<name>.json)

  static BenchArgs parse(int argc, char** argv, const char* description,
                         std::size_t default_size,
                         std::size_t full_size,
                         const char* default_schemes,
                         const char* default_threads = "1,2,4,8,16,32") {
    common::Cli cli(description);
    cli.add_string("threads", default_threads, "comma-separated thread counts");
    cli.add_string("schemes", default_schemes, "comma-separated SMR schemes");
    cli.add_int("size", static_cast<std::int64_t>(default_size),
                "prefill size S (keys drawn from a 2S range)");
    cli.add_int("duration-ms", 250, "measurement window per data point");
    cli.add_int("runs", 1, "repetitions per data point (averaged)");
    cli.add_int("margin", 1 << 20, "MP margin size");
    cli.add_int("churn", 0,
                "thread churn: each worker detaches and re-registers every N "
                "ops (0 = immortal workers)");
    cli.add_int("scan-quantum", 0,
                "deamortized reclamation: max retired nodes examined per "
                "step (0 = one unbounded step; else must be >= 2)");
    cli.add_string("pool", "on",
                   "node-pool allocation arm: on (per-thread magazines + "
                   "global depot) or off (system allocator)");
    cli.add_string("reclaim", "fg",
                   "reclamation arm: fg (scan/free inline on application "
                   "threads) or bg (offload to the background reclaimer)");
    cli.add_bool("full", "paper-scale parameters (large size, 1s windows)");
    cli.add_string("json-out", "",
                   "JSON report path (default: BENCH_<bench>.json in the "
                   "working directory)");
    cli.parse(argc, argv);

    BenchArgs args;
    for (auto count : common::Cli::split_csv_int(cli.get_string("threads"))) {
      args.thread_counts.push_back(static_cast<int>(count));
    }
    args.schemes = common::Cli::split_csv(cli.get_string("schemes"));
    args.size = static_cast<std::size_t>(cli.get_int("size"));
    args.duration_ms = static_cast<int>(cli.get_int("duration-ms"));
    args.margin = static_cast<std::uint32_t>(cli.get_int("margin"));
    args.churn = static_cast<std::uint64_t>(cli.get_int("churn"));
    args.scan_quantum = static_cast<std::uint64_t>(cli.get_int("scan-quantum"));
    const std::string pool = cli.get_string("pool");
    if (pool != "on" && pool != "off") {
      std::fprintf(stderr, "--pool must be 'on' or 'off' (got '%s')\n",
                   pool.c_str());
      std::exit(2);
    }
    args.pool = pool == "on";
    const std::string reclaim = cli.get_string("reclaim");
    if (reclaim != "fg" && reclaim != "bg") {
      std::fprintf(stderr, "--reclaim must be 'fg' or 'bg' (got '%s')\n",
                   reclaim.c_str());
      std::exit(2);
    }
    args.reclaim_bg = reclaim == "bg";
    args.runs = static_cast<int>(cli.get_int("runs"));
    args.json_out = cli.get_string("json-out");
    if (cli.get_bool("full")) {
      args.size = full_size;
      args.duration_ms = 1000;
    }
    int max_threads = 1;
    for (int count : args.thread_counts) max_threads = std::max(max_threads, count);
    args.max_threads = static_cast<std::size_t>(max_threads);
    return args;
  }

  smr::Config config(int required_slots) const {
    smr::Config config;
    config.max_threads = max_threads;
    config.slots_per_thread = required_slots;
    config.margin = margin;
    config.pool_enabled = pool;
    config.background_reclaim = reclaim_bg;
    config.scan_quantum = scan_quantum;
    return config;
  }
};

/// Fill a report's "config" object from the common CLI arguments.
inline void fill_report_config(obs::BenchReport& report,
                               const BenchArgs& args) {
  auto& config = report.config();
  config["size"] = args.size;
  config["duration_ms"] = static_cast<std::uint64_t>(args.duration_ms);
  config["runs"] = static_cast<std::uint64_t>(args.runs);
  config["margin"] = static_cast<std::uint64_t>(args.margin);
  config["churn"] = args.churn;
  config["scan_quantum"] = args.scan_quantum;
  config["pool"] = args.pool ? "on" : "off";
  // The arm that actually ran: ASan builds force the pool off.
  config["pool_effective"] =
      (args.pool && !smr::kPoolForcedOff) ? "on" : "off";
  config["reclaim"] = args.reclaim_bg ? "bg" : "fg";
  obs::json::Value threads = obs::json::Value::array();
  for (const int t : args.thread_counts) {
    threads.push_back(static_cast<std::uint64_t>(t));
  }
  config["threads"] = threads;
  obs::json::Value schemes = obs::json::Value::array();
  for (const auto& s : args.schemes) schemes.push_back(s);
  config["schemes"] = schemes;
}

/// Per-scheme capability flags (report schema v8): which reclamation
/// capabilities the scheme declares at compile time. Attached to report
/// rows so downstream tooling can group schemes without a name table.
template <typename Scheme>
obs::json::Value scheme_capabilities() {
  obs::json::Value caps = obs::json::Value::object();
  caps["snapshot_free"] = Scheme::kSnapshotFree;
  caps["bounded_waste"] = Scheme::kBoundedWaste;
  caps["robust"] = Scheme::kRobust;
  return caps;
}

/// One report row in the shape shared by the figure benches: the CSV
/// columns plus the full stats/waste/latency sections.
inline obs::json::Value make_row(const char* figure, const char* structure,
                                 const char* workload, const char* scheme,
                                 int threads, double mops, double avg_retired,
                                 double fences_per_read,
                                 const smr::StatsSnapshot& stats,
                                 std::uint64_t waste_bound,
                                 const OpLatency* latency) {
  obs::json::Value row = obs::json::Value::object();
  row["figure"] = figure;
  row["structure"] = structure;
  row["workload"] = workload;
  row["scheme"] = scheme;
  row["threads"] = static_cast<std::uint64_t>(threads);
  row["mops"] = mops;
  row["avg_retired"] = avg_retired;
  row["fences_per_read"] = fences_per_read;
  row["stats"] = obs::to_json(stats);
  row["waste"] = obs::waste_json(waste_bound, stats.peak_retired);
  if (latency != nullptr) row["latency_ns"] = latency->to_json();
  return row;
}

/// One data point of a throughput figure: fresh-ish structure (drained
/// between thread counts), averaged over `runs` repetitions. When `report`
/// is non-null every data point also lands there as a JSON row (stats
/// summed across the runs, latency histograms merged).
template <typename DS>
void sweep_threads(const char* figure, const char* ds_name,
                   const char* scheme_name, const BenchArgs& args,
                   const Workload& workload, int required_slots,
                   obs::BenchReport* report = nullptr) {
  auto config = args.config(required_slots);
  DS ds(config);
  prefill(ds, args.size, 2 * args.size);
  const std::uint64_t waste_bound =
      DS::Scheme::waste_bound_per_thread(config);
  for (int threads : args.thread_counts) {
    double mops = 0, avg_retired = 0, fences_per_read = 0;
    smr::StatsSnapshot stats_sum;
    OpLatency latency;
    for (int run = 0; run < args.runs; ++run) {
      const RunResult result = run_workload(ds, threads, workload,
                                            2 * args.size, args.duration_ms,
                                            42 + run, args.churn);
      mops += result.mops;
      avg_retired += result.avg_retired;
      fences_per_read += result.fences_per_read;
      stats_sum += result.stats;
      latency.merge(result.latency);
      ds.scheme().drain();  // quiescent between points
    }
    std::printf("%s,%s,%s,%s,%d,%.3f,%.1f,%.4f,%llu,%llu\n", figure, ds_name,
                workload.name, scheme_name, threads, mops / args.runs,
                avg_retired / args.runs, fences_per_read / args.runs,
                static_cast<unsigned long long>(stats_sum.peak_retired),
                static_cast<unsigned long long>(stats_sum.emergency_empties));
    std::fflush(stdout);
    if (report != nullptr) {
      auto row = make_row(figure, ds_name, workload.name, scheme_name,
                          threads, mops / args.runs, avg_retired / args.runs,
                          fences_per_read / args.runs, stats_sum, waste_bound,
                          &latency);
      row["capabilities"] = scheme_capabilities<typename DS::Scheme>();
      report->add_row(std::move(row));
    }
  }
}

/// Header for the CSV rows emitted by sweep_threads.
inline void print_header() {
  std::printf(
      "figure,structure,workload,scheme,threads,mops,avg_retired,"
      "fences_per_read,peak_retired,emergency_empties\n");
}

/// Dispatch a macro body over a scheme named on the command line, driven
/// by the central smr::AllSchemes typelist (schemes.hpp): a scheme added
/// there is immediately addressable from every bench's --schemes flag.
/// `action` is a macro taking the scheme class template as its argument;
/// it is expanded once per listed scheme inside a generic lambda, with the
/// lambda's template parameter standing in for the scheme.
#define MARGINPTR_DISPATCH_SCHEME(scheme_name, action)                        \
  do {                                                                        \
    const std::string& name_ = (scheme_name);                                 \
    bool matched_ = false;                                                    \
    mp::smr::AllSchemes::for_each(                                            \
        [&]<template <typename> class SchemeT_>() {                           \
          if (matched_ ||                                                     \
              name_ != SchemeT_<mp::smr::detail::ConceptProbeNode>::kName) {  \
            return;                                                           \
          }                                                                   \
          matched_ = true;                                                    \
          action(SchemeT_);                                                   \
        });                                                                   \
    if (!matched_) {                                                          \
      std::fprintf(stderr, "unknown scheme: %s\n", name_.c_str());            \
      std::exit(2);                                                           \
    }                                                                         \
  } while (0)

}  // namespace mp::bench
