// Tail-latency A/B for deamortized reclamation (DESIGN.md §12), plus the
// batched read path:
//
//   * pause_ab: the same write-dominated MichaelList run twice per scheme —
//     amortized (scan_quantum = 0: each pass one unbounded engine step) vs
//     deamortized (scan_quantum = Q: bounded cursor increments). empty_freq
//     is set low enough that reclamation passes land well above p999
//     frequency, so the histogram tail shows the pause, not just the mean.
//     Reported per arm: throughput, the scheme's own max_pause_ns
//     high-water (the longest single reclamation increment, measured
//     inside run_reclaim_increment), and the merged op-latency p999/max.
//
//   * pause_probe: the deterministic arm of the claim. Build a retired
//     backlog of --probe-backlog nodes with no protection anywhere, let
//     the scheduled pass hit it, and read back the scheme's max_pause_ns
//     high-water: the amortized arm's longest pause is one unbounded step
//     over the whole backlog, the deamortized arm's is one quantum-bounded
//     increment — a structural ~backlog/quantum gap that host noise cannot
//     flip. Each arm takes the min over repeats, since preemption can only
//     inflate a high-water, never deflate it.
//
//   * get_many_ab: K random single get() calls vs one get_many(K) on a
//     MichaelHashSet big enough to out-size the caches, single-threaded.
//     get_many amortizes the operation bracket (fences) over K keys and
//     software-prefetches K independent bucket chains.
//
// --latency-gate turns the comparisons into exit status: nonzero when any
// reclaiming scheme's deamortized probe fails to strictly lower
// max_pause_ns, when the workload arm's p999/throughput regress past
// their tolerances, when any scheme's get_many loses to singles, or when
// no gated scheme reaches the --gate-speedup floor. (The probe carries
// the deamortization proof; the workload-arm numbers are regression
// catches — on a noisy single-CPU host their run-to-run variance exceeds
// the effect the strict comparison would need.)
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ds/michael_hashset.hpp"
#include "harness.hpp"

namespace {

struct PauseArm {
  double mops = 0;
  std::uint64_t max_pause_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t max_ns = 0;
  mp::smr::StatsSnapshot stats;
  mp::bench::OpLatency latency;
};

struct GateState {
  bool enabled = false;
  double throughput_tolerance = 0.15;  ///< allowed deamortized mops loss
  double p999_tolerance = 0.25;        ///< allowed deamortized p999 growth
  double min_speedup = 1.3;            ///< best get_many vs singles
  double best_speedup = 0;             ///< max speedup over gated schemes
  bool saw_speedup = false;
  std::vector<std::string> failures;

  void fail(std::string why) { failures.push_back(std::move(why)); }
};

struct Params {
  std::vector<std::string> schemes;
  std::size_t list_size = 2000;
  std::size_t hash_size = 100000;
  int duration_ms = 300;
  std::uint64_t quantum = 32;
  std::uint64_t empty_freq = 192;
  std::uint64_t probe_backlog = 16384;
  std::size_t batch = 16;
  std::string json_out;
};

/// Scheme-level node for the pause probe (the bench cannot reuse the test
/// tree's TestNode). Schemes never dereference past NodeBase, so `key` is
/// just ballast that gives the node a realistic footprint.
struct ProbeNode : mp::smr::NodeBase {
  std::uint64_t key;
  explicit ProbeNode(std::uint64_t k = 0) : key(k) {}
};

/// One probe run: retire 2x`backlog` unprotected nodes with empty_freq ==
/// backlog, so the scheduled pass at retire #backlog faces the whole
/// backlog at once. Amortized (quantum == 0) that is one unbounded step;
/// deamortized the same work drains through quantum-bounded increments
/// riding the second `backlog` retires. Returns the scheme's own
/// max_pause_ns high-water (pause_clock_ns around run_reclaim_increment).
template <template <typename> class S>
std::uint64_t pause_probe_once(const Params& params, std::uint64_t quantum) {
  mp::smr::Config config;
  config.max_threads = 1;
  config.slots_per_thread = 2;
  config.empty_freq = static_cast<std::uint32_t>(params.probe_backlog);
  config.scan_quantum = quantum;
  S<ProbeNode> scheme(config);
  for (std::uint64_t i = 0; i < 2 * params.probe_backlog; ++i) {
    scheme.retire(0, scheme.alloc(0, i));
  }
  return scheme.stats_snapshot().max_pause_ns;
}

/// Min over repeats: preemption mid-increment can only inflate a single
/// run's high-water, never deflate it, so the min is the noise-free floor.
template <template <typename> class S>
std::uint64_t pause_probe(const Params& params, std::uint64_t quantum) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (int rep = 0; rep < 3; ++rep) {
    best = std::min(best, pause_probe_once<S>(params, quantum));
  }
  return best;
}

template <template <typename> class S>
PauseArm run_pause_arm(const Params& params, std::uint64_t quantum) {
  mp::smr::Config config;
  config.max_threads = 1;
  config.slots_per_thread = mp::ds::MichaelList<S>::kRequiredSlots;
  config.empty_freq = static_cast<std::uint32_t>(params.empty_freq);
  config.scan_quantum = quantum;
  mp::ds::MichaelList<S> list(config);
  mp::bench::prefill(list, params.list_size, 2 * params.list_size);
  const mp::bench::RunResult result = mp::bench::run_workload(
      list, 1, mp::bench::kWriteDominated, 2 * params.list_size,
      params.duration_ms);
  PauseArm arm;
  arm.mops = result.mops;
  arm.stats = result.stats;
  arm.max_pause_ns = result.stats.max_pause_ns;
  arm.latency = result.latency;
  mp::obs::LatencyHistogram all = result.latency.contains;
  all.merge(result.latency.insert);
  all.merge(result.latency.remove);
  arm.p999_ns = all.p999();
  arm.max_ns = all.max();
  return arm;
}

mp::obs::json::Value pause_row(const char* scheme, const char* arm_name,
                               std::uint64_t quantum, const PauseArm& arm) {
  mp::obs::json::Value row = mp::obs::json::Value::object();
  row["figure"] = "pause_ab";
  row["structure"] = "list";
  row["workload"] = mp::bench::kWriteDominated.name;
  row["scheme"] = scheme;
  row["arm"] = arm_name;
  row["scan_quantum"] = quantum;
  row["mops"] = arm.mops;
  row["max_pause_ns"] = arm.max_pause_ns;
  row["p999_ns"] = arm.p999_ns;
  row["stats"] = mp::obs::to_json(arm.stats);
  row["latency_ns"] = arm.latency.to_json();
  return row;
}

template <template <typename> class S>
void pause_ab(const char* scheme, const Params& params,
              mp::obs::BenchReport& report, GateState& gate) {
  if constexpr (S<ProbeNode>::kSnapshotFree) {
    // No scan cursor to deamortize: a nonzero scan_quantum is rejected at
    // construction, so the A/B has no B arm. The gate ignores the scheme.
    (void)params;
    (void)report;
    (void)gate;
    std::printf("pause_ab,%s,skipped(snapshot-free),-,-,-\n", scheme);
    std::fflush(stdout);
    return;
  }
  const PauseArm amortized = run_pause_arm<S>(params, 0);
  const PauseArm deamortized = run_pause_arm<S>(params, params.quantum);
  std::printf(
      "pause_ab,%s,amortized,%.3f,%llu,%llu\n"
      "pause_ab,%s,deamortized,%.3f,%llu,%llu\n",
      scheme, amortized.mops,
      static_cast<unsigned long long>(amortized.max_pause_ns),
      static_cast<unsigned long long>(amortized.p999_ns), scheme,
      deamortized.mops,
      static_cast<unsigned long long>(deamortized.max_pause_ns),
      static_cast<unsigned long long>(deamortized.p999_ns));
  std::fflush(stdout);
  report.add_row(pause_row(scheme, "amortized", 0, amortized));
  report.add_row(pause_row(scheme, "deamortized", params.quantum,
                           deamortized));

  const std::uint64_t probe_amortized = pause_probe<S>(params, 0);
  const std::uint64_t probe_deamortized =
      pause_probe<S>(params, params.quantum);
  std::printf("pause_probe,%s,amortized,%llu\n"
              "pause_probe,%s,deamortized,%llu\n",
              scheme, static_cast<unsigned long long>(probe_amortized),
              scheme, static_cast<unsigned long long>(probe_deamortized));
  std::fflush(stdout);
  mp::obs::json::Value probe = mp::obs::json::Value::object();
  probe["figure"] = "pause_probe";
  probe["scheme"] = scheme;
  probe["backlog"] = params.probe_backlog;
  probe["scan_quantum"] = params.quantum;
  probe["amortized_max_pause_ns"] = probe_amortized;
  probe["deamortized_max_pause_ns"] = probe_deamortized;
  report.add_row(std::move(probe));

  if (!gate.enabled) return;
  char why[256];
  // The deamortization claim itself rides the deterministic probe: a
  // one unbounded step over `backlog` nodes vs one quantum-bounded
  // increment.
  if (probe_deamortized >= probe_amortized) {
    std::snprintf(why, sizeof(why),
                  "%s: probe max_pause_ns not reduced (%llu -> %llu)", scheme,
                  static_cast<unsigned long long>(probe_amortized),
                  static_cast<unsigned long long>(probe_deamortized));
    gate.fail(why);
  }
  // The workload arm's tail and throughput are regression catches with
  // tolerances sized for single-CPU scheduler noise, not strict wins.
  if (static_cast<double>(deamortized.p999_ns) >
      (1.0 + gate.p999_tolerance) * static_cast<double>(amortized.p999_ns)) {
    std::snprintf(why, sizeof(why),
                  "%s: p999 outside tolerance (%llu -> %llu)", scheme,
                  static_cast<unsigned long long>(amortized.p999_ns),
                  static_cast<unsigned long long>(deamortized.p999_ns));
    gate.fail(why);
  }
  if (deamortized.mops < (1.0 - gate.throughput_tolerance) * amortized.mops) {
    std::snprintf(why, sizeof(why),
                  "%s: throughput outside tolerance (%.3f -> %.3f Mops)",
                  scheme, amortized.mops, deamortized.mops);
    gate.fail(why);
  }
}

/// Fixed-duration single-threaded read loop; the clock is consulted once
/// per `kCheck` operations so timing overhead stays off the hot path.
template <typename Body>
std::uint64_t timed_ops(int duration_ms, std::uint64_t ops_per_iter,
                        Body&& body) {
  constexpr std::uint64_t kCheck = 1024;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(duration_ms);
  std::uint64_t ops = 0;
  std::uint64_t since_check = 0;
  while (true) {
    body();
    ops += ops_per_iter;
    since_check += ops_per_iter;
    if (since_check >= kCheck) {
      since_check = 0;
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  return ops;
}

template <template <typename> class S>
void get_many_ab(const char* scheme, const Params& params,
                 mp::obs::BenchReport& report, GateState& gate) {
  using Set = mp::ds::MichaelHashSet<S>;
  mp::smr::Config config;
  config.max_threads = 1;
  config.slots_per_thread = Set::kRequiredSlots;
  Set set(config, params.hash_size);
  mp::bench::prefill(set, params.hash_size, 2 * params.hash_size);

  const std::uint64_t key_range = 2 * params.hash_size;
  const std::size_t batch = params.batch;
  std::vector<std::uint64_t> keys(batch);
  std::vector<std::uint64_t> values(batch);
  std::unique_ptr<bool[]> found(new bool[batch]);  // get_many wants bool*

  mp::common::Xoshiro256 rng_single(0xAB01);
  const auto handle = set.scheme().handle(0);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t single_ops =
      timed_ops(params.duration_ms, 1, [&] {
        std::uint64_t value;
        set.get(handle, 1 + rng_single.next_below(key_range), value);
      });
  const auto t1 = std::chrono::steady_clock::now();

  mp::common::Xoshiro256 rng_batch(0xAB01);
  const std::uint64_t batch_ops =
      timed_ops(params.duration_ms, batch, [&] {
        for (std::size_t i = 0; i < batch; ++i) {
          keys[i] = 1 + rng_batch.next_below(key_range);
        }
        set.get_many(handle, keys.data(), batch, values.data(),
                     found.get());
      });
  const auto t2 = std::chrono::steady_clock::now();

  const double single_s = std::chrono::duration<double>(t1 - t0).count();
  const double batch_s = std::chrono::duration<double>(t2 - t1).count();
  const double single_mops =
      static_cast<double>(single_ops) / single_s / 1e6;
  const double batch_mops = static_cast<double>(batch_ops) / batch_s / 1e6;
  const double speedup = single_mops == 0 ? 0 : batch_mops / single_mops;
  std::printf("get_many_ab,%s,K=%zu,%.3f,%.3f,%.3fx\n", scheme, batch,
              single_mops, batch_mops, speedup);
  std::fflush(stdout);

  mp::obs::json::Value row = mp::obs::json::Value::object();
  row["figure"] = "get_many_ab";
  row["structure"] = "hashset";
  row["workload"] = "read-only";
  row["scheme"] = scheme;
  row["batch"] = static_cast<std::uint64_t>(batch);
  row["single_mops"] = single_mops;
  row["batch_mops"] = batch_mops;
  row["speedup"] = speedup;
  report.add_row(std::move(row));

  if (gate.enabled) {
    gate.saw_speedup = true;
    gate.best_speedup = std::max(gate.best_speedup, speedup);
    // Per scheme: get_many must never lose to singles (small tolerance for
    // timer noise). The headline --gate-speedup floor applies to the best
    // scheme, checked once after every scheme ran: the bracket-amortization
    // win is structurally small for cheap-bracket epoch schemes (EBR saves
    // one fence per op), large for fence-per-hop pointer schemes.
    if (speedup < 0.95) {
      char why[160];
      std::snprintf(why, sizeof(why),
                    "%s: get_many(K=%zu) regressed vs singles (%.2fx)",
                    scheme, batch, speedup);
      gate.fail(why);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  mp::common::Cli cli(
      "Tail-latency A/B: amortized vs deamortized reclamation pauses, and "
      "get_many vs K single gets");
  cli.add_string("schemes", "MP,HP,EBR,HE,IBR,Hyaline,Stampit",
                 "comma-separated reclaiming SMR schemes");
  cli.add_int("size", 2000, "list prefill size S (keys from a 2S range)");
  cli.add_int("hash-size", 100000, "hash-set prefill size");
  cli.add_int("duration-ms", 300, "measurement window per arm");
  cli.add_int("quantum", 32, "deamortized arm's Config::scan_quantum");
  cli.add_int("empty-freq", 192,
              "retires per scheduled reclamation pass (low enough that "
              "pauses land above p999 frequency)");
  cli.add_int("batch", 16, "get_many batch size K");
  cli.add_int("probe-backlog", 16384,
              "retired backlog for the deterministic pause probe");
  cli.add_bool("latency-gate",
               "exit nonzero unless the deamortized probe strictly lowers "
               "max_pause_ns, workload p999/throughput stay within "
               "tolerance, no scheme's get_many loses to singles, and the "
               "best scheme meets the speedup floor");
  cli.add_int("gate-throughput-pct", 15,
              "allowed deamortized throughput loss, percent");
  cli.add_int("gate-p999-pct", 25,
              "allowed deamortized workload p999 growth, percent");
  cli.add_string("gate-speedup", "1.3",
                 "get_many speedup floor for the best gated scheme");
  cli.add_string("json-out", "",
                 "JSON report path (default: BENCH_latency_pauses.json)");
  cli.parse(argc, argv);

  Params params;
  params.schemes = mp::common::Cli::split_csv(cli.get_string("schemes"));
  params.list_size = static_cast<std::size_t>(cli.get_int("size"));
  params.hash_size = static_cast<std::size_t>(cli.get_int("hash-size"));
  params.duration_ms = static_cast<int>(cli.get_int("duration-ms"));
  params.quantum = static_cast<std::uint64_t>(cli.get_int("quantum"));
  params.empty_freq = static_cast<std::uint64_t>(cli.get_int("empty-freq"));
  params.probe_backlog =
      static_cast<std::uint64_t>(cli.get_int("probe-backlog"));
  params.batch = static_cast<std::size_t>(cli.get_int("batch"));
  params.json_out = cli.get_string("json-out");

  GateState gate;
  gate.enabled = cli.get_bool("latency-gate");
  gate.throughput_tolerance =
      static_cast<double>(cli.get_int("gate-throughput-pct")) / 100.0;
  gate.p999_tolerance =
      static_cast<double>(cli.get_int("gate-p999-pct")) / 100.0;
  gate.min_speedup = std::stod(cli.get_string("gate-speedup"));

  mp::obs::BenchReport report("latency_pauses", params.json_out);
  auto& config = report.config();
  config["size"] = params.list_size;
  config["hash_size"] = params.hash_size;
  config["duration_ms"] = static_cast<std::uint64_t>(params.duration_ms);
  config["quantum"] = params.quantum;
  config["empty_freq"] = params.empty_freq;
  config["probe_backlog"] = params.probe_backlog;
  config["batch"] = static_cast<std::uint64_t>(params.batch);

  std::printf("figure,scheme,arm,mops|single_mops,max_pause_ns|batch_mops,"
              "p999_ns|speedup\n");
  for (const auto& scheme : params.schemes) {
#define MARGINPTR_RUN_PAUSE(S) \
  pause_ab<S>(scheme.c_str(), params, report, gate)
    MARGINPTR_DISPATCH_SCHEME(scheme, MARGINPTR_RUN_PAUSE);
#undef MARGINPTR_RUN_PAUSE
  }
  for (const auto& scheme : params.schemes) {
#define MARGINPTR_RUN_BATCH(S) \
  get_many_ab<S>(scheme.c_str(), params, report, gate)
    MARGINPTR_DISPATCH_SCHEME(scheme, MARGINPTR_RUN_BATCH);
#undef MARGINPTR_RUN_BATCH
  }

  if (gate.enabled && gate.saw_speedup &&
      gate.best_speedup < gate.min_speedup) {
    char why[160];
    std::snprintf(why, sizeof(why),
                  "best get_many speedup %.2fx below required %.2fx",
                  gate.best_speedup, gate.min_speedup);
    gate.fail(why);
  }
  if (gate.enabled && !gate.failures.empty()) {
    for (const auto& why : gate.failures) {
      std::fprintf(stderr, "latency-gate FAIL: %s\n", why.c_str());
    }
    return 1;
  }
  if (gate.enabled) std::printf("latency-gate PASS\n");
  return 0;
}
