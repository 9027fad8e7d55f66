// Table 1: comparison of memory reclamation schemes — the qualitative
// properties from the paper plus measured quantities from this
// implementation: per-node header overhead in words and the empirical
// wasted-memory / fence behavior on a short reference workload.
#include "harness.hpp"

#include <cinttypes>

namespace {

struct Row {
  const char* scheme;
  const char* runtime_overhead;
  const char* waste_bound;
  const char* integration_effort;
  int node_overhead_words;  ///< logically required per-node words
};

// The paper's Table 1 (DTA noted as robust-with-caveat; OA/AOA/FA are
// recycle-only designs out of scope for this reproduction).
constexpr Row kRows[] = {
    {"HP", "High", "Bounded", "Per-reference", 0},
    {"DTA", "Low", "Robust (frozen set unbounded)", "Harder than HP", 2},
    {"EBR", "Low", "Unbounded", "Per-operation", 1},
    {"HE", "Low", "Robust", "~HP", 2},
    {"IBR", "Low", "Robust", "Per-operation", 3},
    {"MP", "Low-Med (search DS), =HP (other)", "Bounded",
     "HP + extra method calls", 3},
    {"Hyaline", "Low (refcounted handover)", "Unbounded", "Per-operation", 2},
    {"Stampit", "Low (O(1) reap-on-collect)", "Unbounded", "Per-operation",
     1},
};

template <typename DS>
void measured_row(const char* scheme_name, int threads, std::size_t size,
                  int duration_ms, mp::obs::BenchReport& report) {
  mp::smr::Config config;
  config.max_threads = static_cast<std::size_t>(threads);
  config.slots_per_thread = DS::kRequiredSlots;
  DS ds(config);
  mp::bench::prefill(ds, size, 2 * size);
  const auto result = mp::bench::run_workload(
      ds, threads, mp::bench::kReadDominated, 2 * size, duration_ms);
  std::printf("%-6s | %9.3f | %12.1f | %9.4f\n", scheme_name, result.mops,
              result.avg_retired, result.fences_per_read);
  std::fflush(stdout);
  report.add_row(mp::bench::make_row(
      "table1", "bst", "read-dom", scheme_name, threads, result.mops,
      result.avg_retired, result.fences_per_read, result.stats,
      DS::Scheme::waste_bound_per_thread(config), &result.latency));
}

}  // namespace

int main(int argc, char** argv) {
  mp::common::Cli cli("Table 1: scheme property comparison");
  cli.add_int("threads", 8, "threads for the measured columns");
  cli.add_int("size", 20000, "prefill size for the measured columns");
  cli.add_int("duration-ms", 250, "measurement window");
  cli.add_string("json-out", "",
                 "JSON report path (default: BENCH_<bench>.json)");
  cli.parse(argc, argv);

  mp::obs::BenchReport report("table1_properties", cli.get_string("json-out"));

  std::printf("Table 1 — qualitative properties (from the paper):\n");
  std::printf("%-6s | %-36s | %-30s | %-24s | %s\n", "Scheme",
              "Run-time overhead", "Wasted memory bound?",
              "Integration effort", "Per-node words");
  for (const auto& row : kRows) {
    std::printf("%-6s | %-36s | %-30s | %-24s | %d\n", row.scheme,
                row.runtime_overhead, row.waste_bound,
                row.integration_effort, row.node_overhead_words);
  }

  std::printf(
      "\nThis implementation: uniform SMR header = %zu bytes "
      "(birth epoch, retire epoch, index; shared across schemes so one\n"
      "data-structure instantiation serves all of them — the logical "
      "per-scheme requirement is the table column above).\n",
      sizeof(mp::smr::NodeHeader));

  const int threads = static_cast<int>(cli.get_int("threads"));
  const auto size = static_cast<std::size_t>(cli.get_int("size"));
  const int duration = static_cast<int>(cli.get_int("duration-ms"));

  {
    auto& config = report.config();
    config["threads"] = static_cast<std::uint64_t>(threads);
    config["size"] = size;
    config["duration_ms"] = static_cast<std::uint64_t>(duration);
  }

  std::printf(
      "\nMeasured on this machine (BST, read-dominated, %d threads, "
      "S=%zu):\n",
      threads, size);
  std::printf("%-6s | %9s | %12s | %9s\n", "Scheme", "Mops/s", "avg_retired",
              "fences/rd");
  for (const char* scheme :
       {"HP", "EBR", "HE", "IBR", "MP", "Hyaline", "Stampit"}) {
    const std::string name(scheme);
#define MARGINPTR_RUN(S)                                               \
  measured_row<mp::ds::NatarajanTree<S>>(name.c_str(), threads, size, \
                                         duration, report)
    MARGINPTR_DISPATCH_SCHEME(name, MARGINPTR_RUN);
#undef MARGINPTR_RUN
  }
  return 0;
}
