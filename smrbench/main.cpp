// smrbench: one workload of the repository benchmark, run against the five
// SMR schemes. Prints one JSON object (metrics, checks, sample counts,
// environment) on stdout; run.py turns it into the benchmark's result line.
//
//   smrbench --workload NAME --seed N --seconds S --trace 0|1
//            --param key=value ... [--spans-out PATH] [--break-size-model]
//
// --break-size-model adds one to the expected structure size, so the size
// check must fail; the self-test uses it to prove the check can fail.
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

#ifndef SMRBENCH_BUILD_TYPE
#define SMRBENCH_BUILD_TYPE "unknown"
#endif

namespace {

smrbench::Options parse(int argc, char** argv) {
  smrbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      opt.trace = trace == "1";
      have_trace = true;
    } else if (arg == "--param") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--param needs key=value");
      }
      opt.params[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--spans-out") {
      opt.spans_out = value();
    } else if (arg == "--break-size-model") {
      opt.break_size_model = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  smrbench::Options opt;
  smrbench::Result result;
  smrbench::pin_main_thread();
  // rss_peak_mb is what the workload adds to the process's peak resident
  // set, over this baseline taken before any instance is built.
  const std::uint64_t rss_baseline_kb = smrbench::peak_rss_kb();
  try {
    opt = parse(argc, argv);
    const std::string& structure = opt.str("structure");
    if (structure == "bst") {
      smrbench::run_bst(opt, result);
    } else if (structure == "hash") {
      smrbench::run_hash(opt, result);
    } else if (structure == "svc") {
      smrbench::run_svc(opt, result);
    } else {
      throw std::invalid_argument("unknown structure " + structure);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smrbench: %s\n", e.what());
    return 2;
  }
  result.metric(
      "rss_peak_mb",
      static_cast<double>(smrbench::peak_rss_kb() - rss_baseline_kb) / 1024,
      "MB");
  result.info["workload"] = opt.workload;
  result.info["seed"] = std::to_string(opt.seed);
  result.info["compiler"] = __VERSION__;
  result.info["build_type"] = SMRBENCH_BUILD_TYPE;
  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["pool_effective"] =
      mp::smr::Config{}.pool_effective() ? "on" : "off";
  result.info["clock_cost_ns"] =
      std::to_string(mp::bench::clock_read_overhead_ns());
  result.print_json(stdout);
  return result.correct() ? 0 : 1;
}
