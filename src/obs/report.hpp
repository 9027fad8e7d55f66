// Machine-readable benchmark reports: the BENCH_<name>.json emitter.
//
// Every bench binary builds one BenchReport and writes it alongside its
// text output, so the repo has a parseable perf trajectory instead of
// free-form stdout. Schema (validated by validate_report and the ctest
// golden check; see DESIGN.md §5):
//
//   {
//     "schema":  "marginptr-bench-report",
//     "version": 8,
//     "bench":   "<binary name>",
//     "config":  { free-form run parameters },
//     "rows": [
//       {
//         "figure": "...", "scheme": "...",          // required
//         "structure", "workload", "threads", ...,   // bench-specific
//         "stats":      { the full StatsSnapshot },  // optional
//         "waste":      { "bound": n|null, "peak_retired": n,
//                         "bounded": b, "within_bound": b|null },
//         "latency_ns": { "<op>": {count,mean,max,p50,p90,p99,p999,p100},
//                         ... }
//       }, ...
//     ]
//   }
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "smr/chaos.hpp"  // kUnboundedWaste
#include "smr/config.hpp"
#include "smr/stats.hpp"

namespace mp::obs {

inline constexpr const char* kReportSchema = "marginptr-bench-report";
/// The one schema version validate_report accepts. Besides the fields
/// above, rows may carry the service layer's per-shard domain breakdown
/// and latency-SLO verdict (src/svc/)
///   "shards": [ { "shard": n, "stats": {...}, "waste": {...},
///                 "health": { "state": "healthy"|"degraded"|"shedding",
///                             "degraded_enters": n, "shed_enters": n,
///                             "recoveries": n } }, ... ]
///   "slo": { "p99_slo_ns": n, "met": b, ... }
/// per-status completion tallies (svc/resilience.hpp)
///   "status_counts": { "ok": n, "not_found": n, "alloc_failed": n,
///                      "deadline_exceeded": n, "shed_write": n,
///                      "rejected": n }
/// and the scheme's compile-time capability flags (DESIGN.md §13)
///   "capabilities": { "snapshot_free": b, "bounded_waste": b, "robust": b }
/// "stats" holds every counter of smr/stats.hpp's table, "config" may carry
/// the smr Config (scan_quantum, the pool and reclaim arms), and latency
/// histograms carry "p100", an alias of "max" for tail-gate tooling.
inline constexpr std::uint64_t kReportVersion = 8;

/// Every counter of the table in smr/stats.hpp, keyed by field name.
inline json::Value to_json(const smr::StatsSnapshot& s) {
  json::Value out = json::Value::object();
#define MP_SMR_X(name, merge, scope) out[#name] = s.name;
  MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X
  return out;
}

inline json::Value to_json(const LatencyHistogram& h) {
  json::Value out = json::Value::object();
  out["count"] = h.count();
  out["mean"] = h.mean();
  out["max"] = h.max();
  out["p50"] = h.p50();
  out["p90"] = h.p90();
  out["p99"] = h.p99();
  out["p999"] = h.p999();
  out["p100"] = h.max();  // percentile-named alias for tail tooling
  return out;
}

inline json::Value to_json(const smr::Config& c) {
  json::Value out = json::Value::object();
  out["max_threads"] = c.max_threads;
  out["slots_per_thread"] = static_cast<std::uint64_t>(c.slots_per_thread);
  out["empty_freq"] = static_cast<std::uint64_t>(c.empty_freq);
  out["epoch_freq"] = c.effective_epoch_freq();
  out["margin"] = static_cast<std::uint64_t>(c.margin);
  out["retired_soft_cap"] = c.retired_soft_cap;
  out["pool_enabled"] = c.pool_enabled;
  out["pool_effective"] = c.pool_effective();
  out["pool_magazine_cap"] = c.pool_magazine_cap;
  out["background_reclaim"] = c.background_reclaim;
  out["reclaim_inflight_cap"] = c.reclaim_inflight_cap;
  out["reclaim_poll_ms"] = static_cast<std::uint64_t>(c.reclaim_poll_ms);
  out["scan_quantum"] = c.scan_quantum;
  return out;
}

/// Waste-bound status: the scheme's theoretical per-thread cap next to the
/// measured high-water mark. `bound` is JSON null for unbounded schemes.
inline json::Value waste_json(std::uint64_t bound_per_thread,
                              std::uint64_t peak_retired) {
  json::Value out = json::Value::object();
  const bool bounded = bound_per_thread != smr::kUnboundedWaste;
  out["bounded"] = bounded;
  out["bound"] = bounded ? json::Value(bound_per_thread) : json::Value(nullptr);
  out["peak_retired"] = peak_retired;
  out["within_bound"] = bounded ? json::Value(peak_retired <= bound_per_thread)
                                : json::Value(nullptr);
  return out;
}

/// One entry of a row's "shards" array: a single shard's SMR domain
/// (its stats snapshot and its waste-bound status). The service bench and
/// svc tests emit one per shard per row.
inline json::Value shard_json(std::size_t shard,
                              const smr::StatsSnapshot& stats,
                              std::uint64_t bound_per_thread) {
  json::Value out = json::Value::object();
  out["shard"] = static_cast<std::uint64_t>(shard);
  out["stats"] = to_json(stats);
  out["waste"] = waste_json(bound_per_thread, stats.peak_retired);
  return out;
}

/// A row's "status_counts" object from anything with the service
/// layer's six per-status tallies (svc::StatusCounts; templated so obs/
/// stays independent of svc/).
template <typename Counts>
inline json::Value status_counts_json(const Counts& c) {
  json::Value out = json::Value::object();
  out["ok"] = c.ok;
  out["not_found"] = c.not_found;
  out["alloc_failed"] = c.alloc_failed;
  out["deadline_exceeded"] = c.deadline_exceeded;
  out["shed_write"] = c.shed_write;
  out["rejected"] = c.rejected;
  return out;
}

/// A per-shard "health" object: the shard's final state name and
/// its exact transition counts (svc::HealthMonitor).
inline json::Value health_json(const char* state,
                               std::uint64_t degraded_enters,
                               std::uint64_t shed_enters,
                               std::uint64_t recoveries) {
  json::Value out = json::Value::object();
  out["state"] = state;
  out["degraded_enters"] = degraded_enters;
  out["shed_enters"] = shed_enters;
  out["recoveries"] = recoveries;
  return out;
}

/// Accumulates rows and writes BENCH_<name>.json. write() is idempotent and
/// also runs from the destructor, so a bench that returns from main without
/// an explicit write still emits its report.
class BenchReport {
 public:
  /// `path` empty selects the default: BENCH_<bench_name>.json in the
  /// current working directory.
  explicit BenchReport(std::string bench_name, std::string path = "")
      : bench_name_(std::move(bench_name)),
        path_(path.empty() ? "BENCH_" + bench_name_ + ".json"
                           : std::move(path)),
        config_(json::Value::object()),
        rows_(json::Value::array()) {}

  ~BenchReport() { write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// The free-form run-parameter object ("config" in the schema).
  json::Value& config() noexcept { return config_; }

  void add_row(json::Value row) {
    rows_.push_back(std::move(row));
    written_ = false;
  }

  json::Value document() const {
    json::Value root = json::Value::object();
    root["schema"] = kReportSchema;
    root["version"] = kReportVersion;
    root["bench"] = bench_name_;
    root["config"] = config_;
    root["rows"] = rows_;
    return root;
  }

  /// Serialize to `path()`. Returns false (and warns on stderr) on I/O
  /// failure; benches still produce their text output either way.
  bool write() {
    if (written_) return true;
    const std::string text = document().dump(2);
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
        std::fputc('\n', file) != EOF;
    std::fclose(file);
    if (!ok) {
      std::fprintf(stderr, "warning: short write to %s\n", path_.c_str());
      return false;
    }
    written_ = true;
    return true;
  }

 private:
  std::string bench_name_;
  std::string path_;
  json::Value config_;
  json::Value rows_;
  bool written_ = false;
};

namespace detail {

inline bool check(bool ok, const std::string& why, std::string& error) {
  if (!ok && error.empty()) error = why;
  return ok;
}

/// Counter check for one "stats" object (shared by top-level row stats and
/// the per-shard entries of a "shards" array): every counter of the table.
inline void check_stats_counters(const json::Value& stats,
                                 std::string& error) {
  if (!check(stats.is_object(), "stats is not an object", error)) return;
  const auto require = [&](const char* key) {
    const json::Value* field = stats.find(key);
    check(field != nullptr && field->is_number(),
          std::string("stats missing counter '") + key + "'", error);
  };
#define MP_SMR_X(name, merge, scope) require(#name);
  MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X
}

inline void check_waste(const json::Value& waste, std::string& error) {
  check(waste.is_object() && waste.find("bounded") != nullptr &&
            waste.find("peak_retired") != nullptr &&
            waste.find("bound") != nullptr,
        "waste object incomplete", error);
}

/// "status_counts": all six per-status tallies, numeric.
inline void check_status_counts(const json::Value& counts,
                                std::string& error) {
  if (!check(counts.is_object(), "status_counts is not an object", error)) {
    return;
  }
  for (const char* key : {"ok", "not_found", "alloc_failed",
                          "deadline_exceeded", "shed_write", "rejected"}) {
    const json::Value* field = counts.find(key);
    check(field != nullptr && field->is_number(),
          std::string("status_counts missing counter '") + key + "'", error);
  }
}

/// Per-shard "health": a state name plus the exact transition counters.
inline void check_health(const json::Value& health, std::string& error) {
  if (!check(health.is_object(), "health is not an object", error)) return;
  const json::Value* state = health.find("state");
  check(state != nullptr && state->is_string(),
        "health missing string 'state'", error);
  for (const char* key : {"degraded_enters", "shed_enters", "recoveries"}) {
    const json::Value* field = health.find(key);
    check(field != nullptr && field->is_number(),
          std::string("health missing counter '") + key + "'", error);
  }
}

}  // namespace detail

/// Validate a parsed document against the report schema. Returns an empty
/// string when valid, else a description of the first violation.
inline std::string validate_report(const json::Value& root) {
  std::string error;
  if (!detail::check(root.is_object(), "root is not an object", error)) {
    return error;
  }
  const json::Value* schema = root.find("schema");
  detail::check(schema != nullptr && schema->is_string() &&
                    schema->as_string() == kReportSchema,
                "schema tag missing or wrong", error);
  const json::Value* version = root.find("version");
  detail::check(version != nullptr && version->is_number() &&
                    version->as_uint() == kReportVersion,
                "version missing or not the current one", error);
  const json::Value* bench = root.find("bench");
  detail::check(bench != nullptr && bench->is_string() &&
                    !bench->as_string().empty(),
                "bench name missing", error);
  const json::Value* config = root.find("config");
  detail::check(config != nullptr && config->is_object(),
                "config missing or not an object", error);
  const json::Value* rows = root.find("rows");
  if (!detail::check(rows != nullptr && rows->is_array(),
                     "rows missing or not an array", error)) {
    return error;
  }
  for (const json::Value& row : rows->as_array()) {
    if (!detail::check(row.is_object(), "row is not an object", error)) break;
    const json::Value* figure = row.find("figure");
    detail::check(figure != nullptr && figure->is_string(),
                  "row missing string 'figure'", error);
    const json::Value* scheme = row.find("scheme");
    detail::check(scheme != nullptr && scheme->is_string(),
                  "row missing string 'scheme'", error);
    if (const json::Value* stats = row.find("stats"); stats != nullptr) {
      detail::check_stats_counters(*stats, error);
    }
    if (const json::Value* waste = row.find("waste"); waste != nullptr) {
      detail::check_waste(*waste, error);
    }
    // The scheme's compile-time capability flags.
    if (const json::Value* caps = row.find("capabilities");
        caps != nullptr) {
      if (detail::check(caps->is_object(),
                        "row 'capabilities' is not an object", error)) {
        for (const char* key :
             {"snapshot_free", "bounded_waste", "robust"}) {
          const json::Value* field = caps->find(key);
          detail::check(field != nullptr && field->is_bool(),
                        std::string("capabilities missing bool '") + key +
                            "'",
                        error);
        }
      }
    }
    // Per-shard domain breakdown. Each entry mirrors a standalone row's
    // stats/waste, keyed by its shard index.
    if (const json::Value* shards = row.find("shards"); shards != nullptr) {
      if (detail::check(shards->is_array(), "row 'shards' is not an array",
                        error)) {
        for (const json::Value& entry : shards->as_array()) {
          if (!detail::check(entry.is_object(),
                             "shards entry is not an object", error)) {
            break;
          }
          const json::Value* index = entry.find("shard");
          detail::check(index != nullptr && index->is_number(),
                        "shards entry missing numeric 'shard'", error);
          const json::Value* stats = entry.find("stats");
          if (detail::check(stats != nullptr,
                            "shards entry missing 'stats'", error)) {
            detail::check_stats_counters(*stats, error);
          }
          if (const json::Value* waste = entry.find("waste");
              waste != nullptr) {
            detail::check_waste(*waste, error);
          }
          // The shard's health summary.
          if (const json::Value* health = entry.find("health");
              health != nullptr) {
            detail::check_health(*health, error);
          }
        }
      }
    }
    // Per-status completion tallies for service rows.
    if (const json::Value* counts = row.find("status_counts");
        counts != nullptr) {
      detail::check_status_counts(*counts, error);
    }
    // Latency-SLO verdict for service rows.
    if (const json::Value* slo = row.find("slo"); slo != nullptr) {
      if (detail::check(slo->is_object(), "row 'slo' is not an object",
                        error)) {
        const json::Value* target = slo->find("p99_slo_ns");
        detail::check(target != nullptr && target->is_number(),
                      "slo missing numeric 'p99_slo_ns'", error);
        const json::Value* met = slo->find("met");
        detail::check(met != nullptr && met->is_bool(),
                      "slo missing bool 'met'", error);
      }
    }
    if (const json::Value* latency = row.find("latency_ns");
        latency != nullptr) {
      if (!detail::check(latency->is_object(),
                         "latency_ns is not an object", error)) {
        break;
      }
      for (const auto& [op, hist] : latency->as_object()) {
        for (const char* key : {"count", "mean", "max", "p50", "p90", "p99",
                                "p999", "p100"}) {
          const json::Value* field = hist.find(key);
          detail::check(field != nullptr && field->is_number(),
                        "latency histogram for '" + op + "' missing '" +
                            key + "'",
                        error);
        }
      }
    }
    if (!error.empty()) break;
  }
  return error;
}

}  // namespace mp::obs
