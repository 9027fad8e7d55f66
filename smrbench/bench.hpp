// Shared machinery of the smrbench benchmark: the clock, the
// result record (metrics, checks, sample counts), in-memory spans, the SMR
// probe calls, and the driver that sets up and interleaves the five schemes.
//
// Everything here measures the library from outside: it times calls into
// the public API of ds/, smr/ and svc/ and differences stats_snapshot()
// counters. Nothing is instrumented inside src/.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/histogram.hpp"
#include "smr/smr.hpp"

namespace smrbench {

namespace smr = mp::smr;

/// The schemes every workload compares, in canonical order. MP and HP are
/// the paper's headline pair; EBR, Hyaline and Stamp-it are the fast
/// unbounded-waste baselines.
using Schemes = smr::SchemeList<smr::MP, smr::HP, smr::EBR, smr::Hyaline,
                                smr::Stampit>;

template <template <typename> class SchemeT>
const char* scheme_name() {
  return SchemeT<smr::detail::ConceptProbeNode>::kName;
}

double median(std::vector<double> values);

/// Load threads (workers, clients) run on CPUs 0 .. kLoadCpus-1, one each;
/// every other thread (the main thread, and the background reclaimers it
/// starts, which inherit its mask) runs on the remaining CPUs, so the two
/// never preempt each other. No pinning on machines with fewer than
/// kLoadCpus + 2 CPUs.
inline constexpr int kLoadCpus = 2;
void pin_main_thread();
void pin_load_thread(int index);

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Every timed interval has one clock read's cost (the repository's bench
/// harness calibration) taken off, so short spans report the call's own
/// time, not the clock's.
inline std::uint64_t elapsed(std::uint64_t start, std::uint64_t end) noexcept {
  const std::uint64_t raw = end > start ? end - start : 0;
  const std::uint64_t cost = mp::bench::clock_read_overhead_ns();
  return raw > cost ? raw - cost : 0;
}

/// The library's log-bucketed latency histogram (quantiles to about 6%).
using Histogram = mp::obs::LatencyHistogram;

/// Span names; the order here is the `name` column of the spans file.
enum class SpanName : std::uint8_t {
  kOp,           ///< one structure call (sampled)
  kProbeBracket, ///< empty OperationScope open + close, kCallsPerProbe times
  kProbeRead,    ///< OperationScope holding the smr.read child
  kSmrRead,      ///< kCallsPerProbe back-to-back Guard::protect calls
  kProbeAlloc,   ///< OperationScope holding smr.alloc + smr.free
  kSmrAlloc,     ///< handle.alloc
  kSmrFree,      ///< handle.delete_unlinked
  kProbeRetire,  ///< OperationScope holding smr.alloc + smr.retire
  kSmrRetire,    ///< handle.retire, including any scan it triggers
  kSvcLoop,      ///< one open-loop client iteration (sampled)
  kSvcSubmit,    ///< Client::submit / submit_multi_get
  kSvcFlush,     ///< Client::flush
  kSvcComplete,  ///< harvesting completions with Client::try_complete
  kCount,
};
const char* span_name(SpanName name);

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t req = 0;     ///< request id: op sequence or first ticket
  std::int32_t parent = -1;  ///< index into the same log, -1 for a root
  SpanName name = SpanName::kOp;
};

/// One thread's spans, kept in memory up to a fixed count and written out
/// when the benchmark ends. A span that does not fit is dropped together
/// with its children (add() returns -1 and children see parent -1 < 0).
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 4096;
  SpanLog() { spans_.reserve(kCapacity); }
  std::int32_t add(SpanName name, std::uint64_t start, std::uint64_t end,
                   std::int32_t parent, std::uint64_t req) {
    if (spans_.size() >= kCapacity) return -1;
    spans_.push_back(Span{start, end, req, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t index, std::uint64_t end) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Histograms filled by the SMR probes, plus the counter deltas the probes
/// themselves caused (subtracted from the workload's counters).
struct ProbeStats {
  Histogram bracket;
  Histogram read;
  Histogram alloc;   ///< handle.alloc + handle.delete_unlinked
  Histogram retire;
  Histogram reclaimer_pass;  ///< one background-reclaimer pass
  smr::StatsSnapshot delta;
  void merge(const ProbeStats& o) {
    bracket.merge(o.bracket);
    read.merge(o.read);
    alloc.merge(o.alloc);
    retire.merge(o.retire);
    reclaimer_pass.merge(o.reclaimer_pass);
    delta += o.delta;
  }
};

/// Issues the smr-layer probe calls on a live scheme instance from one
/// worker thread, between workload operations, so they see real contention.
/// Owns two never-linked nodes: `target_` and `holder_`, whose link points
/// at the target, so Guard::protect has a real link word to load.
template <typename Scheme>
class Prober {
 public:
  using Node = typename Scheme::node_type;
  static constexpr int kKinds = 4;
  /// Brackets and reads are timed in groups of this many back-to-back
  /// calls (the per-call value is the group's time divided by it): one
  /// call is shorter than a clock read.
  static constexpr int kCallsPerProbe = 8;

  Prober(Scheme& scheme, int tid) : scheme_(scheme), tid_(tid) {
    target_ = scheme_.alloc(tid_, 1u, 1u);
    // A real index (not USE_HP), so MP's read takes the margin path.
    scheme_.set_index(target_, 1u << 31);
    holder_ = scheme_.alloc(tid_, 2u, 2u);
    link(*holder_).store(scheme_.make_link(target_));
  }
  ~Prober() {
    scheme_.delete_unlinked(tid_, holder_);
    scheme_.delete_unlinked(tid_, target_);
  }
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  void run(int kind, ProbeStats& out, SpanLog* log, std::uint64_t req) {
    smr::StatsSnapshot before;
    before += scheme_.thread_stats(tid_);
    const auto handle = scheme_.handle(tid_);
    switch (kind % kKinds) {
      case 0: {
        const std::uint64_t t0 = now_ns();
        for (int i = 0; i < kCallsPerProbe; ++i) {
          smr::OperationScope<Scheme> scope(handle);
        }
        const std::uint64_t t1 = now_ns();
        out.bracket.record(elapsed(t0, t1) / kCallsPerProbe);
        if (log) log->add(SpanName::kProbeBracket, t0, t1, -1, req);
        break;
      }
      case 1: {
        const std::uint64_t t0 = now_ns();
        const std::int32_t root =
            log ? log->add(SpanName::kProbeRead, t0, 0, -1, req) : -1;
        {
          smr::OperationScope<Scheme> scope(handle);
          smr::Guard<Scheme> guard(scope, 0);
          const std::uint64_t a = now_ns();
          for (int i = 0; i < kCallsPerProbe; ++i) guard.protect(link(*holder_));
          const std::uint64_t b = now_ns();
          out.read.record(elapsed(a, b) / kCallsPerProbe);
          if (root >= 0) log->add(SpanName::kSmrRead, a, b, root, req);
        }
        if (log) log->set_end(root, now_ns());
        break;
      }
      case 2: {
        const std::uint64_t t0 = now_ns();
        const std::int32_t root =
            log ? log->add(SpanName::kProbeAlloc, t0, 0, -1, req) : -1;
        {
          smr::OperationScope<Scheme> scope(handle);
          const std::uint64_t a = now_ns();
          Node* node = handle.alloc(3u, 3u);
          const std::uint64_t b = now_ns();
          handle.delete_unlinked(node);
          const std::uint64_t c = now_ns();
          out.alloc.record(elapsed(a, c));
          if (root >= 0) {
            log->add(SpanName::kSmrAlloc, a, b, root, req);
            log->add(SpanName::kSmrFree, b, c, root, req);
          }
        }
        if (log) log->set_end(root, now_ns());
        break;
      }
      default: {
        const std::uint64_t t0 = now_ns();
        const std::int32_t root =
            log ? log->add(SpanName::kProbeRetire, t0, 0, -1, req) : -1;
        {
          smr::OperationScope<Scheme> scope(handle);
          const std::uint64_t a = now_ns();
          Node* node = handle.alloc(4u, 4u);
          const std::uint64_t b = now_ns();
          handle.retire(node);
          const std::uint64_t c = now_ns();
          out.retire.record(elapsed(b, c));
          if (root >= 0) {
            log->add(SpanName::kSmrAlloc, a, b, root, req);
            log->add(SpanName::kSmrRetire, b, c, root, req);
          }
        }
        if (log) log->set_end(root, now_ns());
        break;
      }
    }
    smr::StatsSnapshot after;
    after += scheme_.thread_stats(tid_);
    out.delta += after - before;
  }

  /// Time one background-reclaimer pass, run on this thread through the
  /// scheme's reclaim_sync() (the pass the reclaimer thread runs, under
  /// the same lock). Its frees land on the reclaimer's own counters.
  void run_reclaimer_pass(ProbeStats& out) {
    const std::uint64_t t0 = now_ns();
    scheme_.reclaim_sync();
    out.reclaimer_pass.record(elapsed(t0, now_ns()));
  }

 private:
  static smr::AtomicTaggedPtr& link(Node& node) {
    if constexpr (requires { node.next; }) {
      return node.next;
    } else {
      return node.left;
    }
  }

  Scheme& scheme_;
  int tid_;
  Node* target_ = nullptr;
  Node* holder_ = nullptr;
};

/// Everything one run reports. `metrics` holds every value the run
/// measured, end-to-end and per-layer alike; the runner script picks the
/// set the mode asks for.
struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::map<std::string, std::uint64_t> samples;  ///< sample count per timing
  std::map<std::string, std::string> info;        ///< environment and layout
  std::map<std::string, double> span_self_p50;    ///< traced runs only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Value of an emitted metric; 0 when there is none.
  double value(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  /// p50/p99-style timing with its sample count.
  void timing(const std::string& name, const Histogram& hist, double q) {
    metric(name, hist.quantile(q), "ns");
    samples[name] = hist.count();
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
    if (!ok) std::fprintf(stderr, "check failed: %s (%s)\n", name.c_str(),
                          detail.c_str());
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
  void print_json(std::FILE* out) const;
};

/// Per-layer metrics of the layers only svc-zipf runs (svc, the background
/// reclaimer, the open-loop generator), with their units. The structure
/// workloads report them as 0.
inline constexpr std::pair<const char*, const char*> kServiceOnlyMetrics[] = {
    {"reclaimer.offloaded_per_kreq", "nodes/kreq"},
    {"reclaimer.scans_per_snapshot", "batches/snap"},
    {"reclaimer.inline_fallbacks", "count"},
    {"reclaimer.peak_inflight", "nodes"},
    {"reclaimer.max_pause_ns", "ns"},
    {"svc.submit_ns_p50", "ns"},
    {"svc.flush_ns_p50", "ns"},
    {"svc.flush_ns_p99", "ns"},
    {"svc.complete_ns_p50", "ns"},
    {"svc.reqs_per_flush", "reqs/flush"},
    {"svc.ring_full_frac", "ratio"},
    {"svc.health_transitions", "count"},
    {"gen.lag_ns_p99", "ns"},
    {"gen.late_submits", "count"},
};

/// Ratio with a zero denominator reported as 0 (a layer that did no work).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t peak_rss_kb();

/// Parsed command line. Workload parameters arrive as --param key=value
/// from the runner script, which reads them from spec.json.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1;
  bool trace = false;
  bool break_size_model = false;
  std::string spans_out;
  std::map<std::string, std::string> params;

  double num(const std::string& key) const;
  std::uint64_t count(const std::string& key) const {
    return static_cast<std::uint64_t>(num(key));
  }
  const std::string& str(const std::string& key) const;
};

using SpanLogs = std::vector<std::pair<std::string, const SpanLog*>>;

/// One scheme's share of a workload: a live instance that is set up once
/// and then measured in interleaved slices.
class Slot {
 public:
  virtual ~Slot() = default;
  virtual const char* name() const = 0;
  /// Construct and prefill the live instance; returns the seconds it took.
  virtual double setup() = 0;
  /// Construct and prefill a throwaway instance the same way, destroy it,
  /// and return the seconds the construction and prefill took.
  virtual double time_setup() = 0;
  /// Run the workload for `seconds`; returns the completed operations.
  virtual std::uint64_t run_slice(double seconds, bool traced) = 0;
  /// Quiesce, check, and report this scheme's metrics (`<S>.mops`,
  /// `<S>.op_p50_ns`, `<S>.op_p99_ns` among them), then free the instance.
  virtual void finish(Result& result) = 0;
  /// The slot's span logs, labelled "<scheme>/<thread>".
  virtual void collect_spans(SpanLogs& out) const = 0;
};

/// Latency quantiles kept per slice and reported as the median over the
/// slices, like throughput, so that one disturbed slice cannot move a
/// run's figure.
struct SliceQuantiles {
  std::vector<double> p50, p99;
  std::uint64_t samples = 0;

  void add(const Histogram& slice) {
    if (slice.count() == 0) return;
    p50.push_back(slice.quantile(0.5));
    p99.push_back(slice.quantile(0.99));
    samples += slice.count();
  }
  void report(const std::string& p50_name, const std::string& p99_name,
              Result& r) const {
    r.metric(p50_name, median(p50), "ns");
    r.metric(p99_name, median(p99), "ns");
    r.samples[p50_name] = r.samples[p99_name] = samples;
  }
};

/// Per-workload merged measurements shared by all slots.
struct Shared {
  SliceQuantiles requests;  ///< every scheme's request latency (req_*)
  double untraced_ops = 0, untraced_seconds = 0;
  double traced_ops = 0, traced_seconds = 0;
  std::uint64_t updates = 0, updates_ok = 0;
};

/// Length of one measured slice. Short slices give each scheme many of
/// them per run, so the median over slices shrugs off a disturbed one.
inline constexpr double kSliceSeconds = 0.2;

/// The scheme the gated end-to-end figures are relative to. This machine's
/// speed drifts by 20-40% over minutes, moving every scheme alike, so a
/// ratio of two schemes measured in interleaved slices of one run holds
/// where absolute figures do not. EBR is the paper's fast baseline.
inline constexpr const char* kReference = "EBR";

/// Drive the slots (given in canonical scheme order): set each up, then
/// measure them in rounds of slices of about kSliceSeconds, in a scheme
/// order that rotates with the seed and the round, so machine-wide drift is
/// spread over every scheme instead of charged to whichever runs last.
/// After every round each scheme's set-up is timed once more on a
/// throwaway instance; setup_s sums the per-scheme medians. Finally the
/// throughput and MP latency ratios to kReference are derived.
void run_slots(std::vector<std::unique_ptr<Slot>>& slots, const Options& opt,
               Shared& shared, Result& result);

/// Span self times (span minus the children it contains), p50 per name,
/// and the spans written to `path` as CSV when `path` is not empty.
void summarize_spans(const SpanLogs& logs, const std::string& path,
                     Result& result);

/// Counter metrics of one scheme shared by every workload: `wl` is the
/// workload's own counter delta (probes subtracted), `ops` its operations.
template <typename Scheme>
void report_counters(const std::string& s, const smr::StatsSnapshot& wl,
                     double ops, const Scheme& scheme, Result& r) {
  const double passes = static_cast<double>(wl.empties + wl.bg_snapshots);
  r.metric("ds.reads_per_op." + s, ratio(wl.reads, ops), "reads/op");
  r.metric("smr.fences_per_read." + s, ratio(wl.fences, wl.reads),
           "fences/read");
  r.metric("smr.slow_protects_per_read." + s, ratio(wl.slow_protects, wl.reads),
           "protects/read");
  if (s == "MP") {
    r.metric("smr.hp_fallbacks_per_read.MP", ratio(wl.hp_fallbacks, wl.reads),
             "fallbacks/read");
    r.metric("smr.index_collisions_per_kalloc.MP",
             1000 * ratio(wl.index_collisions, wl.allocs), "1/kalloc");
  }
  r.metric("smr.scans_per_kop." + s, 1000 * ratio(passes, ops), "scans/kop");
  r.metric("smr.freed_per_scan." + s, ratio(wl.reclaims, passes),
           "nodes/scan");
  r.metric("smr.max_pause_ns." + s, static_cast<double>(wl.max_pause_ns), "ns");
  r.metric("smr.emergency_scans." + s, static_cast<double>(wl.emergency_empties),
           "count");
  if constexpr (Scheme::kBoundedWaste) {
    const double bound =
        static_cast<double>(smr::WasteWatchdog<Scheme>(scheme).bound());
    r.metric("smr.bound_used_frac." + s, ratio(wl.peak_retired, bound),
             "ratio");
  }
  r.metric("pool.hit_frac." + s,
           ratio(wl.pool_hits, wl.pool_hits + wl.pool_misses), "ratio");
  r.metric("pool.depot_exchanges_per_kalloc." + s,
           1000 * ratio(wl.depot_exchanges, wl.allocs), "1/kalloc");
}

/// Probe timings of one scheme.
inline void report_probes(const std::string& s, const ProbeStats& p,
                          Result& r) {
  r.timing("smr.read_ns." + s, p.read, 0.5);
  r.timing("smr.bracket_ns." + s, p.bracket, 0.5);
  r.timing("smr.retire_ns_p99." + s, p.retire, 0.99);
  r.timing("pool.alloc_ns." + s, p.alloc, 0.5);
}

/// Post-drain allocation identity (the library's conservation law).
inline void check_conservation(const std::string& name,
                               const smr::StatsSnapshot& st, Result& r) {
  r.check(name, st.retires == st.reclaims + st.drained,
          "retires=" + std::to_string(st.retires) +
              " reclaims=" + std::to_string(st.reclaims) +
              " drained=" + std::to_string(st.drained));
}

// Workload entry points (one translation unit each).
void run_bst(const Options& opt, Result& result);
void run_hash(const Options& opt, Result& result);
void run_svc(const Options& opt, Result& result);

}  // namespace smrbench
