// Closed-loop structure workloads: `bst-readdom` (NatarajanTree) and
// `hash-churn` (MichaelHashSet). Worker threads draw their ops from
// seeded per-thread streams and run them back to back; each op is timed
// with one chained clock read.
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "ds/michael_hashset.hpp"
#include "ds/natarajan_tree.hpp"

namespace smrbench {
namespace {

enum OpType : std::uint64_t { kContains = 0, kInsert = 1, kRemove = 2 };
/// Traced slices issue one SMR probe after every kProbeEvery workload ops.
constexpr std::uint64_t kProbeEvery = 64;

struct Params {
  int threads;
  std::uint64_t size;
  std::uint64_t range;
  std::uint64_t buckets;  ///< hash set only
  std::uint64_t insert_pct;
  std::uint64_t remove_pct;
  std::uint64_t seed;
  bool break_size_model;
};

/// Worker t's op stream is substream t + 1 of the seed (substream 0 is the
/// prefill). Every scheme starts from the same streams, so all of them run
/// the same ops.
std::vector<mp::common::Xoshiro256> op_streams(const Params& p) {
  std::vector<mp::common::Xoshiro256> streams;
  for (int t = 0; t < p.threads; ++t) {
    streams.push_back(mp::common::Xoshiro256::stream(
        p.seed, static_cast<std::uint64_t>(t) + 1));
  }
  return streams;
}

struct WorkerOut {
  Histogram latency[3];  ///< per OpType
  ProbeStats probes;
  std::uint64_t ops = 0;
  std::uint64_t inserts = 0, inserts_ok = 0;
  std::uint64_t removes = 0, removes_ok = 0;
};

template <typename DS>
class StructureSlot final : public Slot {
 public:
  using Scheme = typename DS::Scheme;

  StructureSlot(const char* name, const Params& p, Shared& shared)
      : name_(name),
        p_(p),
        shared_(shared),
        streams_(op_streams(p)),
        logs_(static_cast<std::size_t>(p.threads)) {}

  const char* name() const override { return name_; }

  double setup() override {
    const std::uint64_t t0 = now_ns();
    ds_ = build();
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    for (int t = 0; t < p_.threads; ++t) {
      probers_.push_back(std::make_unique<Prober<Scheme>>(ds_->scheme(), t));
    }
    return seconds;
  }

  double time_setup() override {
    const std::uint64_t t0 = now_ns();
    const std::unique_ptr<DS> ds = build();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::uint64_t run_slice(double seconds, bool traced) override {
    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<WorkerOut>> outs;
    for (int t = 0; t < p_.threads; ++t) {
      outs.push_back(std::make_unique<WorkerOut>());
    }
    const smr::StatsSnapshot before = ds_->scheme().stats_snapshot();
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (int t = 0; t < p_.threads; ++t) {
      threads.emplace_back([&, t] { work(t, *outs[t], stop, traced); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : threads) thread.join();
    const double elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const smr::StatsSnapshot delta = ds_->scheme().stats_snapshot() - before;

    std::uint64_t ops = 0;
    Histogram slice;  // untraced: all op types
    for (const auto& out : outs) {
      ops += out->ops;
      inserts_ok_ += out->inserts_ok;
      removes_ok_ += out->removes_ok;
      shared_.updates += out->inserts + out->removes;
      shared_.updates_ok += out->inserts_ok + out->removes_ok;
      for (int k = 0; k < 3; ++k) {
        if (traced) {
          traced_latency_[k].merge(out->latency[k]);
        } else {
          slice.merge(out->latency[k]);
        }
      }
      probes_.merge(out->probes);
    }
    all_ops_ += ops;
    if (traced) {
      traced_delta_ += delta;
      traced_ops_ += static_cast<double>(ops);
    } else {
      untraced_delta_ += delta;
      rates_.push_back(static_cast<double>(ops) / elapsed_s);
      latency_.add(slice);
      shared_.requests.add(slice);
    }
    return ops;
  }

  void finish(Result& r) override {
    const std::string s = name_;
    r.metric(s + ".mops", median(rates_) / 1e6, "Mops/s");
    latency_.report(s + ".op_p50_ns", s + ".op_p99_ns", r);
    if constexpr (Scheme::kBoundedWaste) {
      r.metric(s + ".waste_avg_nodes", untraced_delta_.avg_retired(),
               "nodes/thread");
    }
    report_counters<Scheme>(s, traced_delta_ - probes_.delta, traced_ops_,
                            ds_->scheme(), r);
    report_probes(s, probes_, r);
    r.timing("ds.contains_ns." + s, traced_latency_[kContains], 0.5);
    r.timing("ds.insert_ns." + s, traced_latency_[kInsert], 0.5);
    r.timing("ds.remove_ns." + s, traced_latency_[kRemove], 0.5);
    r.attempted += all_ops_;

    const smr::WasteWatchdog<Scheme> watchdog(ds_->scheme());
    r.check(s + ".waste_bound", watchdog.ok() && watchdog.inflight_ok(),
            "peak_retired=" + std::to_string(watchdog.peak()) +
                " bound=" + std::to_string(watchdog.bound()));
    probers_.clear();
    ds_->scheme().drain();
    check_conservation(s + ".conservation", ds_->scheme().stats_snapshot(), r);
    const std::uint64_t expected = p_.size + inserts_ok_ - removes_ok_ +
                                   (p_.break_size_model ? 1 : 0);
    const std::uint64_t actual = ds_->size();
    r.check(s + ".size_model", actual == expected,
            "size=" + std::to_string(actual) +
                " expected=" + std::to_string(expected));
    r.check(s + ".structure_valid", ds_->validate(), "validate()");
    ds_.reset();
  }

  void collect_spans(SpanLogs& out) const override {
    for (std::size_t t = 0; t < logs_.size(); ++t) {
      out.emplace_back(std::string(name_) + "/" + std::to_string(t), &logs_[t]);
    }
  }

 private:
  /// Construct the structure and prefill it with p_.size distinct keys
  /// from substream 0 of the seed.
  std::unique_ptr<DS> build() const {
    smr::Config config;
    config.max_threads = static_cast<std::size_t>(p_.threads);
    config.slots_per_thread = DS::kRequiredSlots;
    std::unique_ptr<DS> ds;
    if constexpr (std::is_constructible_v<DS, const smr::Config&,
                                          std::size_t>) {
      ds = std::make_unique<DS>(config, p_.buckets);
    } else {
      ds = std::make_unique<DS>(config);
    }
    auto rng = mp::common::Xoshiro256::stream(p_.seed, 0);
    const auto handle = ds->scheme().handle(0);
    std::uint64_t inserted = 0;
    while (inserted < p_.size) {
      const std::uint64_t key = 1 + rng.next_below(p_.range);
      inserted += ds->insert(handle, key, key) ? 1 : 0;
    }
    return ds;
  }

  void work(int t, WorkerOut& out, const std::atomic<bool>& stop,
            bool traced) {
    pin_load_thread(t);
    DS& ds = *ds_;
    const auto handle = ds.scheme().handle(t);
    mp::common::Xoshiro256 rng = streams_[t];
    Prober<Scheme>& prober = *probers_[t];
    SpanLog* log = traced ? &logs_[t] : nullptr;
    std::uint64_t ops = 0;
    std::uint64_t prev = now_ns();
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t key = 1 + rng.next_below(p_.range);
      const std::uint64_t coin = rng.next_below(100);
      const OpType type = coin < p_.insert_pct                   ? kInsert
                          : coin < p_.insert_pct + p_.remove_pct ? kRemove
                                                                 : kContains;
      if (type == kInsert) {
        ++out.inserts;
        out.inserts_ok += ds.insert(handle, key, key) ? 1 : 0;
      } else if (type == kRemove) {
        ++out.removes;
        out.removes_ok += ds.remove(handle, key) ? 1 : 0;
      } else {
        ds.contains(handle, key);
      }
      const std::uint64_t now = now_ns();
      out.latency[type].record(elapsed(prev, now));
      ++ops;
      if (traced && ops % kProbeEvery == 0) {
        const std::uint64_t req = (static_cast<std::uint64_t>(t) << 48) | ops;
        log->add(SpanName::kOp, prev, now, -1, req);
        prober.run(static_cast<int>(ops / kProbeEvery), out.probes, log, req);
        prev = now_ns();
      } else {
        prev = now;
      }
    }
    out.ops = ops;
    streams_[t] = rng;
  }

  const char* name_;
  const Params& p_;
  Shared& shared_;
  std::vector<mp::common::Xoshiro256> streams_;  ///< where each worker is
  std::vector<SpanLog> logs_;
  std::unique_ptr<DS> ds_;
  std::vector<std::unique_ptr<Prober<Scheme>>> probers_;

  SliceQuantiles latency_;        ///< untraced, all op types
  Histogram traced_latency_[3];   ///< traced, per OpType
  ProbeStats probes_;
  std::vector<double> rates_;     ///< ops/s of each untraced slice
  smr::StatsSnapshot untraced_delta_, traced_delta_;
  double traced_ops_ = 0;
  std::uint64_t all_ops_ = 0, inserts_ok_ = 0, removes_ok_ = 0;
};

template <template <template <typename> class> class DST>
void run_structure(const Options& opt, Result& r) {
  Params p{};
  p.threads = static_cast<int>(opt.count("threads"));
  p.size = opt.count("size");
  p.range = opt.count("key_range");
  p.buckets = opt.params.count("buckets") ? opt.count("buckets") : 0;
  p.insert_pct = opt.count("insert_pct");
  p.remove_pct = opt.count("remove_pct");
  p.seed = opt.seed;
  p.break_size_model = opt.break_size_model;
  if (opt.str("loop") != "closed" || opt.str("keys") != "uniform" ||
      opt.str("reclaim") != "fg") {
    throw std::invalid_argument(
        "structure workloads run closed-loop, uniform keys, fg reclaim");
  }
  r.info["reclaim"] = opt.str("reclaim");

  Shared shared;
  std::vector<std::unique_ptr<Slot>> slots;
  Schemes::for_each([&]<template <typename> class SchemeT>() {
    slots.push_back(std::make_unique<StructureSlot<DST<SchemeT>>>(
        scheme_name<SchemeT>(), p, shared));
  });
  run_slots(slots, opt, shared, r);

  // Layers that only the service workload exercises report 0 here.
  for (const auto& [name, unit] : kServiceOnlyMetrics) r.metric(name, 0, unit);
}

}  // namespace

void run_bst(const Options& opt, Result& r) {
  run_structure<mp::ds::NatarajanTree>(opt, r);
}

void run_hash(const Options& opt, Result& r) {
  run_structure<mp::ds::MichaelHashSet>(opt, r);
}

}  // namespace smrbench
