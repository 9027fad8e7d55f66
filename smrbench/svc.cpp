// Open-loop service workload `svc-zipf`: ShardedMap<NatarajanTree<S>> with
// a background reclaimer per shard, driven through ShardedMap::Client by
// clients that submit on a fixed schedule whatever the service does: a
// burst of arrivals falls due at fixed intervals. Each request is timed
// from its intended arrival, so a stall is charged to every request it
// delays, and the generator's own lateness is reported.
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ds/natarajan_tree.hpp"
#include "svc/sharded_map.hpp"

namespace smrbench {
namespace {

enum EventType { kGet, kInsert, kRemove, kMultiGet };
/// Most keys one multi-get may carry.
constexpr std::uint64_t kMaxKeys = 64;
/// Zipf rank r is key 1 + (r * kScatter) mod key_range. Ranks 0, 1, 2, ...
/// would otherwise be keys 1, 2, 3, ..., which all sit on the tree's
/// leftmost path, whose depth varies widely with the seed's prefill;
/// scattered, the hot keys have typical depths. kScatter is prime, so the
/// map is a bijection for every key range below it.
constexpr std::uint64_t kScatter = 2654435761u;
/// A submit this far behind its schedule counts as late.
constexpr std::uint64_t kLateNs = 100'000;
/// How long after the run's end a client may still submit arrivals that
/// fell due before it.
constexpr std::uint64_t kGraceNs = 100'000'000;
/// The first part of every slice warms the scheme's map back into the
/// clients' caches, which the slice before (another scheme's) left cold:
/// its arrivals are served and checked but not measured, so a cold start
/// cannot set a slice's p99.
constexpr std::uint64_t kWarmupNs = 20'000'000;
/// Traced slices issue one SMR probe after every kProbeEvery arrivals and
/// log the spans of one client iteration that submits in kSampleLoops.
constexpr std::uint64_t kProbeEvery = 64;
constexpr std::uint64_t kSampleLoops = 16;

struct Params {
  int clients;
  std::size_t shards;
  std::uint64_t size;
  std::uint64_t range;
  double theta;
  std::uint64_t insert_pct, remove_pct, multiget_pct, multiget_keys;
  double rate;  ///< arrivals per second, all clients together
  std::uint64_t burst;  ///< arrivals a client's schedule makes due at once
  std::size_t batch;
  std::size_t ring;
  std::uint64_t seed;
  bool break_size_model;
};

/// One request as the generator draws it.
struct Arrival {
  EventType type = kGet;
  std::uint64_t count = 1;  ///< keys (and tickets): >1 only for a multi-get
  std::uint64_t keys[kMaxKeys] = {};
};

/// Draw the next arrival of one client's stream: the op by the mix, then
/// its keys.
void draw(const Params& p, const mp::common::ZipfGenerator& zipf,
          mp::common::Xoshiro256& rng, Arrival& out) {
  const std::uint64_t coin = rng.next_below(100);
  out.type = kGet;
  if (coin < p.insert_pct) {
    out.type = kInsert;
  } else if (coin < p.insert_pct + p.remove_pct) {
    out.type = kRemove;
  } else if (coin < p.insert_pct + p.remove_pct + p.multiget_pct) {
    out.type = kMultiGet;
  }
  out.count = out.type == kMultiGet ? p.multiget_keys : 1;
  for (std::uint64_t k = 0; k < out.count; ++k) {
    out.keys[k] = 1 + zipf.next(rng) * kScatter % p.range;
  }
}

/// Measurements shared by the five schemes' slots.
struct SvcShared : Shared {
  Histogram lag;  ///< how late each submit ran against its schedule
  std::uint64_t late = 0;
};

struct ClientOut {
  Histogram latency;  ///< from intended arrival to completion, measured
  Histogram lag;      ///< measured arrivals only
  Histogram submit, flush, complete;  ///< traced slices only
  ProbeStats probes;
  std::uint64_t late = 0;
  std::uint64_t submits = 0, ring_full = 0;
  std::uint64_t submitted = 0, completed = 0, batches = 0;
  std::uint64_t measured = 0;  ///< completions of arrivals after the warm-up
  std::uint64_t busy_ns = 0;   ///< after the warm-up: submitting to harvest
  std::uint64_t failed = 0, unsubmitted = 0;
  std::uint64_t updates = 0, inserts_ok = 0, removes_ok = 0;
  bool exactly_once = true;
};

template <template <typename> class SchemeT>
class SvcSlot final : public Slot {
 public:
  using Tree = mp::ds::NatarajanTree<SchemeT>;
  using Map = mp::svc::ShardedMap<Tree>;
  using Scheme = typename Map::Scheme;
  using Client = typename Map::Client;

  /// Client c's arrivals are substream c + 1 of the seed (substream 0 is
  /// the prefill); every scheme starts from the same streams.
  SvcSlot(const Params& p, const mp::common::ZipfGenerator& zipf,
          SvcShared& shared)
      : p_(p),
        zipf_(zipf),
        shared_(shared),
        ahead_(static_cast<std::size_t>(p.clients)),
        logs_(static_cast<std::size_t>(p.clients)) {
    for (int c = 0; c < p.clients; ++c) {
      streams_.push_back(mp::common::Xoshiro256::stream(
          p.seed, static_cast<std::uint64_t>(c) + 1));
    }
  }

  const char* name() const override { return scheme_name<SchemeT>(); }

  double setup() override {
    const std::uint64_t t0 = now_ns();
    map_ = build();
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    for (std::size_t s = 0; s < map_->shard_count(); ++s) {
      for (int t = 0; t < p_.clients; ++t) {
        probers_.push_back(
            std::make_unique<Prober<Scheme>>(map_->scheme(s), t));
      }
    }
    return seconds;
  }

  double time_setup() override {
    const std::uint64_t t0 = now_ns();
    const std::unique_ptr<Map> map = build();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::uint64_t run_slice(double seconds, bool traced) override {
    std::vector<std::unique_ptr<ClientOut>> outs;
    for (int c = 0; c < p_.clients; ++c) {
      outs.push_back(std::make_unique<ClientOut>());
    }
    const smr::StatsSnapshot before = map_->stats_total();
    const auto length = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t warmup = std::min(kWarmupNs, length / 4);
    // The schedule starts once every client thread is up, so thread
    // start-up is charged to no request.
    std::atomic<int> up{0};  // client threads running
    std::atomic<std::uint64_t> start{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < p_.clients; ++c) {
      threads.emplace_back([&, c] {
        work(c, *outs[c], up, start, length, warmup, traced);
      });
    }
    while (up.load(std::memory_order_acquire) < p_.clients) {
    }
    start.store(now_ns() + 100'000, std::memory_order_release);
    for (auto& thread : threads) thread.join();
    const smr::StatsSnapshot delta = map_->stats_total() - before;

    std::uint64_t completed = 0, measured = 0, busy_ns = 0;
    Histogram slice;  // untraced
    for (const auto& out : outs) {
      completed += out->completed;
      measured += out->measured;
      busy_ns += out->busy_ns;
      attempted_ += out->submitted + out->unsubmitted;
      failed_ += out->failed + out->unsubmitted;
      inserts_ok_ += out->inserts_ok;
      removes_ok_ += out->removes_ok;
      exactly_once_ = exactly_once_ && out->exactly_once;
      shared_.updates += out->updates;
      shared_.updates_ok += out->inserts_ok + out->removes_ok;
      if (traced) {
        submit_.merge(out->submit);
        flush_.merge(out->flush);
        complete_.merge(out->complete);
        probes_.merge(out->probes);
        submits_ += out->submits;
        ring_full_ += out->ring_full;
        batches_ += out->batches;
      } else {
        slice.merge(out->latency);
        shared_.lag.merge(out->lag);
        shared_.late += out->late;
      }
    }
    if (traced) {
      traced_delta_ += delta;
      traced_completed_ += static_cast<double>(completed);
    } else {
      untraced_delta_ += delta;
      // Goodput is the offered rate whatever the scheme, so the rate is
      // taken over the clients' busy time: the service's capacity.
      rates_.push_back(ratio(static_cast<double>(measured),
                             static_cast<double>(busy_ns) * 1e-9));
      latency_.add(slice);
      shared_.requests.add(slice);
    }
    return completed;
  }

  void finish(Result& r) override {
    const std::string s = name();
    r.metric(s + ".mops", median(rates_) / 1e6, "Mops/s");
    latency_.report(s + ".op_p50_ns", s + ".op_p99_ns", r);
    if constexpr (Scheme::kBoundedWaste) {
      r.metric(s + ".waste_avg_nodes", untraced_delta_.avg_retired(),
               "nodes/thread");
    }
    const smr::StatsSnapshot wl = traced_delta_ - probes_.delta;
    report_counters<Scheme>(s, wl, traced_completed_, map_->scheme(0), r);
    report_probes(s, probes_, r);
    // Structure calls run inside Client::flush here; the svc spans cover them.
    for (const char* op : {"contains", "insert", "remove"}) {
      r.metric(std::string("ds.") + op + "_ns." + s, 0, "ns");
    }
    if (s == "MP") report_service(wl, r);
    r.attempted += attempted_;
    r.failed += failed_;

    r.check(s + ".waste_bound", map_->waste_ok() && map_->inflight_ok(),
            "WasteWatchdog ok() and inflight_ok() on every shard");
    r.check(s + ".tickets_exactly_once", exactly_once_,
            "every ticket completed exactly once");
    probers_.clear();
    map_->drain_all();
    for (std::size_t shard = 0; shard < map_->shard_count(); ++shard) {
      check_conservation(s + ".conservation.shard" + std::to_string(shard),
                         map_->shard_stats(shard), r);
      r.check(s + ".structure_valid.shard" + std::to_string(shard),
              map_->shard(shard).validate(), "validate()");
    }
    const std::uint64_t expected = p_.size + inserts_ok_ - removes_ok_ +
                                   (p_.break_size_model ? 1 : 0);
    const std::uint64_t actual = map_->size();
    r.check(s + ".size_model", actual == expected,
            "size=" + std::to_string(actual) +
                " expected=" + std::to_string(expected));
    map_.reset();
  }

  void collect_spans(SpanLogs& out) const override {
    for (std::size_t c = 0; c < logs_.size(); ++c) {
      out.emplace_back(std::string(name()) + "/" + std::to_string(c),
                       &logs_[c]);
    }
  }

 private:
  /// Construct the sharded map (starting its background reclaimers) and
  /// prefill it with p_.size distinct keys from substream 0 of the seed.
  std::unique_ptr<Map> build() const {
    smr::Config config;
    config.max_threads = static_cast<std::size_t>(p_.clients);
    config.slots_per_thread = Tree::kRequiredSlots;
    config.background_reclaim = true;
    auto map = std::make_unique<Map>(p_.shards, config);
    auto rng = mp::common::Xoshiro256::stream(p_.seed, 0);
    std::uint64_t inserted = 0;
    while (inserted < p_.size) {
      const std::uint64_t key = 1 + rng.next_below(p_.range);
      inserted += map->insert(0, key, key) ? 1 : 0;
    }
    return map;
  }

  /// The svc and reclaimer layers, reported for MP (the service's scheme
  /// in the paper's framing; the other schemes run the same code).
  void report_service(const smr::StatsSnapshot& wl, Result& r) const {
    r.metric("reclaimer.offloaded_per_kreq",
             1000 * ratio(wl.offloaded, traced_completed_), "nodes/kreq");
    r.metric("reclaimer.scans_per_snapshot",
             ratio(wl.bg_scans, wl.bg_snapshots), "batches/snap");
    r.metric("reclaimer.inline_fallbacks",
             static_cast<double>(wl.inline_fallbacks), "count");
    r.metric("reclaimer.peak_inflight", static_cast<double>(wl.peak_inflight),
             "nodes");
    r.metric("reclaimer.max_pause_ns", probes_.reclaimer_pass.quantile(1),
             "ns");
    r.samples["reclaimer.max_pause_ns"] = probes_.reclaimer_pass.count();
    r.timing("svc.submit_ns_p50", submit_, 0.5);
    r.timing("svc.flush_ns_p50", flush_, 0.5);
    r.timing("svc.flush_ns_p99", flush_, 0.99);
    r.timing("svc.complete_ns_p50", complete_, 0.5);
    r.metric("svc.reqs_per_flush", ratio(traced_completed_, batches_),
             "reqs/flush");
    r.metric("svc.ring_full_frac", ratio(ring_full_, submits_ + ring_full_),
             "ratio");
    std::uint64_t transitions = 0;
    for (std::size_t shard = 0; shard < map_->shard_count(); ++shard) {
      const auto& health = map_->health(shard);
      transitions += health.degraded_enters() + health.shed_enters() +
                     health.recoveries();
    }
    r.metric("svc.health_transitions", static_cast<double>(transitions),
             "count");
  }

  void work(int c, ClientOut& out, std::atomic<int>& up,
            const std::atomic<std::uint64_t>& go, std::uint64_t length,
            std::uint64_t warmup, bool traced) {
    pin_load_thread(c);
    Client client = map_->client(c, p_.batch, p_.ring);
    // Local copies, written back at the end: the clients' slots share
    // cache lines.
    mp::common::Xoshiro256 rng = streams_[c];
    // Arrivals are drawn ahead, a burst at a time, so that drawing stays
    // off the request path: ahead[pos] is the next one to submit.
    std::vector<Arrival> ahead = std::move(ahead_[c]);
    std::size_t pos = 0;
    const auto refill = [&] {
      ahead.erase(ahead.begin(),
                  ahead.begin() + static_cast<std::ptrdiff_t>(pos));
      pos = 0;
      while (ahead.size() < p_.burst) {
        ahead.emplace_back();
        draw(p_, zipf_, rng, ahead.back());
      }
    };
    refill();
    SpanLog* log = traced ? &logs_[c] : nullptr;
    std::vector<std::uint8_t> seen(1024, 0);  // completions per ticket
    up.fetch_add(1, std::memory_order_release);
    std::uint64_t start = 0;
    while ((start = go.load(std::memory_order_acquire)) == 0) {
    }
    const std::uint64_t end = start + length;
    const std::uint64_t measured = start + warmup;
    // A burst of p_.burst arrivals falls due every `interval`; the clients'
    // schedules interleave instead of bursting together.
    const double interval =
        static_cast<double>(p_.burst) * p_.clients * 1e9 / p_.rate;
    double next = static_cast<double>(start) + interval * c / p_.clients;
    std::uint64_t in_burst = 0;  // arrivals of the due burst submitted
    const auto advance = [&] {
      if (++in_burst == p_.burst) {
        in_burst = 0;
        next += interval;
      }
    };
    std::uint64_t arrivals = 0;
    std::uint64_t loops = 0;
    while (now_ns() < start) {
    }
    // Arrivals due by `end` may still be submitted, late, until the grace
    // period runs out; whatever is left then was never submitted.
    for (std::uint64_t now = now_ns(); now < end + kGraceNs; now = now_ns()) {
      if (now >= end && next > static_cast<double>(end)) break;
      const double due = static_cast<double>(std::min(now, end));
      // Nothing fell due: spin. Every iteration that submits ends with its
      // requests flushed and harvested, so nothing is pending here; only
      // those iterations are timed and sampled.
      if (next > due) continue;
      const bool sampled = traced && loops++ % kSampleLoops == 0;
      const std::int32_t root =
          sampled ? log->add(SpanName::kSvcLoop, now, 0, -1,
                             client.submitted() + 1)
                  : -1;
      while (next <= due) {
        if (pos == ahead.size()) refill();  // more fell due than a burst
        const Arrival& arrival = ahead[pos];
        const auto intended = static_cast<std::uint64_t>(next);
        const std::uint64_t a = now_ns();
        std::optional<std::uint64_t> ticket;
        if (arrival.type == kMultiGet) {
          ticket = client.submit_multi_get(arrival.keys, arrival.count,
                                           intended);
        } else {
          mp::svc::Request request;
          request.op = arrival.type == kInsert   ? mp::svc::OpType::kInsert
                       : arrival.type == kRemove ? mp::svc::OpType::kRemove
                                                 : mp::svc::OpType::kGet;
          request.key = arrival.keys[0];
          request.value = request.key;
          request.user = intended;
          ticket = client.submit(request);
        }
        const std::uint64_t b = now_ns();
        if (!ticket) {
          ++out.ring_full;  // harvest, then retry the same arrival
          break;
        }
        ++pos;
        ++out.submits;
        if (intended >= measured) {
          const std::uint64_t lag = a > intended ? a - intended : 0;
          out.lag.record(lag);
          out.late += lag > kLateNs ? 1 : 0;
        }
        if (traced) out.submit.record(elapsed(a, b));
        if (root >= 0) log->add(SpanName::kSvcSubmit, a, b, root, *ticket);
        advance();
        if (traced && ++arrivals % kProbeEvery == 0) {
          const std::uint64_t probe = arrivals / kProbeEvery;
          const std::size_t shard = probe % map_->shard_count();
          auto& prober = *probers_[shard * static_cast<std::size_t>(p_.clients) +
                                   static_cast<std::size_t>(c)];
          const auto kind = static_cast<int>(probe / map_->shard_count());
          if (kind % (Prober<Scheme>::kKinds + 1) == Prober<Scheme>::kKinds) {
            prober.run_reclaimer_pass(out.probes);
          } else {
            prober.run(kind, out.probes, log, *ticket);
          }
        }
      }
      const std::uint64_t a = now_ns();
      client.flush();
      const std::uint64_t b = now_ns();
      harvest(client, out, seen, measured);
      const std::uint64_t d = now_ns();
      if (now >= measured) out.busy_ns += d - now;
      if (traced) {
        out.flush.record(elapsed(a, b));
        out.complete.record(elapsed(b, d));
      }
      if (root >= 0) {
        log->add(SpanName::kSvcFlush, a, b, root, 0);
        log->add(SpanName::kSvcComplete, b, d, root, 0);
        log->set_end(root, d);
      }
      refill();
    }
    // Arrivals that fell due but were never submitted are failures, not
    // silent drops.
    while (next <= static_cast<double>(end)) {
      if (pos == ahead.size()) refill();
      out.unsubmitted += ahead[pos++].count;
      advance();
    }
    client.flush();
    harvest(client, out, seen, measured);
    out.submitted = client.submitted();
    out.batches = client.batches_flushed();
    out.exactly_once = out.exactly_once && client.completed() == out.submitted &&
                       seen[0] == 0 &&
                       std::count(seen.begin(), seen.end(), 1) ==
                           static_cast<std::ptrdiff_t>(out.submitted);
    streams_[c] = rng;
    ahead.erase(ahead.begin(), ahead.begin() + static_cast<std::ptrdiff_t>(pos));
    ahead_[c] = std::move(ahead);
  }

  /// Pop every completion; those of arrivals due from `measured` on are
  /// timed.
  void harvest(Client& client, ClientOut& out, std::vector<std::uint8_t>& seen,
               std::uint64_t measured) {
    const std::uint64_t now = now_ns();
    mp::svc::Completion done;
    while (client.try_complete(done)) {
      if (done.user >= measured) {
        out.latency.record(now > done.user ? now - done.user : 0);
        ++out.measured;
      }
      ++out.completed;
      if (done.ticket >= seen.size()) {
        seen.resize(std::max<std::size_t>(done.ticket + 1, 2 * seen.size()), 0);
      }
      if (seen[done.ticket]++ != 0) out.exactly_once = false;
      const bool update = done.op == mp::svc::OpType::kInsert ||
                          done.op == mp::svc::OpType::kRemove;
      if (!mp::svc::executed(done.status)) {
        ++out.failed;
      } else if (update) {
        ++out.updates;
      }
      if (done.status == mp::svc::Status::kOk) {
        out.inserts_ok += done.op == mp::svc::OpType::kInsert ? 1 : 0;
        out.removes_ok += done.op == mp::svc::OpType::kRemove ? 1 : 0;
      }
    }
  }

  const Params& p_;
  const mp::common::ZipfGenerator& zipf_;
  SvcShared& shared_;
  std::vector<mp::common::Xoshiro256> streams_;  ///< where each client is
  std::vector<std::vector<Arrival>> ahead_;  ///< drawn, not yet submitted
  std::vector<SpanLog> logs_;
  std::unique_ptr<Map> map_;
  /// Index shard * clients + client.
  std::vector<std::unique_ptr<Prober<Scheme>>> probers_;

  SliceQuantiles latency_;  ///< untraced
  Histogram submit_, flush_, complete_;
  ProbeStats probes_;
  std::vector<double> rates_;  ///< completed requests/s per untraced slice
  smr::StatsSnapshot untraced_delta_, traced_delta_;
  double traced_completed_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t inserts_ok_ = 0, removes_ok_ = 0;
  std::uint64_t submits_ = 0, ring_full_ = 0, batches_ = 0;
  bool exactly_once_ = true;
};

}  // namespace

void run_svc(const Options& opt, Result& r) {
  Params p{};
  p.clients = static_cast<int>(opt.count("clients"));
  p.shards = opt.count("shards");
  p.size = opt.count("size");
  p.range = opt.count("key_range");
  p.theta = opt.num("theta");
  p.insert_pct = opt.count("insert_pct");
  p.remove_pct = opt.count("remove_pct");
  p.multiget_pct = opt.count("multiget_pct");
  p.multiget_keys = opt.count("multiget_keys");
  p.rate = opt.num("rate_per_s");
  p.burst = opt.count("burst");
  p.batch = opt.count("batch");
  p.ring = opt.count("ring");
  p.seed = opt.seed;
  p.break_size_model = opt.break_size_model;
  if (p.multiget_keys < 1 || p.multiget_keys > kMaxKeys || p.rate <= 0 ||
      p.burst < 1 || p.range < 1 || p.range >= kScatter) {
    throw std::invalid_argument(
        "multiget_keys must be in [1, 64], rate > 0, burst >= 1, key_range "
        "in [1, kScatter)");
  }
  if (opt.str("loop") != "open" || opt.str("keys") != "zipf" ||
      opt.str("reclaim") != "bg") {
    throw std::invalid_argument(
        "svc-zipf runs open-loop, Zipf keys, bg reclaim");
  }
  r.info["reclaim"] = opt.str("reclaim");

  const mp::common::ZipfGenerator zipf(p.range, p.theta);
  SvcShared shared;
  std::vector<std::unique_ptr<Slot>> slots;
  Schemes::for_each([&]<template <typename> class SchemeT>() {
    slots.push_back(std::make_unique<SvcSlot<SchemeT>>(p, zipf, shared));
  });
  run_slots(slots, opt, shared, r);
  r.timing("gen.lag_ns_p99", shared.lag, 0.99);
  r.metric("gen.late_submits", static_cast<double>(shared.late), "count");
}

}  // namespace smrbench
