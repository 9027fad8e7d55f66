#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <stdexcept>
#include <thread>

namespace smrbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "ds.op";
    case SpanName::kProbeBracket: return "smr.bracket";
    case SpanName::kProbeRead: return "probe.read";
    case SpanName::kSmrRead: return "smr.read";
    case SpanName::kProbeAlloc: return "probe.alloc";
    case SpanName::kSmrAlloc: return "smr.alloc";
    case SpanName::kSmrFree: return "smr.free";
    case SpanName::kProbeRetire: return "probe.retire";
    case SpanName::kSmrRetire: return "smr.retire";
    case SpanName::kSvcLoop: return "gen.loop";
    case SpanName::kSvcSubmit: return "svc.submit";
    case SpanName::kSvcFlush: return "svc.flush";
    case SpanName::kSvcComplete: return "svc.complete";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Result::print_json(std::FILE* out) const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
         ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  s += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) s += ", ";
    s += "{\"name\": " + quoted(checks[i].name) +
         ", \"ok\": " + (checks[i].ok ? "true" : "false") +
         ", \"detail\": " + quoted(checks[i].detail) + "}";
  }
  s += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : samples) {
    s += (first ? "" : ", ") + quoted(name) + ": " + std::to_string(n);
    first = false;
  }
  s += "}, \"span_self_ns_p50\": {";
  first = true;
  for (const auto& [name, v] : span_self_p50) {
    s += (first ? "" : ", ") + quoted(name) + ": " + number(v);
    first = false;
  }
  s += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info) {
    s += (first ? "" : ", ") + quoted(key) + ": " + quoted(value);
    first = false;
  }
  s += "}}\n";
  std::fputs(s.c_str(), out);
  std::fflush(out);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

bool pinning() {
  return static_cast<int>(std::thread::hardware_concurrency()) >=
         kLoadCpus + 2;
}

void pin(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  // Best effort: a failure leaves the thread where the scheduler put it.
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace

void pin_main_thread() {
  if (pinning()) {
    pin(kLoadCpus, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }
}

void pin_load_thread(int index) {
  if (pinning() && index < kLoadCpus) pin(index, index);
}

std::uint64_t peak_rss_kb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image exec replaced (the launching script's).
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

double Options::num(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("missing workload parameter: " + key);
  }
  return std::stod(it->second);
}

const std::string& Options::str(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("missing workload parameter: " + key);
  }
  return it->second;
}

void run_slots(std::vector<std::unique_ptr<Slot>>& slots, const Options& opt,
               Shared& shared, Result& result) {
  const std::size_t n = slots.size();
  // Index of the i-th slot of an order rotated by `shift`.
  const auto at = [n](std::size_t shift, std::size_t i) {
    return (shift + i) % n;
  };
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(opt.seconds / (kSliceSeconds * static_cast<double>(n)))));
  const double slice = opt.seconds / static_cast<double>(rounds * n);
  result.info["rounds"] = std::to_string(rounds);

  const auto measure = [&](Slot& slot) {
    if (!opt.trace) {
      slot.run_slice(slice, false);
      return;
    }
    // Traced runs split each slice: the untraced half is the baseline for
    // obs.trace_overhead_frac.
    std::uint64_t t0 = now_ns();
    shared.untraced_ops += static_cast<double>(slot.run_slice(slice / 2, false));
    shared.untraced_seconds += static_cast<double>(now_ns() - t0) * 1e-9;
    t0 = now_ns();
    shared.traced_ops += static_cast<double>(slot.run_slice(slice / 2, true));
    shared.traced_seconds += static_cast<double>(now_ns() - t0) * 1e-9;
  };

  // Set-up times per slot. Build times shift between regimes that last
  // seconds, so each scheme's set-up is timed again on a throwaway
  // instance after every round, across the whole run.
  std::vector<std::vector<double>> setup_times(n);
  std::string order;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = at(opt.seed, i);
    setup_times[k].push_back(slots[k]->setup());
    order += std::string(i ? "," : "") + slots[k]->name();
  }
  result.info["scheme_order"] = order;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) measure(*slots[at(opt.seed + round, i)]);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = at(opt.seed + round, i);
      setup_times[k].push_back(slots[k]->time_setup());
    }
  }
  double setup_seconds = 0;
  for (const auto& times : setup_times) setup_seconds += median(times);
  result.metric("setup_s", setup_seconds, "s");
  result.samples["setup_s"] = rounds + 1;
  for (auto& slot : slots) slot->finish(result);

  const std::string ref = kReference;
  for (const auto& slot : slots) {
    const std::string s = slot->name();
    if (s == ref) continue;
    result.metric(s + ".mops_vs_" + ref,
                  ratio(result.value(s + ".mops"), result.value(ref + ".mops")),
                  "ratio");
  }
  for (const char* q : {"p50", "p99"}) {
    const std::string tail = std::string(".op_") + q;
    result.metric("MP" + tail + "_vs_" + ref,
                  ratio(result.value("MP" + tail + "_ns"),
                        result.value(ref + tail + "_ns")),
                  "ratio");
  }
  if (opt.trace) {
    SpanLogs logs;
    for (const auto& slot : slots) slot->collect_spans(logs);
    summarize_spans(logs, opt.spans_out, result);
  }

  shared.requests.report("req_p50_ns", "req_p99_ns", result);
  result.metric("ds.update_success_frac",
                ratio(static_cast<double>(shared.updates_ok),
                      static_cast<double>(shared.updates)),
                "ratio");
  result.metric("obs.trace_overhead_frac",
                opt.trace ? 1 - ratio(shared.traced_ops / shared.traced_seconds,
                                      shared.untraced_ops /
                                          shared.untraced_seconds)
                          : 0,
                "ratio");
}

void summarize_spans(const SpanLogs& logs, const std::string& path,
                     Result& result) {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  std::vector<Histogram> self(kNames);
  std::FILE* out = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  if (out) std::fputs("log,index,name,start_ns,end_ns,parent,req\n", out);
  for (const auto& [label, log] : logs) {
    const auto& spans = log->spans();
    std::vector<std::uint64_t> children(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::uint64_t duration = span.end - span.start;
      self[static_cast<std::size_t>(span.name)].record(
          duration > children[i] ? duration - children[i] : 0);
      if (out) {
        std::fprintf(out, "%s,%zu,%s,%llu,%llu,%d,%llu\n", label.c_str(), i,
                     span_name(span.name),
                     static_cast<unsigned long long>(span.start),
                     static_cast<unsigned long long>(span.end), span.parent,
                     static_cast<unsigned long long>(span.req));
      }
    }
  }
  if (out) std::fclose(out);
  for (std::size_t i = 0; i < kNames; ++i) {
    if (self[i].count() != 0) {
      result.span_self_p50[span_name(static_cast<SpanName>(i))] =
          self[i].quantile(0.5);
    }
  }
}

}  // namespace smrbench
