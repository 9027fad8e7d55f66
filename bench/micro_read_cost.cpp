// Micro-benchmark (google-benchmark): the cost of a single SMR-protected
// read() per scheme, in the two regimes that matter —
//   * "walk": sequential reads over many distinct nodes (a traversal),
//     where MP's margin fast path and HP's per-node fences diverge;
//   * "repeat": re-reading one node (a CAS retry loop), cheap everywhere;
//   * "bracket": one start_op + end_op pair with no reads, the fixed
//     per-operation cost every structure pays around its traversal.
//
// JSON output: unlike the figure benches (which use obs::BenchReport),
// this binary defaults to google-benchmark's native JSON reporter —
// --benchmark_out=BENCH_micro_read_cost.json — so its report keeps the
// upstream schema (context + benchmarks[]). Pass your own --benchmark_out
// to override.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "smr/smr.hpp"

namespace {

struct Node : mp::smr::NodeBase {
  std::uint64_t key;
  explicit Node(std::uint64_t k) : key(k) {}
};

template <template <typename> class SchemeT>
class ReadCost : public benchmark::Fixture {
 public:
  using Scheme = SchemeT<Node>;
  static constexpr int kNodes = 1024;

  void SetUp(const benchmark::State&) override {
    mp::smr::Config config;
    config.max_threads = 2;
    config.slots_per_thread = 4;
    scheme = std::make_unique<Scheme>(config);
    nodes.clear();
    cells = std::make_unique<mp::smr::AtomicTaggedPtr[]>(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      Node* node = scheme->alloc(0, static_cast<std::uint64_t>(i));
      // Consecutive indices 2^12 apart: a realistic traversal locality for
      // MP (many nodes per margin, occasional margin moves).
      scheme->set_index(node, static_cast<std::uint32_t>(i) << 12);
      nodes.push_back(node);
      cells[i].store(scheme->make_link(node));
    }
  }

  void TearDown(const benchmark::State&) override {
    for (Node* node : nodes) scheme->delete_unlinked(node);
    scheme.reset();
  }

  std::unique_ptr<Scheme> scheme;
  std::vector<Node*> nodes;
  std::unique_ptr<mp::smr::AtomicTaggedPtr[]> cells;
};

#define READ_COST_BENCH(SCHEME)                                         \
  BENCHMARK_TEMPLATE_F(ReadCost, Walk_##SCHEME, mp::smr::SCHEME)        \
  (benchmark::State & state) {                                          \
    scheme->start_op(0);                                                \
    int i = 0;                                                          \
    for (auto _ : state) {                                              \
      benchmark::DoNotOptimize(scheme->read(0, 0, cells[i]));           \
      i = (i + 1) & (kNodes - 1);                                       \
    }                                                                   \
    scheme->end_op(0);                                                  \
    state.SetItemsProcessed(state.iterations());                        \
  }                                                                     \
  BENCHMARK_TEMPLATE_F(ReadCost, Repeat_##SCHEME, mp::smr::SCHEME)      \
  (benchmark::State & state) {                                          \
    scheme->start_op(0);                                                \
    for (auto _ : state) {                                              \
      benchmark::DoNotOptimize(scheme->read(0, 0, cells[0]));           \
    }                                                                   \
    scheme->end_op(0);                                                  \
    state.SetItemsProcessed(state.iterations());                        \
  }                                                                     \
  BENCHMARK_TEMPLATE_F(ReadCost, Bracket_##SCHEME, mp::smr::SCHEME)     \
  (benchmark::State & state) {                                          \
    for (auto _ : state) {                                              \
      scheme->start_op(0);                                              \
      scheme->end_op(0);                                                \
    }                                                                   \
    state.SetItemsProcessed(state.iterations());                        \
  }

READ_COST_BENCH(Leaky)
READ_COST_BENCH(EBR)
READ_COST_BENCH(IBR)
READ_COST_BENCH(HE)
READ_COST_BENCH(HP)
READ_COST_BENCH(MP)
READ_COST_BENCH(DTA)
READ_COST_BENCH(Hyaline)
READ_COST_BENCH(Stampit)

}  // namespace

// benchmark_main with a default JSON report destination injected when the
// caller didn't pick one.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_read_cost.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
