// JSON layer and bench-report schema:
//   * json::Value writer/parser round-trip, including string escaping and
//     exact uint64 numbers beyond 2^53;
//   * validate_report over in-process BenchReport documents and over the
//     BENCH_*.json reports committed at the repo root;
//   * golden-file check: spawn a real bench binary (fig5_fences) with tiny
//     parameters and validate the BENCH_*.json it writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/report.hpp"
#include "svc/resilience.hpp"  // StatusCounts for the service row tests

namespace {

using mp::obs::BenchReport;
using mp::obs::validate_report;
namespace json = mp::obs::json;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A current-version document holding the one row.
json::Value doc_with_row(json::Value row) {
  json::Value rows = json::Value::array();
  rows.push_back(std::move(row));
  json::Value doc = json::Value::object();
  doc["schema"] = mp::obs::kReportSchema;
  doc["version"] = mp::obs::kReportVersion;
  doc["bench"] = "unit_test";
  doc["config"] = json::Value::object();
  doc["rows"] = rows;
  return doc;
}

TEST(JsonTest, RoundTripPreservesStructureAndExactIntegers) {
  json::Value doc = json::Value::object();
  doc["u64"] = std::uint64_t{9223372036854775809ull};  // > 2^53 and > 2^63-1
  doc["pi"] = 3.25;
  doc["yes"] = true;
  doc["nothing"] = nullptr;
  doc["name"] = "marginptr";
  json::Value arr = json::Value::array();
  arr.push_back(std::uint64_t{1});
  arr.push_back("two");
  doc["list"] = arr;

  for (const int indent : {0, 2}) {
    const json::Value parsed = json::parse(doc.dump(indent));
    EXPECT_EQ(parsed.find("u64")->as_uint(), 9223372036854775809ull)
        << "uint64 must round-trip exactly, not via double";
    EXPECT_DOUBLE_EQ(parsed.find("pi")->as_double(), 3.25);
    EXPECT_TRUE(parsed.find("yes")->as_bool());
    EXPECT_TRUE(parsed.find("nothing")->is_null());
    EXPECT_EQ(parsed.find("name")->as_string(), "marginptr");
    const auto& list = parsed.find("list")->as_array();
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0].as_uint(), 1u);
    EXPECT_EQ(list[1].as_string(), "two");
  }
}

TEST(JsonTest, StringEscapingRoundTrips) {
  json::Value doc = json::Value::object();
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
  doc["s"] = nasty;
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0007"), std::string::npos);
  EXPECT_EQ(json::parse(text).find("s")->as_string(), nasty);
}

TEST(JsonTest, ParserRejectsGarbage) {
  EXPECT_THROW(json::parse("{\"unterminated\": "), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::parse("nulll"), std::runtime_error);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  json::Value doc = json::Value::object();
  doc["z"] = 1;
  doc["a"] = 2;
  const std::string text = doc.dump();
  EXPECT_LT(text.find("\"z\""), text.find("\"a\""));
}

TEST(ReportTest, EmptyReportValidates) {
  BenchReport report("unit_test", "/dev/null");
  EXPECT_EQ(validate_report(report.document()), "");
}

TEST(ReportTest, FullRowValidates) {
  BenchReport report("unit_test", "/dev/null");
  report.config()["size"] = 100;

  mp::smr::StatsSnapshot stats;
  stats.retires = 7;
  json::Value row = json::Value::object();
  row["figure"] = "fig0";
  row["scheme"] = "MP";
  row["stats"] = mp::obs::to_json(stats);
  row["waste"] = mp::obs::waste_json(1234, stats.peak_retired);
  mp::obs::LatencyHistogram hist;
  hist.record(100);
  json::Value latency = json::Value::object();
  latency["contains"] = mp::obs::to_json(hist);
  row["latency_ns"] = latency;
  report.add_row(std::move(row));

  const json::Value doc = report.document();
  EXPECT_EQ(validate_report(doc), "");
  // And the serialized form parses back to a valid document.
  EXPECT_EQ(validate_report(json::parse(doc.dump(2))), "");
}

TEST(ReportTest, OnlyTheCurrentVersionValidates) {
  json::Value row = json::Value::object();
  row["figure"] = "fig0";
  row["scheme"] = "MP";
  row["stats"] = mp::obs::to_json(mp::smr::StatsSnapshot{});
  json::Value doc = doc_with_row(row);
  EXPECT_EQ(validate_report(doc), "");
  for (std::uint64_t version = 0; version <= mp::obs::kReportVersion + 1;
       ++version) {
    if (version == mp::obs::kReportVersion) continue;
    doc["version"] = version;
    EXPECT_NE(validate_report(doc), "") << "version " << version;
  }
  doc["version"] = "8";
  EXPECT_NE(validate_report(doc), "") << "a non-numeric version";
}

TEST(ReportTest, EveryStatsCounterIsRequired) {
  const json::Value stats = mp::obs::to_json(mp::smr::StatsSnapshot{});
  for (const auto& [missing, unused] : stats.as_object()) {
    json::Value pruned = json::Value::object();
    for (const auto& [key, value] : stats.as_object()) {
      if (key != missing) pruned[key] = value;
    }
    json::Value row = json::Value::object();
    row["figure"] = "fig0";
    row["scheme"] = "MP";
    row["stats"] = pruned;
    EXPECT_NE(validate_report(doc_with_row(row)), "")
        << "stats without '" << missing << "'";
  }
}

TEST(ReportTest, VersionFiveShardAndSloRowsValidate) {
  BenchReport report("svc_unit", "/dev/null");
  mp::smr::StatsSnapshot stats;
  stats.retires = 3;
  json::Value row = json::Value::object();
  row["figure"] = "svc_closed_loop";
  row["scheme"] = "EBR";
  row["stats"] = mp::obs::to_json(stats);
  json::Value shards = json::Value::array();
  for (std::size_t s = 0; s < 4; ++s) {
    shards.push_back(mp::obs::shard_json(s, stats, 1234));
  }
  row["shards"] = shards;
  json::Value slo = json::Value::object();
  slo["p99_slo_ns"] = std::uint64_t{2000000};
  slo["met"] = true;
  row["slo"] = slo;
  report.add_row(std::move(row));
  const json::Value doc = report.document();
  EXPECT_EQ(validate_report(doc), "");
  EXPECT_EQ(validate_report(json::parse(doc.dump(2))), "");
}

TEST(ReportTest, VersionSixStatusCountsAndHealthRoundTrip) {
  BenchReport report("svc_resilience_unit", "/dev/null");
  mp::svc::StatusCounts counts;
  counts.ok = 10;
  counts.rejected = 3;
  counts.shed_write = 1;
  json::Value row = json::Value::object();
  row["figure"] = "svc_overload";
  row["scheme"] = "EBR";
  row["stats"] = mp::obs::to_json(mp::smr::StatsSnapshot{});
  row["status_counts"] = mp::obs::status_counts_json(counts);
  json::Value shards = json::Value::array();
  json::Value entry = mp::obs::shard_json(0, mp::smr::StatsSnapshot{}, 100);
  entry["health"] = mp::obs::health_json("degraded", 2, 1, 1);
  shards.push_back(entry);
  row["shards"] = shards;
  report.add_row(std::move(row));

  const json::Value doc = report.document();
  EXPECT_EQ(doc.find("version")->as_uint(), mp::obs::kReportVersion);
  EXPECT_EQ(validate_report(doc), "");
  // The serialized form parses back to a valid document with the tallies
  // intact.
  const json::Value parsed = json::parse(doc.dump(2));
  EXPECT_EQ(validate_report(parsed), "");
  const json::Value* round =
      parsed.find("rows")->as_array()[0].find("status_counts");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->find("ok")->as_uint(), 10u);
  EXPECT_EQ(round->find("rejected")->as_uint(), 3u);
  EXPECT_EQ(round->find("shed_write")->as_uint(), 1u);
  const json::Value* health =
      parsed.find("rows")->as_array()[0].find("shards")->as_array()[0].find(
          "health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->find("state")->as_string(), "degraded");
  EXPECT_EQ(health->find("degraded_enters")->as_uint(), 2u);
}

TEST(ReportTest, VersionSevenTailFieldsRoundTrip) {
  // A current report carries the deamortization counters, the scan_quantum
  // config arm, and per-histogram p100 — and survives a serialize/parse
  // round trip with the tail fields intact.
  BenchReport report("latency_pauses_unit", "/dev/null");
  mp::smr::Config config;
  config.scan_quantum = 32;
  report.config()["smr"] = mp::obs::to_json(config);

  mp::smr::StatsSnapshot stats;
  stats.scan_increments = 17;
  stats.cursor_carryover = 5;
  stats.max_pause_ns = 12345;
  mp::obs::LatencyHistogram hist;
  hist.record(100);
  hist.record(90000);
  json::Value latency = json::Value::object();
  latency["get"] = mp::obs::to_json(hist);
  json::Value row = json::Value::object();
  row["figure"] = "pause_ab";
  row["scheme"] = "MP";
  row["stats"] = mp::obs::to_json(stats);
  row["latency_ns"] = latency;
  report.add_row(std::move(row));

  const json::Value doc = report.document();
  EXPECT_EQ(doc.find("version")->as_uint(), mp::obs::kReportVersion);
  EXPECT_EQ(validate_report(doc), "");
  const json::Value parsed = json::parse(doc.dump(2));
  EXPECT_EQ(validate_report(parsed), "");
  const json::Value& round = parsed.find("rows")->as_array()[0];
  EXPECT_EQ(round.find("stats")->find("scan_increments")->as_uint(), 17u);
  EXPECT_EQ(round.find("stats")->find("cursor_carryover")->as_uint(), 5u);
  EXPECT_EQ(round.find("stats")->find("max_pause_ns")->as_uint(), 12345u);
  const json::Value* get_hist = round.find("latency_ns")->find("get");
  ASSERT_NE(get_hist, nullptr);
  // p100 is an alias of max, pinned equal by construction.
  EXPECT_EQ(get_hist->find("p100")->as_uint(),
            get_hist->find("max")->as_uint());
  EXPECT_EQ(parsed.find("config")
                ->find("smr")
                ->find("scan_quantum")
                ->as_uint(),
            32u);
}

TEST(ReportTest, ValidatorFlagsMissingTailFieldsAtVersionSeven) {
  {  // a histogram without p100
    json::Value hist = json::Value::object();
    for (const char* key :
         {"count", "mean", "max", "p50", "p90", "p99", "p999"}) {
      hist[key] = std::uint64_t{1};
    }
    json::Value latency = json::Value::object();
    latency["get"] = hist;
    json::Value row = json::Value::object();
    row["figure"] = "pause_ab";
    row["scheme"] = "MP";
    row["latency_ns"] = latency;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // p100 present but non-numeric
    json::Value hist = mp::obs::to_json(mp::obs::LatencyHistogram{});
    hist["p100"] = "huge";
    json::Value latency = json::Value::object();
    latency["tail"] = hist;
    json::Value row = json::Value::object();
    row["figure"] = "pause_ab";
    row["scheme"] = "MP";
    row["latency_ns"] = latency;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
}

TEST(ReportTest, VersionEightCapabilityFlags) {
  // Rows may carry the scheme's compile-time capability flags
  // (capability-split API, DESIGN.md §13); when present all three flags
  // must be booleans.
  json::Value caps = json::Value::object();
  caps["snapshot_free"] = true;
  caps["bounded_waste"] = false;
  caps["robust"] = false;
  json::Value row = json::Value::object();
  row["figure"] = "fig4";
  row["scheme"] = "Hyaline";
  row["capabilities"] = caps;

  EXPECT_EQ(validate_report(doc_with_row(row)), "");
  const json::Value parsed = json::parse(doc_with_row(row).dump(2));
  EXPECT_EQ(validate_report(parsed), "");
  const json::Value& round = parsed.find("rows")->as_array()[0];
  EXPECT_TRUE(round.find("capabilities")->find("snapshot_free")->as_bool());
  EXPECT_FALSE(round.find("capabilities")->find("bounded_waste")->as_bool());

  {  // capabilities must be an object
    json::Value bad = row;
    bad["capabilities"] = json::Value::array();
    EXPECT_NE(validate_report(doc_with_row(bad)), "");
  }
  {  // missing one of the three flags
    json::Value pruned = json::Value::object();
    pruned["snapshot_free"] = true;
    pruned["bounded_waste"] = false;  // no "robust"
    json::Value bad = row;
    bad["capabilities"] = pruned;
    EXPECT_NE(validate_report(doc_with_row(bad)), "");
  }
  {  // a flag that is not a boolean
    json::Value nonbool = caps;
    nonbool["robust"] = std::uint64_t{1};
    json::Value bad = row;
    bad["capabilities"] = nonbool;
    EXPECT_NE(validate_report(doc_with_row(bad)), "");
  }
}

TEST(ReportTest, ValidatorFlagsMalformedStatusCountsAndHealth) {
  json::Value base = json::Value::object();
  base["figure"] = "svc_overload";
  base["scheme"] = "EBR";

  {  // status_counts must be an object
    json::Value row = base;
    row["status_counts"] = json::Value::array();
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // status_counts missing one of the six tallies
    json::Value counts = json::Value::object();
    for (const char* key :
         {"ok", "not_found", "alloc_failed", "deadline_exceeded",
          "rejected"}) {  // no "shed_write"
      counts[key] = std::uint64_t{0};
    }
    json::Value row = base;
    row["status_counts"] = counts;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // health without a state name
    json::Value health = json::Value::object();
    health["degraded_enters"] = std::uint64_t{0};
    health["shed_enters"] = std::uint64_t{0};
    health["recoveries"] = std::uint64_t{0};
    json::Value entry = mp::obs::shard_json(0, mp::smr::StatsSnapshot{}, 10);
    entry["health"] = health;
    json::Value shards = json::Value::array();
    shards.push_back(entry);
    json::Value row = base;
    row["shards"] = shards;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // health counters must be numeric
    json::Value health = mp::obs::health_json("shedding", 0, 0, 0);
    health["recoveries"] = "many";
    json::Value entry = mp::obs::shard_json(0, mp::smr::StatsSnapshot{}, 10);
    entry["health"] = health;
    json::Value shards = json::Value::array();
    shards.push_back(entry);
    json::Value row = base;
    row["shards"] = shards;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
}

TEST(ReportTest, ValidatorFlagsMalformedShardAndSloSections) {
  json::Value base = json::Value::object();
  base["figure"] = "svc_closed_loop";
  base["scheme"] = "EBR";

  {  // shards entry without a shard index
    json::Value entry = json::Value::object();
    entry["stats"] = mp::obs::to_json(mp::smr::StatsSnapshot{});
    json::Value shards = json::Value::array();
    shards.push_back(entry);
    json::Value row = base;
    row["shards"] = shards;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // shards entry without stats
    json::Value entry = json::Value::object();
    entry["shard"] = std::uint64_t{0};
    json::Value shards = json::Value::array();
    shards.push_back(entry);
    json::Value row = base;
    row["shards"] = shards;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // shards entry whose stats lack the table's counters
    json::Value entry = json::Value::object();
    entry["shard"] = std::uint64_t{0};
    entry["stats"] = json::Value::object();  // empty counters
    json::Value shards = json::Value::array();
    shards.push_back(entry);
    json::Value row = base;
    row["shards"] = shards;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // shards must be an array
    json::Value row = base;
    row["shards"] = json::Value::object();
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // slo without its target
    json::Value slo = json::Value::object();
    slo["met"] = true;
    json::Value row = base;
    row["slo"] = slo;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
  {  // slo "met" must be a bool
    json::Value slo = json::Value::object();
    slo["p99_slo_ns"] = std::uint64_t{1000};
    slo["met"] = std::uint64_t{1};
    json::Value row = base;
    row["slo"] = slo;
    EXPECT_NE(validate_report(doc_with_row(row)), "");
  }
}

TEST(ReportTest, CurrentReportsCarryLifecycleCounters) {
  BenchReport report("unit_test", "/dev/null");
  json::Value row = json::Value::object();
  row["figure"] = "fig0";
  row["scheme"] = "EBR";
  row["stats"] = mp::obs::to_json(mp::smr::StatsSnapshot{});
  report.add_row(std::move(row));
  const json::Value doc = report.document();
  EXPECT_EQ(doc.find("version")->as_uint(), mp::obs::kReportVersion);
  const json::Value* stats =
      doc.find("rows")->as_array()[0].find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->find("orphaned"), nullptr);
  EXPECT_NE(stats->find("adopted"), nullptr);
  EXPECT_NE(stats->find("pool_hits"), nullptr);
  EXPECT_NE(stats->find("pool_misses"), nullptr);
  EXPECT_NE(stats->find("depot_exchanges"), nullptr);
  EXPECT_NE(stats->find("unlinked_frees"), nullptr);
  EXPECT_NE(stats->find("offloaded"), nullptr);
  EXPECT_NE(stats->find("inline_fallbacks"), nullptr);
  EXPECT_NE(stats->find("bg_snapshots"), nullptr);
  EXPECT_NE(stats->find("bg_scans"), nullptr);
  EXPECT_NE(stats->find("peak_inflight"), nullptr);
  EXPECT_EQ(validate_report(doc), "");
}

TEST(ReportTest, ValidatorFlagsMissingFields) {
  BenchReport report("unit_test", "/dev/null");
  json::Value row = json::Value::object();
  row["figure"] = "fig0";  // no "scheme"
  report.add_row(std::move(row));
  EXPECT_NE(validate_report(report.document()), "");

  json::Value not_a_report = json::Value::object();
  not_a_report["schema"] = "something-else";
  EXPECT_NE(validate_report(not_a_report), "");
  EXPECT_NE(validate_report(json::Value::array()), "");
}

TEST(ReportTest, UnboundedWasteSerializesAsNullBound) {
  const json::Value waste = mp::obs::waste_json(mp::smr::kUnboundedWaste, 42);
  EXPECT_FALSE(waste.find("bounded")->as_bool());
  EXPECT_TRUE(waste.find("bound")->is_null());
  EXPECT_TRUE(waste.find("within_bound")->is_null());
  const json::Value bounded = mp::obs::waste_json(100, 42);
  EXPECT_TRUE(bounded.find("bounded")->as_bool());
  EXPECT_EQ(bounded.find("bound")->as_uint(), 100u);
  EXPECT_TRUE(bounded.find("within_bound")->as_bool());
}

TEST(ReportTest, WriteEmitsParseableFile) {
  const std::string path = ::testing::TempDir() + "report_write_test.json";
  {
    BenchReport report("unit_test", path);
    json::Value row = json::Value::object();
    row["figure"] = "fig0";
    row["scheme"] = "HP";
    report.add_row(std::move(row));
    EXPECT_TRUE(report.write());
  }  // destructor write is idempotent
  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(validate_report(doc), "");
  EXPECT_EQ(doc.find("bench")->as_string(), "unit_test");
  std::remove(path.c_str());
}

// Every bench report committed at the repo root is at the current schema
// version, so a stale one fails here. BENCH_micro_read_cost.json is
// google-benchmark's own format, not a bench report.
TEST(ReportTest, CommittedReportsValidate) {
  namespace fs = std::filesystem;
  std::size_t checked = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(MARGINPTR_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json" ||
        name == "BENCH_micro_read_cost.json") {
      continue;
    }
    ++checked;
    EXPECT_EQ(validate_report(json::parse(slurp(entry.path().string()))), "")
        << name;
  }
  EXPECT_GT(checked, 0u) << "no BENCH_*.json under " << MARGINPTR_SOURCE_DIR;
}

#ifdef MARGINPTR_FIG5_BIN
// Golden-file check: a real bench binary, tiny parameters, validated JSON.
TEST(ReportTest, GoldenFig5ReportValidates) {
  const std::string path = ::testing::TempDir() + "golden_fig5.json";
  const std::string command = std::string(MARGINPTR_FIG5_BIN) +
                              " --size=64 --duration-ms=20 --threads=2"
                              " --schemes=MP,HP --json-out=" +
                              path + " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "bench did not write " << path;
  const json::Value doc = json::parse(text);
  EXPECT_EQ(validate_report(doc), "");
  EXPECT_EQ(doc.find("bench")->as_string(), "fig5_fences");
  // fig5 runs 3 structures x 2 schemes.
  const auto& rows = doc.find("rows")->as_array();
  EXPECT_EQ(rows.size(), 6u);
  for (const json::Value& row : rows) {
    EXPECT_EQ(row.find("figure")->as_string(), "fig5");
    ASSERT_NE(row.find("latency_ns"), nullptr);
    const json::Value* contains = row.find("latency_ns")->find("contains");
    ASSERT_NE(contains, nullptr);
    EXPECT_GT(contains->find("count")->as_uint(), 0u)
        << "read-only workload must record contains latencies";
  }
}
#endif  // MARGINPTR_FIG5_BIN

}  // namespace
