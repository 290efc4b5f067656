// Ablation benches for the design decisions called out in DESIGN.md §5:
//
//   * parallel log mining — `analyze` at 1–8 threads, each file split
//     into byte-range chunks (runs of small files grouped) mined on one
//     pool (SDchecker-side scalability as clusters/log volumes grow)
//   * log4j line parsing throughput (hand-rolled vs the std::regex the
//     paper's description implies — we keep the regex variant here as the
//     baseline to justify the hand-rolled parser)
//   * discrete-event engine throughput (the simulator's own cost)
//   * per-stage hot-path kernels — the mining pipeline decomposed into
//     scan (newline split), parse, pre-filter and extract, so a
//     regression localizes to one stage
#include <regex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "logging/line_reader.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/parsed_line.hpp"
#include "simcore/engine.hpp"

namespace {

using namespace sdc;

const logging::LogBundle& big_bundle() {
  static const logging::LogBundle bundle = [] {
    harness::ScenarioConfig scenario;
    scenario.seed = 160;
    benchutil::add_tpch_trace(scenario, 300, 2048, 4);
    return harness::run_scenario(scenario).logs;
  }();
  return bundle;
}

/// The whole corpus as one newline-joined buffer — what the chunk
/// readers' line splitter sees, block by block.
const std::string& flat_text() {
  static const std::string text = [] {
    std::string out;
    const auto& bundle = big_bundle();
    for (const std::string& name : bundle.stream_names()) {
      for (const std::string& line : bundle.lines(name)) {
        out += line;
        out += '\n';
      }
    }
    return out;
  }();
  return text;
}

/// Pre-parsed corpus lines (the extract-stage input), with parse
/// failures dropped.
const std::vector<checker::ParsedLine>& parsed_corpus() {
  static const std::vector<checker::ParsedLine> parsed = [] {
    std::vector<checker::ParsedLine> out;
    const auto& bundle = big_bundle();
    for (const std::string& name : bundle.stream_names()) {
      for (const std::string& line : bundle.lines(name)) {
        if (auto p = checker::parse_line(line)) out.push_back(*p);
      }
    }
    return out;
  }();
  return parsed;
}

void experiment() {
  benchutil::print_header("Ablations: mining parallelism, parser, engine",
                          "DESIGN.md §5 (not a paper figure)");
  const auto& bundle = big_bundle();
  std::printf("  corpus: %zu streams, %zu lines\n", bundle.stream_count(),
              bundle.total_lines());
  std::printf("  (timings below, via google-benchmark)\n");
}

void BM_MineThreads(benchmark::State& state) {
  const auto& bundle = big_bundle();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker::SdChecker({.threads = threads}).analyze(bundle).events_total);
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(big_bundle().total_lines() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MineThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- per-stage hot-path kernels ---------------------------------------------
// The mining pipeline, one stage per kernel: a throughput regression in
// `BM_MineThreads` localizes to scan, parse, pre-filter or extract.

void BM_ScanStage(benchmark::State& state) {
  // Newline split over the flattened corpus in read-block pieces — the
  // chunk readers' `LineSplitter`.
  const std::string_view text = flat_text();
  for (auto _ : state) {
    std::size_t lines = 0;
    logging::LineSplitter splitter;
    for (std::size_t at = 0; at < text.size(); at += logging::kReadBlock) {
      splitter.split(text.substr(at, logging::kReadBlock),
                     [&lines](std::string_view) { ++lines; });
    }
    benchmark::DoNotOptimize(lines);
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(text.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScanStage)->Unit(benchmark::kMillisecond);

void BM_ParseStage(benchmark::State& state) {
  // Line parse (timestamp + level + class + message) over the whole
  // corpus, pre-split so only `parse_line` is measured.
  std::vector<std::string_view> lines;
  logging::LineSplitter splitter;
  splitter.split(flat_text(),
                 [&lines](std::string_view line) { lines.push_back(line); });
  for (auto _ : state) {
    std::size_t parsed = 0;
    for (const std::string_view line : lines) {
      if (checker::parse_line(line)) ++parsed;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(lines.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParseStage)->Unit(benchmark::kMillisecond);

void BM_PrefilterStage(benchmark::State& state) {
  // The (message length) cheap-reject the extractor applies before any
  // class dispatch — how much of the corpus it discards for free.
  const auto& parsed = parsed_corpus();
  const std::size_t shortest = checker::min_rule_message_len();
  for (auto _ : state) {
    std::size_t skipped = 0;
    for (const checker::ParsedLine& line : parsed) {
      skipped += line.message.size() < shortest ? 1 : 0;
    }
    benchmark::DoNotOptimize(skipped);
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(parsed.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrefilterStage)->Unit(benchmark::kMillisecond);

void BM_ExtractStage(benchmark::State& state) {
  // Class dispatch + rule matching + id extraction into a columnar
  // batch, on pre-parsed lines (scan and parse excluded).
  const auto& parsed = parsed_corpus();
  for (auto _ : state) {
    checker::EventBatch batch;
    for (const checker::ParsedLine& line : parsed) {
      checker::extract_event_into(line, batch);
    }
    benchmark::DoNotOptimize(batch.size());
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(parsed.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExtractStage)->Unit(benchmark::kMillisecond);

void BM_ParseLineHandRolled(benchmark::State& state) {
  const std::string line =
      "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0007 State "
      "change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED";
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::parse_line(line));
  }
}
BENCHMARK(BM_ParseLineHandRolled);

void BM_ParseLineStdRegex(benchmark::State& state) {
  // The baseline a regex-first implementation (as the paper describes)
  // would pay per line.
  static const std::regex pattern(
      R"((\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3}) (\w+) +([\w.$]+): (.*))");
  const std::string line =
      "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0007 State "
      "change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED";
  for (auto _ : state) {
    std::smatch match;
    benchmark::DoNotOptimize(std::regex_match(line, match, pattern));
  }
}
BENCHMARK(BM_ParseLineStdRegex);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10'000; ++i) {
      engine.schedule_at(millis(i % 997), [&sum] { ++sum; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["events/s"] = benchmark::Counter(
      10'000.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

void BM_EndToEndScenario(benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig scenario;
    scenario.seed = 161;
    benchutil::add_tpch_trace(scenario, static_cast<std::int32_t>(state.range(0)),
                              2048, 4);
    benchmark::DoNotOptimize(harness::run_scenario(scenario).events_executed);
  }
}
BENCHMARK(BM_EndToEndScenario)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return sdc::benchutil::bench_main(argc, argv, experiment);
}
