// The generator child: writes one workload's seeded inputs and the serial
// (T=1) reference outputs the measuring child is checked against.  Its
// wall time is bench.gen_s — where simulator (simcore/yarn/spark) cost
// shows, outside every gated metric.
#include <unistd.h>

#include <cmath>
#include <stdexcept>

#include "corpus.hpp"
#include "sdbench.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/fleet.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdbench {

namespace {

/// The T=1 serial analyze every T-thread run must match byte for byte.
void reference(const fs::path& corpus, Record& gen) {
  const sdc::checker::AnalysisResult result =
      sdc::checker::SdChecker({.threads = 1, .analyze_shards = 1})
          .analyze_directory(corpus);
  const std::string document = sdc::checker::analysis_json(result);
  gen.text["ref_digest"] = digest(document);
  gen.num["lines"] = static_cast<double>(result.lines_total);
}

void record_tree(const fs::path& dir, Record& gen) {
  const TreeSize size = tree_size(dir);
  gen.num["files"] = static_cast<double>(size.files);
  gen.num["bytes"] = static_cast<double>(size.bytes);
}

}  // namespace

int generate(const Config& config) {
  const Sizes& sizes = config.sizes;
  Record gen;
  if (config.workload == "collection") {
    const fs::path corpus = config.dir / "corpus";
    const sdc::harness::ScenarioResult sim =
        simulate_tpch({sizes.collection_queries, 2048, 4, config.seed});
    if (sim.hit_time_cap) {
      throw std::runtime_error("simulation hit its time cap");
    }
    sim.logs.write_to_directory(corpus);
    gen.num["jobs"] = static_cast<double>(sim.jobs.size());
    reference(corpus, gen);
    record_tree(corpus, gen);
  } else if (config.workload == "dense-rm") {
    const fs::path corpus = config.dir / "corpus";
    write_dense_rm(corpus, {sizes.dense_lines, sizes.dense_apps, config.seed});
    reference(corpus, gen);
    record_tree(corpus, gen);
  } else if (config.workload == "fleet") {
    const fs::path root = config.dir / "root";
    write_fleet(root, sizes.fleet_corpora, config.seed);
    // Each corpus's standalone analyze: the fleet's per-corpus parity
    // reference (fleet output must be byte-identical to it).
    std::string digests;
    double lines = 0;
    for (const fs::path& corpus : sdc::checker::discover_corpora(root)) {
      const sdc::checker::AnalysisResult result =
          sdc::checker::SdChecker().analyze_directory(corpus);
      digests += digest(sdc::checker::analysis_json(result));
      lines += static_cast<double>(result.lines_total);
    }
    gen.text["corpus_digests"] = digests;
    gen.num["lines"] = lines;
    record_tree(root, gen);
  } else if (config.workload == "follow-live") {
    // A second trace (seed + 100), sized so the open-loop writer runs for
    // about the measured time.
    const auto queries = static_cast<std::int32_t>(std::max(
        4.0, std::round(sizes.live_queries_per_s * config.seconds)));
    const sdc::harness::ScenarioResult sim =
        simulate_tpch({queries, 2048, 4, config.seed + 100});
    if (sim.hit_time_cap) {
      throw std::runtime_error("simulation hit its time cap");
    }
    const Replay replay = replay_order(sim.logs);
    save_replay(config.dir / "replay.bin", replay);
    fs::create_directories(config.dir / "live");
    fs::create_directories(config.dir / "stage");
    double bytes = 0;
    for (const std::string& line : replay.lines) {
      bytes += static_cast<double>(line.size() + 1);
    }
    gen.num["lines"] = static_cast<double>(replay.lines.size());
    gen.num["files"] = static_cast<double>(replay.files.size());
    gen.num["bytes"] = bytes;
  } else {
    throw std::runtime_error("unknown workload " + config.workload);
  }
  gen.save(config.dir / "gen.json");
  // Write the inputs back now, so no writeback or journal commit of them
  // overlaps the timed runs.
  ::sync();
  return 0;
}

}  // namespace sdbench
