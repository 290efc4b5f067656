// Seeded corpus generators, one per corpus shape.  Each is a pure
// function of its parameters: the same seed writes the same bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "logging/log_bundle.hpp"

namespace sdbench {

// --- shape 1: simulated TPC-H traces -----------------------------------------
//
// The simulator's own logs — rm.log, one file per NodeManager, one driver
// and `executors` executor files per query: the paper's collection shape
// of many small streams.  Submissions follow the bursty lognormal trace
// generator; query i runs TPC-H query 1 + i % 22.

struct TpchTrace {
  std::int32_t queries = 2000;
  double input_mb = 2048;
  std::int32_t executors = 4;
  std::uint64_t seed = 1;
};

[[nodiscard]] sdc::harness::ScenarioResult simulate_tpch(
    const TpchTrace& trace);

/// Writes `corpora` simulated corpora as `root/corpusNNN`: 3-7 queries
/// each (exponentially skewed towards 3), 1-4 GB inputs, 2-4 executors.
void write_fleet(const std::filesystem::path& root, std::size_t corpora,
                 std::uint64_t seed);

/// A simulated corpus in the order a live cluster would write it: lines of
/// all files merged by timestamp (a stream's running maximum, so each
/// file keeps its own line order).
struct Replay {
  std::vector<std::string> files;
  std::vector<std::uint32_t> file_of;
  std::vector<std::string> lines;
};

[[nodiscard]] Replay replay_order(const sdc::logging::LogBundle& logs);
void save_replay(const std::filesystem::path& file, const Replay& replay);
[[nodiscard]] Replay load_replay(const std::filesystem::path& file);

// --- shape 2: dense RM -------------------------------------------------------
//
// A synthetic collection with few huge streams: rm.log carries ~70% of the
// lines, 8 NM files ~20%, and 24 instrumented apps a driver and two
// executor files each (81 streams).  Every RM app logs its eight Table-I
// transitions and then scheduler noise, so with `apps` far below the line
// count most lines are parseable noise and the per-line scan / parse /
// extract path dominates, not finalize.

struct DenseRm {
  std::size_t lines = 2'000'000;
  std::size_t apps = 2000;
  std::uint64_t seed = 1;
};

void write_dense_rm(const std::filesystem::path& dir, const DenseRm& shape);

}  // namespace sdbench
