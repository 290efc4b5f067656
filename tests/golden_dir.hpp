// Test helper: the committed golden corpus.  CMake passes the source
// tree as SDC_SOURCE_DIR, so tests find the corpus from any build
// directory, inside the checkout or outside it.
#pragma once

#include <filesystem>

namespace sdc::checker {

inline std::filesystem::path golden_small_dir() {
  return std::filesystem::path(SDC_SOURCE_DIR) / "testdata" / "golden_small";
}

}  // namespace sdc::checker
