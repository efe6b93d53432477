// Cross-version golden pin of the sweep grid's output. The differential and
// the flat-core suites compare the optimized code paths with references
// built from the same tree, so a change that moves both at once passes
// them. This test instead hashes the canonical sweep table of a fixed grid
// — the five Pegasus families at 1000 tasks, every scenario kind, seeds
// 0-1, all 19 paper strategies (1,330 rows) — and compares the digest with
// one committed next to this file. Any change in any row fails it.
// Regenerate deliberately with: CLOUDWF_UPDATE_GOLDEN=1 ./test_integration
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "exp/sweep_grid.hpp"
#include "scheduling/factory.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::exp {
namespace {

const char* const kDigestPath = CLOUDWF_TEST_DATA_DIR "/sweep_grid.golden.digest";

/// FNV-1a, 64 bit, as 16 lowercase hex digits.
std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

TEST(SweepGolden, PegasusFamiliesAt1000TasksArePinned) {
  SweepGridSpec grid;
  grid.workflows = {"epigenomics:1000", "cybershake:1000", "ligo:1000",
                    "sipht:1000", "montage:1000"};
  grid.scenarios.assign(workload::kAllScenarioKinds.begin(),
                        workload::kAllScenarioKinds.end());
  grid.strategies = scheduling::paper_strategy_labels();
  grid.seed_begin = 0;
  grid.seed_end = 1;
  ASSERT_EQ(grid.cell_count(), 1330u);

  const cloud::Platform platform = cloud::Platform::ec2();
  const std::string table = sweep_table(grid, run_grid_serial(grid, platform));
  const std::string actual = fnv1a_hex(table);

  if (std::getenv("CLOUDWF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kDigestPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kDigestPath;
    out << actual << '\n';
    GTEST_SKIP() << "golden digest regenerated at " << kDigestPath;
  }

  std::ifstream in(kDigestPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden digest " << kDigestPath
                  << " — regenerate with CLOUDWF_UPDATE_GOLDEN=1";
  std::string expected;
  in >> expected;
  EXPECT_EQ(actual, expected)
      << "the sweep table changed; if that is deliberate, regenerate with "
         "CLOUDWF_UPDATE_GOLDEN=1 and say why in CHANGES.md";
}

}  // namespace
}  // namespace cloudwf::exp
