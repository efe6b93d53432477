#include "exp/artifacts.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exp/report.hpp"
#include "golden.hpp"
#include "sim/gantt.hpp"

namespace cloudwf::exp {
namespace {

const char* const kDigestPath = CLOUDWF_TEST_DATA_DIR "/artifacts.golden.digest";

// The bundle behind `cloudwf artifacts` (Table II, Figs. 3-5, Tables
// III-V and the full grid) is pinned byte for byte: every file's name and
// content, in manifest order, hash into one committed digest.
TEST(Artifacts, WritesEveryExpectedFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cloudwf_artifacts_test";
  std::filesystem::remove_all(dir);

  const ExperimentRunner runner;
  const ArtifactManifest manifest = write_reproduction_artifacts(dir, runner);

  const std::vector<std::string> expected = {
      "fig3_pareto_cdf.dat",
      "fig4_montage.dat", "fig4_montage.gp",
      "fig5_montage.dat", "fig5_montage.gp",
      "fig4_sequential.dat",
      "table2_platform.txt",
      "table3_classification.txt",
      "table4_savings_fluctuation.txt",
      "table5_summary.txt",
      "results_grid.csv",
      "results_grid.json",
      "MANIFEST.txt",
  };
  for (const std::string& name : expected) {
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
    EXPECT_GT(std::filesystem::file_size(dir / name), 0u) << name;
  }
  // 1 + 4*4 + 4 tables + 2 grids + manifest = 24 files.
  EXPECT_EQ(manifest.files.size(), 24u);

  // The JSON grid parses structurally: starts with [ and mentions every
  // workflow and 19*3*4 entries' worth of strategies.
  std::ifstream json(dir / "results_grid.json");
  std::string content((std::istreambuf_iterator<char>(json)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content.back(), ']');
  EXPECT_NE(content.find("\"workflow\":\"montage\""), std::string::npos);
  EXPECT_NE(content.find("\"scenario\":\"worst-case\""), std::string::npos);

  golden::Fnv1a digest;
  for (const std::string& name : manifest.files) {
    std::ifstream file(dir / name, std::ios::binary);
    std::ostringstream bytes;
    bytes << file.rdbuf();
    digest.add(name).add(std::string_view("\0", 1)).add(bytes.str());
  }
  std::filesystem::remove_all(dir);
  golden::expect_digest(kDigestPath, digest.hex(), "the artifact bundle");
}

TEST(ResultsJson, WellFormedPerRun) {
  const ExperimentRunner runner;
  const auto results = runner.run_all(paper_workflows()[3],  // sequential
                                      workload::ScenarioKind::best_case);
  const std::string json = results_json(results);
  // 19 objects.
  std::size_t objects = 0;
  for (std::size_t i = 0; i + 10 < json.size(); ++i)
    if (json.compare(i, 12, "\"strategy\":\"") == 0) ++objects;
  EXPECT_EQ(objects, 19u);
  EXPECT_NE(json.find("\"gain_pct\":"), std::string::npos);
  EXPECT_NE(json.find("\"btus\":"), std::string::npos);
}

TEST(GanttSvg, ProducesValidLookingSvg) {
  const ExperimentRunner runner;
  const dag::Workflow wf =
      runner.materialize(paper_workflows()[1], workload::ScenarioKind::pareto);
  const sim::Schedule s =
      scheduling::reference_strategy().scheduler->run(wf, runner.platform());
  const std::string svg = sim::render_gantt_svg(wf, s);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<title>init"), std::string::npos);  // task tooltip
  // One lane label per used VM.
  std::size_t lanes = 0;
  for (std::size_t i = 0; i + 3 < svg.size(); ++i)
    if (svg.compare(i, 3, ">VM") == 0) ++lanes;
  EXPECT_EQ(lanes, s.pool().used_count());
}

}  // namespace
}  // namespace cloudwf::exp
