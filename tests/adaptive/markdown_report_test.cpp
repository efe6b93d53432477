#include "adaptive/markdown_report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/table.hpp"

namespace cloudwf::adaptive {
namespace {

TEST(MarkdownReport, ContainsEverySection) {
  const exp::ExperimentRunner runner;
  const std::string report = markdown_report(runner);
  for (const char* heading :
       {"# cloudwf reproduction report", "## Fig. 4", "## Fig. 5",
        "## Table III", "## Table IV", "## Table V", "## (makespan, cost)",
        "## Adaptive advisor"}) {
    EXPECT_NE(report.find(heading), std::string::npos) << heading;
  }
  for (const char* wf : {"montage", "cstem", "mapreduce", "sequential"})
    EXPECT_NE(report.find(wf), std::string::npos) << wf;
  // GFM table syntax present.
  EXPECT_NE(report.find("|---|"), std::string::npos);
}

TEST(MarkdownReport, SectionsToggle) {
  const exp::ExperimentRunner runner;
  MarkdownReportOptions opts;
  opts.include_fig4 = false;
  opts.include_fig5 = false;
  opts.include_pareto_front = false;
  const std::string report = markdown_report(runner, opts);
  EXPECT_EQ(report.find("## Fig. 4"), std::string::npos);
  EXPECT_EQ(report.find("## Fig. 5"), std::string::npos);
  EXPECT_NE(report.find("## Table III"), std::string::npos);
  EXPECT_NE(report.find("## Adaptive advisor"), std::string::npos);
}

// The committed REPORT.md is `cloudwf report` with no options; any change
// to a number in it must come with a regenerated file.
TEST(MarkdownReport, MatchesCommittedReport) {
  const exp::ExperimentRunner runner(cloud::Platform::ec2(),
                                     workload::ScenarioConfig{});
  std::ifstream file(CLOUDWF_REPORT_MD);
  ASSERT_TRUE(file) << CLOUDWF_REPORT_MD;
  std::ostringstream committed;
  committed << file.rdbuf();
  EXPECT_EQ(markdown_report(runner), committed.str());
}

TEST(MarkdownTable, PipesEscaped) {
  util::TextTable t({"col"});
  t.add_row({"a|b"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("a\\|b"), std::string::npos);
}

}  // namespace
}  // namespace cloudwf::adaptive
