/**
 * @file
 * Tests for the analysis-report renderer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "parser/parser.hh"
#include "report/report.hh"
#include "support/string_utils.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

TEST(Report, ReuseSummaryListsEverySet)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 16
  do i = 1, 16
    a(j) = a(j) + b(i) * c(i + j)
  end do
end do
)");
    std::string summary = reuseSummary(nest);
    EXPECT_NE(summary.find("a "), std::string::npos);
    EXPECT_NE(summary.find("b "), std::string::npos);
    EXPECT_NE(summary.find("c "), std::string::npos);
    EXPECT_NE(summary.find("inner-invariant"), std::string::npos);
    EXPECT_NE(summary.find("[not SIV separable]"), std::string::npos);
}

TEST(Report, FullReportContainsDecisionAndTables)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    OptimizerConfig config;
    config.useCacheModel = false;
    std::string report =
        analysisReport(nest, MachineModel::hpPa7100(), config);
    EXPECT_NE(report.find("analysis report"), std::string::npos);
    EXPECT_NE(report.find("bM = 0.500"), std::string::npos);
    EXPECT_NE(report.find("unroll tables"), std::string::npos);
    EXPECT_NE(report.find("safety bounds"), std::string::npos);
    EXPECT_NE(report.find("unroll=(1, 0)"), std::string::npos);
}

TEST(Report, HandlesDegenerateNest)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 8
  a(i) = 0.0
end do
)");
    std::string report =
        analysisReport(nest, MachineModel::decAlpha21064());
    EXPECT_NE(report.find("left unchanged"), std::string::npos);
}

TEST(Report, RendersForTheWholeSuite)
{
    // Smoke coverage: every suite loop must render without throwing.
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        ReportOptions options;
        options.maxUnrollShown = 2;
        std::string report = analysisReport(
            program.nests()[0], MachineModel::decAlpha21064(), {},
            options);
        EXPECT_GT(report.size(), 100u) << loop.name;
    }
}

/** @return The bL cell of the report's table row for u ("" if none). */
std::string
balanceCell(const std::string &report, const IntVector &u)
{
    std::istringstream lines(report);
    const std::string row = padLeft(u.toString(), 12);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind(row, 0) == 0)
            return line.substr(line.find_last_of(' ') + 1);
    }
    return "";
}

TEST(Report, BalanceColumnMatchesTheDecision)
{
    // The bL column prices each row as the search does, at the
    // machine's line size: on the wide machine's 8-element lines the
    // decision's row reads its predicted balance and the zero row the
    // original balance.
    MachineModel wide = MachineModel::wideIlp();
    ReportOptions options;
    options.maxUnrollShown = OptimizerConfig{}.maxUnroll; // every row
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        const LoopNest &nest = program.nests()[0];
        std::string report = analysisReport(nest, wide, {}, options);
        UnrollDecision decision = chooseUnrollAmounts(nest, wide);
        EXPECT_EQ(balanceCell(report, decision.unroll),
                  formatFixed(decision.predictedBalance, 3))
            << loop.name;
        EXPECT_EQ(balanceCell(report, IntVector(nest.depth())),
                  formatFixed(decision.originalBalance, 3))
            << loop.name;
    }
}

} // namespace
} // namespace ujam
