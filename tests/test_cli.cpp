// Tests for the CLI runner (config -> federation -> report).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/runner.hpp"
#include "core/game_io.hpp"
#include "runtime/outage.hpp"

namespace fedshare::cli {
namespace {

constexpr const char* kPaperConfig =
    "[facility]\n"
    "name = F1\n"
    "locations = 100\n"
    "[facility]\n"
    "name = F2\n"
    "locations = 400\n"
    "[facility]\n"
    "name = F3\n"
    "locations = 800\n"
    "[demand]\n"
    "count = 1\n"
    "min_locations = 500\n";

#ifndef FEDSHARE_SOURCE_DIR
#error "tests/CMakeLists.txt must define FEDSHARE_SOURCE_DIR"
#endif

io::Config config_file(const std::string& relative) {
  std::ifstream in(std::string(FEDSHARE_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in) << "missing " << relative;
  return io::Config::parse(in);
}

// The report minus its Resilience section (heading through the line
// before the next heading, or the end of the report).
std::string without_resilience(const std::string& report) {
  const std::string heading = "\nResilience\n==========\n";
  const auto begin = report.find(heading);
  if (begin == std::string::npos) return report;
  const auto blank = report.find("\n\n", begin + heading.size());
  if (blank == std::string::npos) return report.substr(0, begin);
  return report.substr(0, begin) + report.substr(blank + 1);
}

TEST(CliRunner, BuildsFederationFromConfig) {
  const auto fed = federation_from_config(
      io::Config::parse_string(kPaperConfig));
  EXPECT_EQ(fed.num_facilities(), 3);
  EXPECT_EQ(fed.space().facility(1).name(), "F2");
  EXPECT_EQ(fed.space().facility(2).num_locations(), 800);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].min_locations, 500.0);
}

TEST(CliRunner, ReportContainsPaperNumbers) {
  const std::string report = run_report_from_string(kPaperConfig);
  // Sec. 4.1 coalition values and the Shapley/proportional shares.
  EXPECT_NE(report.find("F1+F2"), std::string::npos);
  EXPECT_NE(report.find("1300"), std::string::npos);
  EXPECT_NE(report.find("shapley"), std::string::npos);
  EXPECT_NE(report.find("0.2179"), std::string::npos);  // phi-hat_2
  EXPECT_NE(report.find("0.3077"), std::string::npos);  // pi-hat_2
  EXPECT_NE(report.find("nucleolus"), std::string::npos);
  EXPECT_NE(report.find("Game properties"), std::string::npos);
}

TEST(CliRunner, DefaultsApplyWhenKeysOmitted) {
  const auto fed = federation_from_config(io::Config::parse_string(
      "[facility]\nlocations = 10\n[demand]\n"));
  EXPECT_EQ(fed.space().facility(0).name(), "F1");  // generated name
  EXPECT_DOUBLE_EQ(fed.space().facility(0).units_per_location(), 1.0);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].count, 1.0);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].exponent, 1.0);
}

TEST(CliRunner, PrecisionOptionChangesOutput) {
  const std::string config = std::string(kPaperConfig) +
                             "[options]\nprecision = 2\n";
  const std::string report = run_report_from_string(config);
  EXPECT_NE(report.find("0.22"), std::string::npos);
  EXPECT_EQ(report.find("0.2179"), std::string::npos);
}

TEST(CliRunner, RejectsMissingSections) {
  EXPECT_THROW((void)run_report_from_string("[demand]\ncount = 1\n"),
               io::ConfigError);
  EXPECT_THROW(
      (void)run_report_from_string("[facility]\nlocations = 5\n"),
      io::ConfigError);
}

TEST(CliRunner, RejectsBadValuesWithConfigError) {
  EXPECT_THROW((void)run_report_from_string(
                   "[facility]\nlocations = -5\n[demand]\n"),
               io::ConfigError);
  EXPECT_THROW((void)run_report_from_string(
                   "[facility]\nlocations = 2.5\n[demand]\n"),
               io::ConfigError);
  // Invalid demand domain surfaces as ConfigError, not a bare
  // invalid_argument.
  EXPECT_THROW((void)run_report_from_string(
                   "[facility]\nlocations = 5\n[demand]\nexponent = -1\n"),
               io::ConfigError);
}

TEST(CliRunner, RangeErrorsPointAtTheOffendingLine) {
  // Negative units on line 3.
  try {
    (void)run_report_from_string(
        "[facility]\nlocations = 5\nunits = -1\n[demand]\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("units"), std::string::npos);
  }
  // Availability outside (0, 1], line 3.
  try {
    (void)run_report_from_string(
        "[facility]\nlocations = 5\navailability = 1.5\n[demand]\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("availability"), std::string::npos);
  }
  EXPECT_THROW(
      (void)run_report_from_string(
          "[facility]\nlocations = 5\navailability = 0\n[demand]\n"),
      io::ConfigError);
  // Negative demand count, line 4.
  try {
    (void)run_report_from_string(
        "[facility]\nlocations = 5\n[demand]\ncount = -2\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos);
  }
  // Non-finite values are rejected by the parser layer.
  EXPECT_THROW((void)run_report_from_string(
                   "[facility]\nlocations = 5\navailability = nan\n"
                   "[demand]\n"),
               io::ConfigError);
}

TEST(CliRunner, RejectsTooManyFacilities) {
  std::string config;
  for (int i = 0; i < 13; ++i) {
    config += "[facility]\nlocations = 2\n";
  }
  config += "[demand]\n";
  EXPECT_THROW((void)run_report_from_string(config), io::ConfigError);
}

TEST(CliRunner, MultipleDemandClassesSupported) {
  const std::string config =
      "[facility]\nlocations = 20\n[facility]\nlocations = 30\n"
      "[demand]\ncount = 5\nmin_locations = 10\n"
      "[demand]\ncount = 2\nmin_locations = 40\nunits = 2\n";
  const auto fed =
      federation_from_config(io::Config::parse_string(config));
  ASSERT_EQ(fed.demand().classes.size(), 2u);
  EXPECT_DOUBLE_EQ(fed.demand().classes[1].units_per_location, 2.0);
}

TEST(CliRunner, ReportIsDeterministic) {
  EXPECT_EQ(run_report_from_string(kPaperConfig),
            run_report_from_string(kPaperConfig));
}

TEST(CliRunner, RegionKeysProduceHierarchySection) {
  const std::string config =
      "[facility]\nname = PLE-core\nlocations = 150\nregion = PLE\n"
      "[facility]\nname = G-Lab\nlocations = 60\nregion = PLE\n"
      "[facility]\nname = PLC\nlocations = 300\n"
      "[demand]\ncount = 5\nmin_locations = 300\n";
  const std::string report = run_report_from_string(config);
  EXPECT_NE(report.find("Hierarchy (Owen value)"), std::string::npos);
  EXPECT_NE(report.find("quotient Shapley share"), std::string::npos);
  EXPECT_NE(report.find("G-Lab"), std::string::npos);
}

TEST(CliRunner, NoRegionKeysNoHierarchySection) {
  const std::string report = run_report_from_string(kPaperConfig);
  EXPECT_EQ(report.find("Hierarchy"), std::string::npos);
}

TEST(CliRunner, DefaultOptionsAreByteIdenticalToThePlainReport) {
  const auto config = io::Config::parse_string(kPaperConfig);
  EXPECT_EQ(run_report(config), run_report(config, ReportOptions{}));
}

TEST(CliRunner, GenerousDeadlineKeepsTheExactEngines) {
  const auto config = io::Config::parse_string(kPaperConfig);
  ReportOptions opts;
  opts.deadline_ms = 60'000.0;
  const std::string report = run_report(config, opts);
  EXPECT_NE(report.find("Resilience"), std::string::npos);
  EXPECT_NE(report.find("coalition table: complete"), std::string::npos);
  EXPECT_NE(report.find("shapley engine: exact"), std::string::npos);
  EXPECT_EQ(report.find("monte-carlo"), std::string::npos);
}

TEST(CliRunner, ExpiredDeadlineStillProducesACompleteReport) {
  // Ten facilities -> 1024 coalition evaluations, comfortably past the
  // budget's 64-charge clock-check window, so a 0 ms deadline trips
  // during tabulation and every downstream stage must degrade.
  std::string config;
  for (int i = 0; i < 10; ++i) {
    config += "[facility]\nlocations = 20\n";
  }
  config += "[demand]\ncount = 4\nmin_locations = 50\n";
  ReportOptions opts;
  opts.deadline_ms = 0.0;
  const std::string report =
      run_report(io::Config::parse_string(config), opts);
  EXPECT_NE(report.find("Resilience"), std::string::npos);
  EXPECT_NE(report.find("truncated"), std::string::npos);
  EXPECT_NE(report.find("monte-carlo"), std::string::npos);
  EXPECT_NE(report.find("standard error"), std::string::npos);
  // Core membership cannot be certified without the coalition table.
  EXPECT_NE(report.find("n/a"), std::string::npos);
  // Every scheme still reports shares for every facility.
  EXPECT_NE(report.find("shapley"), std::string::npos);
  EXPECT_NE(report.find("equal"), std::string::npos);
}

TEST(CliRunner, UnlimitedDeadlineOnlyAddsTheResilienceSection) {
  // One report body: without --deadline-ms it runs under an unlimited
  // budget, so a deadline that never trips changes nothing but the
  // Resilience section — the cache counters included.
  const auto config = config_file("configs/planetlab.ini");
  std::vector<std::pair<std::string, ReportOptions>> flag_sets(6);
  flag_sets[0].first = "no flags";
  flag_sets[1].first = "--cache-stats";
  flag_sets[1].second.cache_stats = true;
  flag_sets[2].first = "--verify cheap";
  flag_sets[2].second.verify = verify::VerifyLevel::kCheap;
  flag_sets[3].first = "--verify full";
  flag_sets[3].second.verify = verify::VerifyLevel::kFull;
  flag_sets[4].first = "--symmetry auto";
  flag_sets[4].second.symmetry = game::SymmetryMode::kAuto;
  flag_sets[5].first = "--structure optimal";
  flag_sets[5].second.structure = structure::StructureMode::kOptimal;
  for (const auto& [label, options] : flag_sets) {
    const ReportResult plain = run_report_result(config, options);
    ReportOptions budgeted = options;
    budgeted.deadline_ms = 1e9;
    const ReportResult timed = run_report_result(config, budgeted);
    EXPECT_FALSE(plain.degraded()) << label;
    EXPECT_FALSE(timed.degraded()) << label;
    EXPECT_EQ(plain.text.find("\nResilience\n"), std::string::npos) << label;
    EXPECT_NE(timed.text.find("\nResilience\n"), std::string::npos) << label;
    EXPECT_EQ(without_resilience(timed.text), plain.text) << label;
  }
}

TEST(CliRunner, NucleolusPastTheDenseReachDegradesTheReport) {
  // Eleven unlike facilities: no symmetry quotient, and the dense
  // nucleolus stops at n = 10. The report still prints the other five
  // schemes but records the missing row.
  const auto result = run_report_result(config_file("tests/fixtures/fed11.ini"),
                                        ReportOptions{});
  ASSERT_TRUE(result.degraded());
  ASSERT_EQ(result.degraded_sections.size(), 1u);
  EXPECT_EQ(result.degraded_sections[0].rfind("nucleolus", 0), 0u);
  EXPECT_EQ(result.stop, runtime::StopReason::kNone);
  EXPECT_EQ(result.text.find("\nnucleolus "), std::string::npos);
  EXPECT_NE(result.text.find("\nbanzhaf "), std::string::npos);
}

TEST(CliRunner, OutageScenariosKeepTheirRowsPastTheDenseNucleolus) {
  // Every scenario at n = 11 skips the dense nucleolus alike, so that
  // skip must not truncate the outage distribution.
  const auto fed =
      federation_from_config(config_file("tests/fixtures/fed11.ini"));
  const auto report = runtime::evaluate_outages(fed, 3, 1);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.scenarios_evaluated, 3);
  EXPECT_FALSE(report.schemes.empty());
}

TEST(CliRunner, TypedReportWithOutagesPastTheDenseNucleolusIsClean) {
  // Twelve facilities of two types: the quotient nucleolus answers the
  // report, and the outage scenarios (no partition) skip only the
  // nucleolus, so nothing degrades.
  std::string config;
  for (int i = 0; i < 12; ++i) {
    config += i % 2 == 0
                  ? "[facility]\nlocations = 4\nunits = 2\navailability = 0.9\n"
                  : "[facility]\nlocations = 6\nunits = 3\navailability = 0.9\n";
  }
  config += "[demand]\ncount = 3\nmin_locations = 8\n";
  ReportOptions opts;
  opts.symmetry = game::SymmetryMode::kExact;
  opts.outage_scenarios = 2;
  const auto result =
      run_report_result(io::Config::parse_string(config), opts);
  EXPECT_FALSE(result.degraded());
  EXPECT_NE(result.text.find("scenarios: 2/2 (seed 1)\n"), std::string::npos);
  EXPECT_NE(result.text.find("\nnucleolus "), std::string::npos);
}

TEST(CliRunner, OutageSectionIsDeterministicGivenTheSeed) {
  const std::string config =
      "[facility]\nname = A\nlocations = 40\navailability = 0.7\n"
      "[facility]\nname = B\nlocations = 60\navailability = 0.8\n"
      "[facility]\nname = C\nlocations = 80\navailability = 0.9\n"
      "[demand]\ncount = 2\nmin_locations = 60\n";
  const auto parsed = io::Config::parse_string(config);
  ReportOptions opts;
  opts.outage_scenarios = 6;
  opts.outage_seed = 17;
  const std::string a = run_report(parsed, opts);
  const std::string b = run_report(parsed, opts);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("Outage distribution"), std::string::npos);
  EXPECT_NE(a.find("scenarios: 6/6 (seed 17)"), std::string::npos);
  ReportOptions other = opts;
  other.outage_seed = 18;
  EXPECT_NE(a, run_report(parsed, other));
}

TEST(CliRunner, DumpGameRoundTripsThroughLoader) {
  const auto config = io::Config::parse_string(kPaperConfig);
  const std::string text = dump_game_text(config);
  std::istringstream in(text);
  const auto g = game::load_game(in);
  EXPECT_EQ(g.num_players(), 3);
  EXPECT_DOUBLE_EQ(g.grand_value(), 1300.0);
  EXPECT_DOUBLE_EQ(g.value(game::Coalition::of({0, 1})), 500.0);
}

}  // namespace
}  // namespace fedshare::cli
