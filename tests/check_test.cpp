// Tests for the cross-model validation subsystem (src/check): the
// golden CSV differ, the invariant checker (green on the paper machines,
// firing on a deliberately mis-calibrated one), the fuzz driver and the
// artifact registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/artifacts.hpp"
#include "check/fuzz.hpp"
#include "check/golden.hpp"
#include "check/invariants.hpp"
#include "engine/engine.hpp"
#include "kernels/register_all.hpp"

namespace sgp::check {
namespace {

core::KernelSignature find_sig(const std::string& name) {
  for (const auto& s : kernels::all_signatures()) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no kernel " + name);
}

// ---------------------------------------------------------- parse_csv --
TEST(ParseCsv, SplitsRowsAndCells) {
  const auto rows = parse_csv("a,b\n1,2\n3,4\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
}

TEST(ParseCsv, HandlesQuotedCommasQuotesAndNewlines) {
  const auto rows =
      parse_csv("h\n\"with,comma\"\n\"with\"\"quote\"\n\"two\nlines\"\n");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1][0], "with,comma");
  EXPECT_EQ(rows[2][0], "with\"quote");
  EXPECT_EQ(rows[3][0], "two\nlines");
}

TEST(ParseCsv, HandlesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsv, EmptyTextGivesNoRows) {
  EXPECT_TRUE(parse_csv("").empty());
}

// ----------------------------------------------------------- diff_csv --
TEST(DiffCsv, IdenticalTextsMatch) {
  const std::string text = "a,b\n1,2\n";
  EXPECT_FALSE(diff_csv(text, text).has_value());
}

TEST(DiffCsv, WithinToleranceMatches) {
  GoldenPolicy policy;
  policy.columns["v"] = CellTolerance{1e-3, 0.0};
  EXPECT_FALSE(diff_csv("k,v\nx,1.0000\n", "k,v\nx,1.0005\n", policy)
                   .has_value());
}

TEST(DiffCsv, BeyondToleranceReportsFirstCell) {
  GoldenPolicy policy;
  policy.columns["v"] = CellTolerance{1e-3, 0.0};
  const auto d =
      diff_csv("k,v\nx,1.00\ny,2.00\n", "k,v\nx,1.00\ny,2.01\n", policy);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->row, 1u);
  EXPECT_EQ(d->col, 1u);
  EXPECT_EQ(d->column, "v");
  EXPECT_EQ(d->expected, "2.00");
  EXPECT_EQ(d->actual, "2.01");
  EXPECT_NE(to_string(*d).find("row 1"), std::string::npos);
}

TEST(DiffCsv, StringsNeverGetNumericSlack) {
  GoldenPolicy policy;
  policy.default_tol = CellTolerance{1e6, 1e6};
  const auto d = diff_csv("k\nfoo\n", "k\nbar\n", policy);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "cell value");
}

TEST(DiffCsv, HeaderMismatchWinsOverEverything) {
  const auto d = diff_csv("a,b\n1,2\n", "a,c\n1,2\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "header mismatch");
  EXPECT_EQ(d->col, 1u);
}

TEST(DiffCsv, RowCountMismatchIsReported) {
  const auto d = diff_csv("a\n1\n2\n", "a\n1\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "row count");
  EXPECT_EQ(d->expected, "2 data rows");
  EXPECT_EQ(d->actual, "1 data rows");
}

// --------------------------------------------------- InvariantChecker --
TEST(InvariantChecker, Sg2042PointsAreClean) {
  InvariantChecker checker(machine::sg2042());
  CheckReport report;
  for (const char* name : {"TRIAD", "GEMM", "DOT"}) {
    const auto sig = find_sig(name);
    for (const int t : {1, 32, 64}) {
      sim::SimConfig cfg;
      cfg.precision = core::Precision::FP32;
      cfg.nthreads = t;
      cfg.placement = machine::Placement::ClusterCyclic;
      checker.check_point(sig, cfg, report);
    }
    checker.check_thread_monotonicity(sig, sim::SimConfig{}, {1, 8, 64},
                                      report);
  }
  EXPECT_GT(report.points, 0u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

TEST(InvariantChecker, CachesimConsistencyHoldsOnPaperMachines) {
  for (const auto& m : machine::all_machines()) {
    InvariantChecker checker(m);
    CheckReport report;
    checker.check_cachesim_consistency(report);
    EXPECT_TRUE(report.ok())
        << m.name << ": " << to_string(report.violations.front());
  }
}

TEST(InvariantChecker, ScalarFloorFiresOnMiscalibratedVectorUnit) {
  // A machine whose vector unit realises 1% of ideal scaling executes
  // the vector path far slower than forced-scalar code on a
  // compute-bound kernel — exactly the drift the floor exists to catch.
  auto m = machine::sg2042();
  m.name = "sg2042-broken-vector";
  m.core.vector->efficiency_fp32 = 0.01;
  InvariantChecker checker(m);
  CheckReport report;
  sim::SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  checker.check_point(find_sig("GEMM"), cfg, report);
  ASSERT_FALSE(report.ok());
  const auto hit = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) { return v.invariant == "scalar-floor"; });
  ASSERT_NE(hit, report.violations.end());
  EXPECT_EQ(hit->machine, "sg2042-broken-vector");
  EXPECT_EQ(hit->kernel, "GEMM");
}

TEST(InvariantChecker, CheckMachineCoversTheGrid) {
  const auto report = check_machine(
      machine::visionfive_v2(), {find_sig("TRIAD"), find_sig("GEMM")});
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
  EXPECT_GT(report.points, 50u);
}

TEST(CheckReport, MergeAccumulates) {
  CheckReport a, b;
  a.points = 3;
  b.points = 4;
  b.violations.push_back(Violation{"x", "m", "k", "w", "d"});
  a.merge(b);
  EXPECT_EQ(a.points, 7u);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_FALSE(a.ok());
}

// ---------------------------------------------------------------- fuzz --
TEST(Fuzz, RandomMachineIsDeterministic) {
  const auto a = random_machine(42);
  const auto b = random_machine(42);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_cores, b.num_cores);
  EXPECT_DOUBLE_EQ(a.core.clock_ghz, b.core.clock_ghz);
  EXPECT_NO_THROW(a.validate());
}

TEST(Fuzz, InvariantsHoldOnRandomMachines) {
  const auto report = fuzz_invariants(2000, 5);
  EXPECT_GT(report.points, 100u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

TEST(Fuzz, UnknownKernelThrows) {
  FuzzOptions opt;
  opt.kernels = {"NO_SUCH_KERNEL"};
  EXPECT_THROW((void)fuzz_invariants(1, 1, opt), std::invalid_argument);
}

// ------------------------------------------- parallel shard determinism --
TEST(Sharding, SerialAndParallelReportsAreIdentical) {
  // sharded_reports merges per-index reports in index order, so worker
  // count must never change what a driver reports.
  const auto serial = fuzz_invariants(2000, 4, {}, /*jobs=*/1);
  const auto parallel = fuzz_invariants(2000, 4, {}, /*jobs=*/4);
  EXPECT_EQ(serial.points, parallel.points);
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(to_string(serial.violations[i]),
              to_string(parallel.violations[i]));
  }
}

TEST(Sharding, CheckMachineIsJobCountInvariant) {
  const auto sigs = std::vector<core::KernelSignature>{find_sig("TRIAD")};
  const auto m = machine::visionfive_v2();
  const auto serial = check_machine(m, sigs, {}, /*jobs=*/1);
  const auto parallel = check_machine(m, sigs, {}, /*jobs=*/4);
  EXPECT_EQ(serial.points, parallel.points);
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

// --------------------------------------------------- cachesim agreement --
TEST(CachesimAgreement, PaperMachinesAreClean) {
  for (const auto& m : machine::all_machines()) {
    const auto report = cachesim_agreement(m);
    EXPECT_GT(report.points, 0u);
    EXPECT_TRUE(report.ok())
        << m.name << ": " << to_string(report.violations.front());
  }
}

TEST(CachesimAgreement, RandomMachinesAreClean) {
  const auto report = fuzz_cachesim(3000, 4, /*jobs=*/4);
  EXPECT_GT(report.points, 20u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

// ----------------------------------------------------------- artifacts --
TEST(Artifacts, RegistryCoversEveryFigureAndTable) {
  const auto& names = artifact_names();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "fig1");
  EXPECT_EQ(names.back(), "tab4");
}

TEST(Artifacts, UnknownNameThrows) {
  engine::SweepEngine eng(engine::EngineOptions{.jobs = 1});
  EXPECT_THROW((void)run_artifact("fig99", eng), std::invalid_argument);
}

TEST(Artifacts, Tab4MatchesItsPolicyColumns) {
  const auto csv = tab4_csv();
  const auto rows = parse_csv(csv.text());
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "cpu");
  EXPECT_EQ(rows[0][7], "mem_bw_gbs");
  EXPECT_EQ(rows.size(), 5u);  // header + the four x86 parts
}

TEST(Artifacts, SerialAndParallelEnginesRenderIdentically) {
  engine::SweepEngine serial(engine::EngineOptions{.jobs = 1});
  engine::SweepEngine parallel(engine::EngineOptions{.jobs = 0});
  const auto a = run_artifact("fig1", serial);
  const auto b = run_artifact("fig1", parallel);
  EXPECT_EQ(a.csv.text(), b.csv.text());
  EXPECT_FALSE(diff_csv(a.csv.text(), b.csv.text(), a.policy).has_value());
}

}  // namespace
}  // namespace sgp::check
