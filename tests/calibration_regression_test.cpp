// Calibration regression pins: the model's headline class-average
// numbers, frozen with generous bands. These protect the published
// EXPERIMENTS.md values from accidental recalibration — if a descriptor
// constant changes, these tests say *which* headline moved.
#include <gtest/gtest.h>

#include "experiments/experiments.hpp"

namespace sgp::experiments {
namespace {

using core::Group;
using core::Precision;
using machine::Placement;

const GroupRatios& group_of(const RatioSeries& s, Group g) {
  for (const auto& gr : s.groups) {
    if (gr.group == g) return gr;
  }
  throw std::logic_error("missing group");
}

TEST(CalibrationPins, Figure1Sg2042Averages) {
  const auto series = figure1();
  // FP64 class averages (encoded) near 2.7..3.3; FP32 near 6.0..16.2.
  for (const auto g : core::all_groups) {
    EXPECT_NEAR(group_of(series[3], g).mean, 3.0, 0.6)
        << core::to_string(g);
    EXPECT_GE(group_of(series[4], g).mean, 4.5) << core::to_string(g);
    EXPECT_LE(group_of(series[4], g).mean, 18.0) << core::to_string(g);
  }
}

TEST(CalibrationPins, StreamScalingRow) {
  // The row that anchors the whole memory model (paper: 0.97, 4.31,
  // 0.82, 15.18, ~1.6).
  const auto block = scaling_table(Placement::Block);
  const auto cluster = scaling_table(Placement::ClusterCyclic);
  const auto& bs = block.cells.at(Group::Stream);
  const auto& cs = cluster.cells.at(Group::Stream);
  EXPECT_NEAR(bs[1].speedup, 1.0, 0.3);    // block-4
  EXPECT_NEAR(bs[3].speedup, 4.0, 1.0);    // block-16
  EXPECT_LT(bs[4].speedup, 1.2);           // block-32 dip
  EXPECT_NEAR(cs[4].speedup, 13.0, 4.0);   // cluster-32
  EXPECT_LT(cs[5].speedup, 2.5);           // 64-thread collapse
}

TEST(CalibrationPins, Figure2StreamVectorBenefit) {
  const auto series = figure2();
  EXPECT_NEAR(group_of(series[0], Group::Stream).mean, 1.0, 0.4);
  EXPECT_NEAR(group_of(series[1], Group::Stream).mean, 0.0, 0.05);
}

TEST(CalibrationPins, X86SingleCoreHeadlines) {
  const auto fp64 = x86_comparison(Precision::FP64, false);
  // Whole-suite average encoded ratios per CPU (paper: Rome 4x,
  // Broadwell 4x, Icelake 5x, Sandybridge 1.2x).
  auto avg = [](const RatioSeries& s) {
    double sum = 0.0;
    for (const auto& g : s.groups) sum += g.mean;
    return sum / static_cast<double>(s.groups.size());
  };
  EXPECT_NEAR(avg(fp64[0]), 4.6, 1.5);   // Rome
  EXPECT_NEAR(avg(fp64[1]), 3.9, 1.5);   // Broadwell
  EXPECT_NEAR(avg(fp64[2]), 5.6, 2.0);   // Icelake
  EXPECT_NEAR(avg(fp64[3]), 0.0, 0.5);   // Sandybridge ~ parity
}

TEST(CalibrationPins, Figure3Anchors) {
  const auto rows = figure3();
  for (const auto& r : rows) {
    if (r.kernel == "GEMM") {
      EXPECT_NEAR(r.clang_vls, -1.0, 0.3);
    }
    if (r.kernel == "HEAT_3D") {
      EXPECT_NEAR(r.clang_vls, 1.0, 0.4);
    }
    if (r.kernel == "JACOBI_2D") {
      EXPECT_NEAR(r.clang_vls, -0.25, 0.25);
    }
  }
}

}  // namespace
}  // namespace sgp::experiments
