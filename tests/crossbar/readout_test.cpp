#include "crossbar/readout.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crossbar/selector.h"
#include "device/presets.h"
#include "device/vcm.h"

namespace memcim {
namespace {

using namespace memcim::literals;

VcmDevice bare_proto() { return VcmDevice(presets::vcm_taox(), 0.0); }

CrossbarConfig lumped() {
  CrossbarConfig cfg;
  cfg.model = NetworkModel::kLumpedLines;
  return cfg;
}

CrossbarConfig sized(std::size_t n) {
  CrossbarConfig cfg = lumped();
  cfg.rows = n;
  cfg.cols = n;
  return cfg;
}

TEST(Readout, WorstCasePatternProgramsAllLrsExceptTarget) {
  CrossbarArray xbar(sized(3), bare_proto());
  program_worst_case_pattern(xbar, 1, 1, /*target_lrs=*/false);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(xbar.stored_bit(r, c), !(r == 1 && c == 1));
}

TEST(Readout, GroundedReadMarginNearIdeal) {
  CrossbarArray xbar(sized(8), bare_proto());
  ReadConfig rc;
  rc.scheme = BiasScheme::kGrounded;
  const auto meas = measure_read_margin(xbar, 0, 0, rc);
  // Grounded sensing sees only the device itself: ratio ≈ R_off/R_on.
  EXPECT_GT(meas.on_off_ratio, 500.0);
  EXPECT_GT(meas.margin, 0.99);
}

TEST(Readout, FloatingMarginDegradesWithArraySize) {
  ReadConfig rc;
  rc.scheme = BiasScheme::kFloating;
  const auto pts = margin_vs_size(bare_proto(), lumped(), rc, {4, 16, 64});
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_GT(pts[0].margin, pts[1].margin);
  EXPECT_GT(pts[1].margin, pts[2].margin);
  // Sneak paths swamp the HRS read well before 64×64 on ohmic devices.
  EXPECT_LT(pts[2].margin, 0.5);
}

TEST(Readout, TransistorJunctionImmuneToArraySize) {
  TransistorDevice proto(std::make_unique<VcmDevice>(presets::vcm_taox(), 0.0));
  ReadConfig rc;
  rc.scheme = BiasScheme::kFloating;
  const auto pts = margin_vs_size(proto, lumped(), rc, {4, 32});
  // 1T1R: unselected gates off → sneak paths broken; margin stays high.
  EXPECT_GT(pts[0].margin, 0.95);
  EXPECT_GT(pts[1].margin, 0.95);
}

TEST(Readout, NonlinearSelectorBeatsPassiveAtSameSize) {
  const std::size_t n = 32;
  ReadConfig rc;
  rc.scheme = BiasScheme::kFloating;
  const auto passive =
      margin_vs_size(bare_proto(), lumped(), rc, {n}).front();
  SelectorDevice sel_proto(
      std::make_unique<VcmDevice>(presets::vcm_taox(), 0.0),
      nonlinear_selector());
  const auto with_sel = margin_vs_size(sel_proto, lumped(), rc, {n}).front();
  EXPECT_GT(with_sel.margin, passive.margin);
}

TEST(Readout, ReadBitRecoversStoredPattern) {
  const std::size_t n = 8;
  CrossbarArray xbar(sized(n), bare_proto());
  ReadConfig rc;
  rc.scheme = BiasScheme::kGrounded;
  // Reference from the worst-case corner.
  CrossbarArray ref_array(sized(n), bare_proto());
  const auto ref = measure_read_margin(ref_array, 0, 0, rc);
  // Checkerboard pattern.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) xbar.store_bit(r, c, (r + c) % 2 == 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_EQ(read_bit(xbar, r, c, rc, ref), (r + c) % 2 == 0)
          << "cell (" << r << ',' << c << ')';
}

TEST(Readout, WriteBitSetsAndResets) {
  CrossbarArray xbar(sized(4), bare_proto());
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  wc.scheme = BiasScheme::kVHalf;
  const auto set = write_bit(xbar, 2, 3, true, wc);
  EXPECT_TRUE(set.success);
  EXPECT_TRUE(xbar.stored_bit(2, 3));
  EXPECT_LT(set.max_disturb, 0.02);
  EXPECT_GT(set.array_energy.value(), 0.0);
  const auto reset = write_bit(xbar, 2, 3, false, wc);
  EXPECT_TRUE(reset.success);
  EXPECT_FALSE(xbar.stored_bit(2, 3));
}

TEST(Readout, RepeatedHalfSelectsAccumulateDisturb) {
  // The voltage-time dilemma in action: many same-polarity writes to
  // (0,0) slowly creep the half-selected cells of row 0 upward.
  CrossbarArray xbar(sized(4), bare_proto());
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  wc.scheme = BiasScheme::kVHalf;
  for (int k = 0; k < 100; ++k) (void)write_bit(xbar, 0, 0, true, wc);
  const double crept = xbar.device(0, 1).state();
  EXPECT_GT(crept, 0.01);  // visible creep after 100 pulses
  EXPECT_LT(crept, 0.5);   // but not a flipped bit
}

TEST(Readout, AlternatingWritesCancelHalfSelectCreep) {
  // A balanced SET/RESET write stream leaves half-selected neighbours
  // where they started: the disturb polarity alternates too.
  CrossbarArray xbar(sized(4), bare_proto());
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  wc.scheme = BiasScheme::kVHalf;
  for (int k = 0; k < 50; ++k) {
    (void)write_bit(xbar, 0, 0, true, wc);
    (void)write_bit(xbar, 0, 0, false, wc);
  }
  EXPECT_LT(xbar.device(0, 1).state(), 0.01);
}

TEST(Readout, MaxArraySizeFindsCutoff) {
  ReadConfig rc;
  rc.scheme = BiasScheme::kFloating;
  // Floating-scheme worst-case margins on this device collapse fast:
  // ~0.44 at N=4, ~0.12 at N=16, ~0.03 at N=64 (Flocke-style result).
  const std::vector<std::size_t> sizes{4, 8, 16, 32, 64};
  const std::vector<MarginPoint> series =
      margin_vs_size(bare_proto(), lumped(), rc, sizes);
  // Largest N whose worst-case margin stays above `min_margin`.
  auto max_size = [&](double min_margin) {
    std::size_t best = 0;
    for (const MarginPoint& p : series)
      if (p.margin >= min_margin) best = std::max(best, p.size);
    return best;
  };
  EXPECT_EQ(max_size(0.1), 16u);
  // Raising the required margin can only shrink the feasible size.
  EXPECT_EQ(max_size(0.4), 4u);
  EXPECT_EQ(max_size(0.99), 0u);
}

}  // namespace
}  // namespace memcim
