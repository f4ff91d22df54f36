#include <gtest/gtest.h>

#include "device/presets.h"
#include "device/vcm.h"
#include "support/program_verify.h"

namespace memcim {
namespace {

CrossbarConfig sized(std::size_t n) {
  CrossbarConfig cfg;
  cfg.model = NetworkModel::kLumpedLines;
  cfg.rows = n;
  cfg.cols = n;
  return cfg;
}

ReadConfig grounded_read() {
  ReadConfig rc;
  rc.scheme = BiasScheme::kGrounded;
  return rc;
}

TEST(ProgramVerify, FullStrengthPulseVerifiesFirstTry) {
  CrossbarArray array(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  CrossbarArray scratch(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  const ReadMeasurement ref = measure_read_margin(scratch, 0, 0, grounded_read());
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  wc.scheme = BiasScheme::kVHalf;
  const auto r = program_verify_write(array, 1, 2, true, wc, grounded_read(), ref);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.write_pulses, 1u);   // initial verify fails, one pulse, done
  EXPECT_EQ(r.verify_reads, 2u);
  EXPECT_TRUE(array.stored_bit(1, 2));
}

TEST(ProgramVerify, WeakPulsesNeedMultipleIterations) {
  // A pulse a third of t_switch under-programs.  On a filamentary
  // (shape-8) device a 1/3-programmed cell still conducts like HRS, so
  // the open-loop write fails its own verification and the closed loop
  // converges after ~2 pulses.  (On the linear-mix device a 1/3 state
  // already senses above the geometric-mean threshold — partial
  // programming is a filamentary-device problem.)
  VcmParams dev = presets::vcm_taox_logic();
  dev.snap_x = 0.0;  // gradual switching: no runaway completion
  CrossbarArray array(sized(4), VcmDevice(dev, 0.0));
  CrossbarArray scratch(sized(4), VcmDevice(dev, 0.0));
  const ReadMeasurement ref = measure_read_margin(scratch, 0, 0, grounded_read());
  WriteConfig weak;
  weak.v_write = dev.v_write;
  weak.pulse = dev.t_switch / 3.0;
  weak.scheme = BiasScheme::kVHalf;

  // Open loop: under-programmed.
  const WriteResult open_loop = write_bit(array, 0, 0, true, weak);
  EXPECT_FALSE(open_loop.success);
  EXPECT_FALSE(array.stored_bit(0, 0));

  // Closed loop on a fresh cell.
  const auto r =
      program_verify_write(array, 2, 2, true, weak, grounded_read(), ref);
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.write_pulses, 2u);
  EXPECT_LE(r.write_pulses, 3u);
  EXPECT_TRUE(array.stored_bit(2, 2));
}

TEST(ProgramVerify, AlreadyCorrectCellCostsOnlyOneRead) {
  CrossbarArray array(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  CrossbarArray scratch(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  const ReadMeasurement ref = measure_read_margin(scratch, 0, 0, grounded_read());
  array.store_bit(3, 3, true);
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  const auto r = program_verify_write(array, 3, 3, true, wc, grounded_read(), ref);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.write_pulses, 0u);
  EXPECT_EQ(r.verify_reads, 1u);
}

TEST(ProgramVerify, GivesUpAfterMaxPulses) {
  CrossbarArray array(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  CrossbarArray scratch(sized(4), VcmDevice(presets::vcm_taox(), 0.0));
  const ReadMeasurement ref = measure_read_margin(scratch, 0, 0, grounded_read());
  WriteConfig hopeless;
  hopeless.v_write = Voltage(0.5);  // sub-threshold: cell never moves
  hopeless.pulse = presets::vcm_taox().t_switch;
  const auto r = program_verify_write(array, 0, 1, true, hopeless,
                                      grounded_read(), ref, 5);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.write_pulses, 5u);
  EXPECT_EQ(r.verify_reads, 6u);
}

}  // namespace
}  // namespace memcim
