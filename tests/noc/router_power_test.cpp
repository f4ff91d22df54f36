// The Orion-style router power derivation: every per-event quantum is
// a switched wire capacitance, so the model is checkable in closed
// form against the documented formulas.
#include "noc/noc_params.h"

#include <gtest/gtest.h>

namespace memcim {
namespace {

TEST(RouterPower, QuantaArePositiveAndOrdered) {
  const NocParams params;
  const RouterPowerModel m = RouterPowerModel::derive(params);
  EXPECT_GT(m.buffer_write.value(), 0.0);
  EXPECT_GT(m.buffer_read.value(), 0.0);
  EXPECT_GT(m.xbar_traversal.value(), 0.0);
  EXPECT_GT(m.link_traversal.value(), 0.0);
  // A read is a half-swing of the write's bitline charge.
  EXPECT_DOUBLE_EQ(m.buffer_read.value(), 0.5 * m.buffer_write.value());
  // A millimetre of inter-tile wire dwarfs the in-router crossbar lines.
  EXPECT_GT(m.link_traversal.value(), m.xbar_traversal.value());
}

TEST(RouterPower, MatchesClosedFormDerivation) {
  NocParams params;
  params.flit_payload_bits = 32;
  params.link_length = Length(0.5e-3);
  const RouterPowerModel m = RouterPowerModel::derive(params);

  const double wires = static_cast<double>(params.link_wires());
  EXPECT_DOUBLE_EQ(wires, 33.0);
  const double e_factor =
      0.5 * params.tech.vdd.value() * params.tech.vdd.value();
  const double len_in = 5.0 * wires * params.tech.xbar_cell_pitch.value();
  const double e_chg = params.tech.wire_cap.value() * len_in * e_factor;

  EXPECT_DOUBLE_EQ(m.xbar_traversal.value(),
                   (e_chg + e_chg) * wires * 0.5 + e_chg * 0.5);
  EXPECT_DOUBLE_EQ(m.buffer_write.value(),
                   params.tech.buffer_bit_cap.value() * e_factor * wires);
  EXPECT_DOUBLE_EQ(m.link_traversal.value(),
                   params.tech.wire_cap.value() * params.link_length.value() *
                       e_factor * wires * 0.5);
}

TEST(RouterPower, ScalesWithFlitWidth) {
  NocParams narrow, wide;
  narrow.flit_payload_bits = 32;
  wide.flit_payload_bits = 128;
  const RouterPowerModel n = RouterPowerModel::derive(narrow);
  const RouterPowerModel w = RouterPowerModel::derive(wide);
  EXPECT_GT(w.buffer_write.value(), n.buffer_write.value());
  EXPECT_GT(w.link_traversal.value(), n.link_traversal.value());
  // Crossbar line length grows with wires too, so traversal is
  // superlinear in the flit width.
  EXPECT_GT(w.xbar_traversal.value(), 4.0 * n.xbar_traversal.value());
}

TEST(RouterPower, PaperNocParamsRunAtTheTable1Clock) {
  // The NocParams defaults are the paper's: the inter-tile fabric runs
  // on the 1 GHz interface clock of Table 1's FinFET column.
  const NocParams p;
  EXPECT_DOUBLE_EQ(p.cycle.value(), 1e-9);
  EXPECT_EQ(p.link_wires(), p.flit_payload_bits + 1);
}

}  // namespace
}  // namespace memcim
