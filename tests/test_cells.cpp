#include <gtest/gtest.h>

#include "cells/celldef.hpp"
#include "cells/flatten.hpp"
#include "device/finfet.hpp"
#include "device/modelcard.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"

namespace cryo::cells {
namespace {

// --- Catalog structure -----------------------------------------------------

TEST(Catalog, VariantCountMatchesPaperScale) {
  // The paper used ~200 ASAP7 cells; the catalog must be in that range.
  const auto all = standard_cells({});
  EXPECT_GE(all.size(), 180u);
  EXPECT_LE(all.size(), 260u);
}

TEST(Catalog, NamesEncodeDriveAndFlavor) {
  const auto cell = make_cell("NAND2", 4, VtFlavor::kSlvt);
  EXPECT_EQ(cell.name, "NAND2_X4_SLVT");
  EXPECT_EQ(cell.base, "NAND2");
  EXPECT_EQ(cell.drive, 4);
}

TEST(Catalog, UnknownBaseThrows) {
  EXPECT_THROW(make_cell("NAND9", 1, VtFlavor::kLvt), std::invalid_argument);
}

TEST(Catalog, SubsetFilterWorks) {
  CatalogOptions opt;
  opt.only_bases = {"INV", "DFF"};
  opt.drives = {1};
  opt.extra_drives_common = {};
  opt.include_slvt = false;
  const auto subset = standard_cells(opt);
  ASSERT_EQ(subset.size(), 2u);
}

TEST(Catalog, AreaGrowsWithDrive) {
  const auto x1 = make_cell("INV", 1, VtFlavor::kLvt);
  const auto x4 = make_cell("INV", 4, VtFlavor::kLvt);
  EXPECT_GT(x4.area, x1.area);
  EXPECT_GT(x1.area, 0.0);
}

TEST(Catalog, FinCountScalesWithDrive) {
  const auto x1 = make_cell("NAND2", 1, VtFlavor::kLvt);
  const auto x2 = make_cell("NAND2", 2, VtFlavor::kLvt);
  EXPECT_EQ(x2.total_fins(), 2 * x1.total_fins());
}

TEST(Catalog, SequentialFlags) {
  EXPECT_TRUE(make_cell("DFF", 1, VtFlavor::kLvt).sequential);
  EXPECT_FALSE(make_cell("DFF", 1, VtFlavor::kLvt).is_latch);
  EXPECT_TRUE(make_cell("LATCH", 1, VtFlavor::kLvt).is_latch);
  EXPECT_FALSE(make_cell("NAND2", 1, VtFlavor::kLvt).sequential);
}

// --- Timing-arc derivation ---------------------------------------------------

TEST(Arcs, EveryInputSensitized) {
  for (const auto& base : base_names()) {
    const auto cell = make_cell(base, 1, VtFlavor::kLvt);
    if (cell.sequential) continue;
    for (const auto& input : cell.inputs) {
      int count = 0;
      for (const auto& arc : cell.arcs)
        if (arc.input == input) ++count;
      EXPECT_GE(count, 2) << base << " input " << input;
    }
  }
}

TEST(Arcs, SideAssignmentsActuallySensitize) {
  for (const auto& base : base_names()) {
    const auto cell = make_cell(base, 1, VtFlavor::kLvt);
    if (cell.sequential) continue;
    for (const auto& arc : cell.arcs) {
      // Build the two patterns and check the output flips as recorded.
      std::uint32_t p0 = 0;
      int in_index = -1;
      for (std::size_t i = 0; i < cell.inputs.size(); ++i) {
        if (cell.inputs[i] == arc.input) {
          in_index = static_cast<int>(i);
          continue;
        }
        if (arc.side_inputs.at(cell.inputs[i])) p0 |= (1u << i);
      }
      ASSERT_GE(in_index, 0);
      const std::uint32_t p1 = p0 | (1u << in_index);
      std::size_t oi = 0;
      for (; oi < cell.outputs.size(); ++oi)
        if (cell.outputs[oi].name == arc.output) break;
      const bool f0 = cell.eval(oi, p0);
      const bool f1 = cell.eval(oi, p1);
      EXPECT_NE(f0, f1) << cell.name << " " << arc.input << "->"
                        << arc.output;
      EXPECT_EQ(arc.input_rise ? f1 : f0, arc.output_rise)
          << cell.name << " " << arc.input;
    }
  }
}

TEST(Arcs, DffHasClockArcs) {
  const auto dff = make_cell("DFF", 1, VtFlavor::kLvt);
  ASSERT_EQ(dff.arcs.size(), 2u);
  for (const auto& arc : dff.arcs) {
    EXPECT_EQ(arc.input, "CLK");
    EXPECT_EQ(arc.output, "Q");
  }
}

// --- Transistor-level truth (parameterized over the whole catalog) --------

class CellTruth : public ::testing::TestWithParam<std::string> {};

TEST_P(CellTruth, DcMatchesTruthTable) {
  const auto cell = make_cell(GetParam(), 1, VtFlavor::kLvt);
  if (cell.sequential) GTEST_SKIP() << "sequential cells tested in charlib";
  const double vdd = 0.7;
  const auto nmos = device::golden_nmos();
  const auto pmos = device::golden_pmos();
  const std::uint32_t patterns = 1u << cell.inputs.size();
  for (std::uint32_t pat = 0; pat < patterns; ++pat) {
    spice::Circuit c;
    c.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(vdd));
    for (std::size_t i = 0; i < cell.inputs.size(); ++i)
      c.add_vsource("v" + std::to_string(i), cell.inputs[i], "0",
                    spice::Waveform::dc(((pat >> i) & 1u) ? vdd : 0.0));
    for (const auto& t : cell.transistors) {
      auto card = t.polarity == device::Polarity::kNmos ? nmos : pmos;
      card.NFIN = t.fins;
      c.add_mosfet(t.name, t.drain, t.gate, t.source,
                   device::FinFet(card, 300.0));
    }
    spice::Engine engine(c);
    const auto x = engine.dc_operating_point();
    for (std::size_t oi = 0; oi < cell.outputs.size(); ++oi) {
      const double v = x[c.node(cell.outputs[oi].name) - 1];
      const bool want = cell.eval(oi, pat);
      if (want)
        EXPECT_GT(v, 0.9 * vdd)
            << cell.name << " out " << cell.outputs[oi].name << " pat "
            << pat;
      else
        EXPECT_LT(v, 0.1 * vdd)
            << cell.name << " out " << cell.outputs[oi].name << " pat "
            << pat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBases, CellTruth,
                         ::testing::ValuesIn(base_names()),
                         [](const auto& info) { return info.param; });

// --- Device tables of the flattener ----------------------------------------

TEST(Flattener, BuildsEachDeviceTableOnFirstUse) {
  obs::Counter& builds = obs::registry().counter("device.table_builds");
  const NetlistFlattener flattener(device::golden_nmos(),
                                   device::golden_pmos(), 300.0);
  const auto b0 = builds.value();
  const CellDef inv = make_cell("INV", 1, VtFlavor::kLvt);
  flattener.build_tables({&inv, 1}, 2);
  EXPECT_EQ(builds.value() - b0, 2u);  // NMOS and PMOS LVT
  flattener.build_tables({&inv, 1}, 2);
  (void)flattener.make_fet(device::Polarity::kNmos, 2, VtFlavor::kLvt);
  EXPECT_EQ(builds.value() - b0, 2u);

  // The SRAM column's bitcells are SLVT: its first build tabulates both
  // SLVT variants on demand, a second build nothing.
  SramColumnSpec spec;
  spec.rows = 2;
  (void)make_sram_column(flattener, spec);
  EXPECT_EQ(builds.value() - b0, 4u);
  (void)make_sram_column(flattener, spec);
  EXPECT_EQ(builds.value() - b0, 4u);
}

}  // namespace
}  // namespace cryo::cells
