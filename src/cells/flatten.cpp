#include "cells/flatten.hpp"

#include <stdexcept>

#include "device/finfet.hpp"
#include "obs/trace.hpp"

namespace cryo::cells {

NetlistFlattener::NetlistFlattener(const device::ModelCard& nmos,
                                   const device::ModelCard& pmos,
                                   double temperature)
    : nmos_(nmos), pmos_(pmos), temperature_(temperature) {}

device::ModelCard NetlistFlattener::card(device::Polarity polarity,
                                         VtFlavor flavor, int fins) const {
  device::ModelCard card =
      polarity == device::Polarity::kNmos ? nmos_ : pmos_;
  if (fins > 0) card.NFIN = fins;
  if (flavor == VtFlavor::kSlvt) card.PHIG += kSlvtWorkFunctionDelta;
  return card;
}

const std::shared_ptr<const device::IdsCache>& NetlistFlattener::table(
    device::Polarity polarity, VtFlavor flavor, int threads) const {
  const bool nmos = polarity == device::Polarity::kNmos;
  const bool slvt = flavor == VtFlavor::kSlvt;
  Table& t = tables_[(slvt ? 2 : 0) + (nmos ? 0 : 1)];
  std::call_once(t.once, [&] {
    OBS_SPAN("device.tables", std::string(nmos ? "nmos_" : "pmos_") +
                                  (slvt ? "slvt" : "lvt"));
    t.cache = std::make_shared<device::IdsCache>(
        device::FinFet(card(polarity, flavor, 1), temperature_), threads);
  });
  return t.cache;
}

void NetlistFlattener::build_tables(std::span<const CellDef> cells,
                                    int threads) const {
  for (const CellDef& cell : cells)
    for (const Transistor& t : cell.transistors)
      table(t.polarity, cell.flavor, threads);
}

device::FinFet NetlistFlattener::make_fet(device::Polarity polarity,
                                          int fins, VtFlavor flavor) const {
  device::FinFet fet(card(polarity, flavor, fins), temperature_);
  fet.set_cache(table(polarity, flavor, 0));
  return fet;
}

void NetlistFlattener::instantiate(
    spice::Circuit& circuit, const CellDef& cell, const std::string& instance,
    const std::map<std::string, std::string>& pin_nets) const {
  const auto map_net = [&](const std::string& net) -> std::string {
    if (net == "0" || net == "gnd" || net == "GND" || net == "vss" ||
        net == "VSS")
      return net;  // ground aliases resolve inside Circuit::node
    const auto it = pin_nets.find(net);
    if (it != pin_nets.end()) return it->second;
    if (net == "vdd") return "vdd";  // shared supply by default
    return instance + "." + net;
  };
  for (const Transistor& t : cell.transistors)
    circuit.add_mosfet(instance + "." + t.name, map_net(t.drain),
                       map_net(t.gate), map_net(t.source),
                       make_fet(t.polarity, t.fins, cell.flavor));
}

spice::Circuit make_cell_chain(const NetlistFlattener& flattener,
                               const CellDef& cell, std::size_t length,
                               const std::string& input,
                               const std::map<std::string, bool>& side_inputs) {
  if (cell.outputs.empty())
    throw std::invalid_argument("make_cell_chain: cell has no output");
  const std::string& out_pin = cell.outputs.front().name;
  spice::Circuit circuit;
  for (std::size_t i = 0; i < length; ++i) {
    std::map<std::string, std::string> nets;
    nets[input] = "n" + std::to_string(i);
    nets[out_pin] = "n" + std::to_string(i + 1);
    for (const std::string& pin : cell.inputs) {
      if (pin == input) continue;
      const auto it = side_inputs.find(pin);
      nets[pin] = it != side_inputs.end() && it->second ? "vdd" : "vss";
    }
    flattener.instantiate(circuit, cell, "u" + std::to_string(i), nets);
  }
  return circuit;
}

SramColumn make_sram_column(const NetlistFlattener& flattener,
                            const SramColumnSpec& spec) {
  if (spec.rows < 1 || spec.cols < 1 ||
      spec.accessed_row >= spec.rows)
    throw std::invalid_argument("make_sram_column: bad spec");
  SramColumn column;
  spice::Circuit& c = column.circuit;
  const double vdd = spec.vdd;
  c.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(vdd));
  // Precharge gate: low (precharging) until t_precharge, then off.
  c.add_vsource("v_pc", "pc", "0",
                spice::Waveform::pwl({{0.0, 0.0},
                                      {spec.t_precharge, 0.0},
                                      {spec.t_precharge + spec.t_rise, vdd}}));
  column.wordline = "wl" + std::to_string(spec.accessed_row);
  c.add_vsource("v_wl", column.wordline, "0",
                spice::Waveform::pwl({{0.0, 0.0},
                                      {spec.t_wordline, 0.0},
                                      {spec.t_wordline + spec.t_rise, vdd}}));

  const auto nfet = [&](VtFlavor f) {
    return flattener.make_fet(device::Polarity::kNmos, 0, f);
  };
  const auto pfet = [&](VtFlavor f) {
    return flattener.make_fet(device::Polarity::kPmos, 0, f);
  };

  for (int j = 0; j < spec.cols; ++j) {
    const std::string bl = "bl" + std::to_string(j);
    const std::string blb = "blb" + std::to_string(j);
    column.bitlines.push_back(bl);
    column.bitlines_bar.push_back(blb);
    c.add_mosfet("pc_" + bl, bl, "pc", "vdd", pfet(VtFlavor::kLvt));
    c.add_mosfet("pc_" + blb, blb, "pc", "vdd", pfet(VtFlavor::kLvt));
    // Bitline wire load on top of the per-cell junctions the access
    // devices contribute automatically.
    const double wire = spec.bitline_wire_cap_per_cell * spec.rows;
    c.add_capacitor(bl, "0", wire);
    c.add_capacitor(blb, "0", wire);
  }

  for (int r = 0; r < spec.rows; ++r) {
    // Non-accessed wordlines tie to ground directly: their access gates
    // drop out of the MNA system instead of adding dim-inflating source
    // rows that a real decoder would drive.
    const std::string wl = r == spec.accessed_row ? column.wordline : "vss";
    for (int j = 0; j < spec.cols; ++j) {
      const std::string inst =
          "x" + std::to_string(r) + "_" + std::to_string(j);
      const std::string q = inst + ".q";
      const std::string qb = inst + ".qb";
      // 6T cell, SLVT devices like the macro model's bitcell. Every cell
      // stores 0 at q: weak bias resistors make the latch state (and so
      // the DC operating point) deterministic without initial conditions.
      c.add_mosfet(inst + ".pu_q", q, qb, "vdd", pfet(VtFlavor::kSlvt));
      c.add_mosfet(inst + ".pd_q", q, qb, "vss", nfet(VtFlavor::kSlvt));
      c.add_mosfet(inst + ".pu_qb", qb, q, "vdd", pfet(VtFlavor::kSlvt));
      c.add_mosfet(inst + ".pd_qb", qb, q, "vss", nfet(VtFlavor::kSlvt));
      c.add_mosfet(inst + ".ax_bl", "bl" + std::to_string(j), wl, q,
                   nfet(VtFlavor::kSlvt));
      c.add_mosfet(inst + ".ax_blb", "blb" + std::to_string(j), wl, qb,
                   nfet(VtFlavor::kSlvt));
      c.add_resistor(q, "0", 1e7);
      c.add_resistor(qb, "vdd", 1e7);
    }
  }
  return column;
}

}  // namespace cryo::cells
