// Multi-cell transistor-level netlist flattening.
//
// The characterizer builds one cell per circuit; block-level workloads —
// chained critical paths, transistor-level SRAM columns — need many cell
// instances flattened into one spice::Circuit. This module instantiates
// CellDefs (and raw 6T bitcells, which the logic catalog does not carry)
// under hierarchical "instance.net" names, sharing tabulated Ids caches
// across all devices of a variant exactly like the characterizer does
// (the characterizer builds its cells through this class).
//
// These netlists are what push the MNA system from cell scale (tens of
// unknowns, dense LU) to block scale (hundreds-plus, sparse LU) — see the
// "Sparse MNA & symbolic factorization" section of DESIGN.md.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cells/celldef.hpp"
#include "device/ids_cache.hpp"
#include "device/modelcard.hpp"
#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace cryo::cells {

class NetlistFlattener {
 public:
  // Modelcards are the calibrated LVT devices; SLVT shifts the work
  // function by kSlvtWorkFunctionDelta, as everywhere in the flow.
  NetlistFlattener(const device::ModelCard& nmos,
                   const device::ModelCard& pmos, double temperature);

  // Adds `cell` to `circuit` as instance `instance`. Net mapping, in
  // order: ground aliases ("vss"/"gnd"/"0") stay ground; nets present in
  // `pin_nets` map to the given flat net; "vdd" defaults to the flat net
  // "vdd"; every other net becomes the internal node "<instance>.<net>".
  // Transistor names get the same "<instance>." prefix.
  void instantiate(spice::Circuit& circuit, const CellDef& cell,
                   const std::string& instance,
                   const std::map<std::string, std::string>& pin_nets) const;

  // A device with the shared Ids cache for (polarity, flavor), NFIN set
  // to `fins` — the characterizer's construction, verbatim. The first
  // request for a variant builds its table (see build_tables).
  device::FinFet make_fet(device::Polarity polarity, int fins,
                          VtFlavor flavor) const;

  // Builds, on `threads` (see exec::thread_count), the table of every
  // (polarity, flavor) variant the transistors of `cells` use and that
  // is not built yet. Optional: make_fet builds a missing table itself,
  // but at the default thread count and, inside an exec task, serially.
  void build_tables(std::span<const CellDef> cells, int threads) const;

  double temperature() const { return temperature_; }

 private:
  // Tabulated currents of one (polarity, flavor) variant, built at
  // NFIN = 1 on first request and shared by every instance.
  struct Table {
    std::once_flag once;
    std::shared_ptr<const device::IdsCache> cache;
  };
  const std::shared_ptr<const device::IdsCache>& table(
      device::Polarity polarity, VtFlavor flavor, int threads) const;
  // The modelcard of a variant at `fins` fins (<= 0 keeps the card's own).
  device::ModelCard card(device::Polarity polarity, VtFlavor flavor,
                         int fins) const;

  device::ModelCard nmos_, pmos_;
  double temperature_;
  mutable Table tables_[4];  // indexed [flavor * 2 + polarity]
};

// A chained path: `length` instances of `cell` ("u0", "u1", ...), stage
// i's pin `input` driven by net "n<i>" and its first output driving
// "n<i+1>"; "n0" is the chain input. Side inputs tie to vdd or ground per
// `side_inputs` (pins absent from the map default to ground). The caller
// adds the supply/stimulus sources on "vdd" and "n0" and any output load.
spice::Circuit make_cell_chain(const NetlistFlattener& flattener,
                               const CellDef& cell, std::size_t length,
                               const std::string& input,
                               const std::map<std::string, bool>& side_inputs);

// Transistor-level SRAM column array: rows x cols 6T SLVT bitcells (the
// bitcell the macro model assumes, built raw here since the logic catalog
// has no SRAM cell), per-column precharge PMOS pair, bitline wire
// capacitance, and read stimulus on one wordline.
struct SramColumnSpec {
  int rows = 16;
  int cols = 1;
  int accessed_row = 0;
  double vdd = 0.7;
  // Read sequence: precharge releases (pc gate rises) at t_precharge,
  // the accessed wordline rises at t_wordline.
  double t_precharge = 40e-12;
  double t_wordline = 60e-12;
  double t_rise = 8e-12;
  // Bitline wire capacitance per attached cell [F]; the default matches
  // the macro model's kBitlineWireCapPerCell so the simulated discharge
  // sees the same wire load SramModel::timing assumes.
  double bitline_wire_cap_per_cell = 0.05e-15;
};

struct SramColumn {
  spice::Circuit circuit;
  std::vector<std::string> bitlines;      // "bl<c>"
  std::vector<std::string> bitlines_bar;  // "blb<c>"
  std::string wordline;                   // accessed row's wordline net
};

// Every cell stores 0 (weak bias resistors pin the latch state, so the DC
// operating point is deterministic), so a read discharges bl<c> through
// the access + pull-down stack while blb<c> stays precharged.
SramColumn make_sram_column(const NetlistFlattener& flattener,
                            const SramColumnSpec& spec);

}  // namespace cryo::cells
