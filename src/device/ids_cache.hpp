// Tabulated per-fin drain current for fast SPICE evaluation.
//
// Characterizing a full library evaluates the compact model tens of
// millions of times; a bilinear table over (vgs, vds) removes the
// transcendental math from the inner loop (~10x end-to-end speedup) while
// staying accurate in both critical regimes:
//   * the vgs direction is stored in log-current so the subthreshold
//     exponential interpolates exactly,
//   * the vds direction is normalized by f(vds) = vds / (vds + 20 mV),
//     which factors out the linear zero at vds = 0 so the triode region
//     interpolates accurately too.
//
// The table is built for the normalized NMOS-with-vds>=0 problem of one
// fin; FinFet handles polarity, drain/source swap, and the NFIN
// multiplier before the lookup.
#pragma once

#include <memory>
#include <vector>

#include "device/modelcard.hpp"

namespace cryo::device {

class FinFet;

class IdsCache {
 public:
  // Builds the table by sampling `reference` (a single-fin FinFet at its
  // temperature). Grid: vgs in [-0.35, 1.05], vds in [0, 1.05], 2.5 mV.
  // The vgs rows fill in parallel over cryo::exec on `threads` (see
  // exec::thread_count); every entry is an independent sample, so the
  // table is bit-identical at any thread count. Counted in the obs
  // counter `device.table_builds`.
  explicit IdsCache(const FinFet& reference, int threads = 0);

  // Per-fin current for the normalized problem; callers must pass
  // vds >= 0. Falls back to NaN outside the grid (FinFet then uses the
  // analytic path).
  double ids_per_fin(double vgs, double vds) const;

  bool in_range(double vgs, double vds) const {
    return vgs >= vgs_lo_ && vgs <= vgs_hi_ && vds >= 0.0 && vds <= vds_hi_;
  }

 private:
  double vgs_lo_ = -0.35;
  double vgs_hi_ = 1.05;
  double vds_hi_ = 1.05;
  double step_ = 2.5e-3;
  std::size_t n_vgs_ = 0;
  std::size_t n_vds_ = 0;
  std::vector<float> logval_;  // log(ids / f(vds) + eps), row-major [vgs][vds]
};

}  // namespace cryo::device
