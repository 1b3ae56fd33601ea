#include "device/ids_cache.hpp"

#include <cmath>

#include "device/finfet.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"

namespace cryo::device {
namespace {

// vds normalization: removes the linear zero at vds = 0 from the stored
// quantity so bilinear interpolation stays accurate in triode.
double f_vds(double vds) { return vds / (vds + 0.02); }

constexpr double kEps = 1e-30;

}  // namespace

IdsCache::IdsCache(const FinFet& reference, int threads) {
  static obs::Counter& builds =
      obs::registry().counter("device.table_builds");
  builds.add(1);
  n_vgs_ = static_cast<std::size_t>((vgs_hi_ - vgs_lo_) / step_) + 2;
  n_vds_ = static_cast<std::size_t>(vds_hi_ / step_) + 2;
  logval_.resize(n_vgs_ * n_vds_);
  // One task per vgs row: each writes only its own slice of logval_.
  exec::parallel_for(
      n_vgs_,
      [&](std::size_t i) {
        const double vgs = vgs_lo_ + step_ * static_cast<double>(i);
        for (std::size_t j = 0; j < n_vds_; ++j) {
          // Sample the vds = 0 column slightly off zero where ids/f(vds)
          // has a well-defined value.
          const double vds =
              j == 0 ? 0.25e-3 : step_ * static_cast<double>(j);
          const double ids = reference.ids_per_fin_raw(vgs, vds);
          logval_[i * n_vds_ + j] =
              static_cast<float>(std::log(ids / f_vds(vds) + kEps));
        }
      },
      threads);
}

double IdsCache::ids_per_fin(double vgs, double vds) const {
  const double gi = (vgs - vgs_lo_) / step_;
  const double gj = vds / step_;
  const std::size_t i =
      static_cast<std::size_t>(gi < 0.0 ? 0.0 : gi);
  const std::size_t j =
      static_cast<std::size_t>(gj < 0.0 ? 0.0 : gj);
  const std::size_t i0 = i >= n_vgs_ - 1 ? n_vgs_ - 2 : i;
  const std::size_t j0 = j >= n_vds_ - 1 ? n_vds_ - 2 : j;
  const double ti = gi - static_cast<double>(i0);
  const double tj = gj - static_cast<double>(j0);
  const double v00 = logval_[i0 * n_vds_ + j0];
  const double v01 = logval_[i0 * n_vds_ + j0 + 1];
  const double v10 = logval_[(i0 + 1) * n_vds_ + j0];
  const double v11 = logval_[(i0 + 1) * n_vds_ + j0 + 1];
  const double lo = v00 * (1.0 - tj) + v01 * tj;
  const double hi = v10 * (1.0 - tj) + v11 * tj;
  const double logv = lo * (1.0 - ti) + hi * ti;
  return std::exp(logv) * f_vds(vds);
}

}  // namespace cryo::device
