#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "device/finfet.hpp"
#include "device/ids_cache.hpp"
#include "device/modelcard.hpp"

namespace cryo::device {
namespace {

TEST(ModelCard, NamedParameterRoundTrip) {
  ModelCard card;
  for (const auto& name : ModelCard::parameter_names()) {
    const double original = card.get(name);
    card.set(name, original * 1.25 + 1e-6);
    EXPECT_NEAR(card.get(name), original * 1.25 + 1e-6, 1e-18) << name;
    card.set(name, original);
  }
}

TEST(ModelCard, UnknownParameterThrows) {
  ModelCard card;
  EXPECT_THROW(card.get("NOPE"), std::out_of_range);
  EXPECT_THROW(card.set("NOPE", 1.0), std::out_of_range);
}

TEST(ModelCard, CoxPositive) {
  ModelCard card;
  EXPECT_GT(card.cox(), 0.01);
  EXPECT_LT(card.cox(), 0.1);
}

// --- Paper-anchored behaviour of the golden devices ----------------------

TEST(GoldenDevices, VthRiseMatchesPaper) {
  // Paper Sec. III-A: +47 % (n) and +39 % (p) threshold rise at 10 K.
  const FinFet n300(golden_nmos(), 300.0), n10(golden_nmos(), 10.0);
  const FinFet p300(golden_pmos(), 300.0), p10(golden_pmos(), 10.0);
  const double rise_n = (n10.vth() - n300.vth()) / n300.vth();
  const double rise_p = (p10.vth() - p300.vth()) / p300.vth();
  EXPECT_NEAR(rise_n, 0.47, 0.05);
  EXPECT_NEAR(rise_p, 0.39, 0.05);
}

TEST(GoldenDevices, SubthresholdSwing) {
  const FinFet n300(golden_nmos(), 300.0), n10(golden_nmos(), 10.0);
  // Room temperature: near the thermal limit (60 mV/dec x ideality).
  EXPECT_GT(n300.subthreshold_swing(), 0.058);
  EXPECT_LT(n300.subthreshold_swing(), 0.085);
  // Cryogenic: saturated at the band-tail floor, far below kT/q ln10.
  EXPECT_LT(n10.subthreshold_swing(), 0.015);
  EXPECT_GT(n10.subthreshold_swing(), 0.002);
}

TEST(GoldenDevices, IoffCollapsesAtCryo) {
  for (const auto& card : {golden_nmos(), golden_pmos()}) {
    const FinFet f300(card, 300.0), f10(card, 10.0);
    EXPECT_GT(f300.ioff(0.7) / f10.ioff(0.7), 50.0);
  }
}

TEST(GoldenDevices, IonOnlySlightlyAffected) {
  // Paper Fig. 3 / Table 1: I_ON similar at both temperatures.
  for (const auto& card : {golden_nmos(), golden_pmos()}) {
    const FinFet f300(card, 300.0), f10(card, 10.0);
    const double ratio = f10.ion(0.7) / f300.ion(0.7);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
  }
}

TEST(GoldenDevices, OnOffRatioHealthy) {
  const FinFet n300(golden_nmos(), 300.0);
  EXPECT_GT(n300.ion(0.7) / n300.ioff(0.7), 1e3);
}

// --- Model smoothness / symmetry properties -------------------------------

struct BiasCase {
  Polarity polarity;
  double temperature;
};

class FinFetProperty : public ::testing::TestWithParam<BiasCase> {
 protected:
  FinFet fet() const {
    const auto& p = GetParam();
    return FinFet(p.polarity == Polarity::kNmos ? golden_nmos()
                                                : golden_pmos(),
                  p.temperature);
  }
  double sign() const {
    return GetParam().polarity == Polarity::kPmos ? -1.0 : 1.0;
  }
};

TEST_P(FinFetProperty, CurrentMonotoneInVgs) {
  const FinFet f = fet();
  const double s = sign();
  double prev = std::abs(f.drain_current(0.0, s * 0.7));
  for (double v = 0.02; v <= 0.9; v += 0.02) {
    const double cur = std::abs(f.drain_current(s * v, s * 0.7));
    EXPECT_GE(cur, prev * 0.999) << "vgs=" << v;
    prev = cur;
  }
}

TEST_P(FinFetProperty, CurrentMonotoneInVds) {
  const FinFet f = fet();
  const double s = sign();
  double prev = 0.0;
  for (double v = 0.0; v <= 0.9; v += 0.02) {
    const double cur = std::abs(f.drain_current(s * 0.7, s * v));
    EXPECT_GE(cur, prev - 1e-12) << "vds=" << v;
    prev = cur;
  }
}

TEST_P(FinFetProperty, DrainSourceSymmetry) {
  const FinFet f = fet();
  // Swapping drain and source negates the current: I(vgs, vds) must equal
  // -I(vgs - vds, -vds).
  for (double vgs : {0.2, 0.4, 0.7}) {
    for (double vds : {0.1, 0.3, 0.6}) {
      const double s = sign();
      const double fwd = f.drain_current(s * vgs, s * vds);
      const double rev = f.drain_current(s * (vgs - vds), -s * vds);
      EXPECT_NEAR(fwd, -rev, std::abs(fwd) * 1e-9 + 1e-18);
    }
  }
}

TEST_P(FinFetProperty, ZeroVdsZeroCurrent) {
  const FinFet f = fet();
  EXPECT_NEAR(f.drain_current(sign() * 0.7, 0.0), 0.0, 1e-12);
}

TEST_P(FinFetProperty, PositiveTransconductanceWhenOn) {
  const FinFet f = fet();
  const double s = sign();
  const auto g = f.conductances(s * 0.6, s * 0.6);
  // For PMOS both signs flip, so gm/gds stay positive in this convention.
  EXPECT_GT(std::abs(g.gm), 1e-7);
  EXPECT_GT(std::abs(g.gds), 1e-9);
}

TEST_P(FinFetProperty, CapacitancesPositive) {
  const auto c = fet().capacitances();
  EXPECT_GT(c.cgs, 0.0);
  EXPECT_GT(c.cgd, 0.0);
  EXPECT_GT(c.cdb, 0.0);
  EXPECT_GT(c.csb, 0.0);
}

TEST_P(FinFetProperty, NfinScalesCurrent) {
  const auto& p = GetParam();
  ModelCard card =
      p.polarity == Polarity::kNmos ? golden_nmos() : golden_pmos();
  card.NFIN = 1;
  const FinFet f1(card, p.temperature);
  card.NFIN = 4;
  const FinFet f4(card, p.temperature);
  const double s = sign();
  EXPECT_NEAR(f4.drain_current(s * 0.7, s * 0.7),
              4.0 * f1.drain_current(s * 0.7, s * 0.7),
              std::abs(f1.drain_current(s * 0.7, s * 0.7)) * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllCorners, FinFetProperty,
    ::testing::Values(BiasCase{Polarity::kNmos, 300.0},
                      BiasCase{Polarity::kNmos, 10.0},
                      BiasCase{Polarity::kPmos, 300.0},
                      BiasCase{Polarity::kPmos, 10.0}),
    [](const auto& info) {
      return std::string(info.param.polarity == Polarity::kNmos ? "n" : "p") +
             (info.param.temperature < 100 ? "10K" : "300K");
    });

// --- Tabulated current cache ----------------------------------------------

class IdsCacheAccuracy : public ::testing::TestWithParam<BiasCase> {};

TEST_P(IdsCacheAccuracy, MatchesAnalyticModel) {
  const auto& p = GetParam();
  ModelCard card =
      p.polarity == Polarity::kNmos ? golden_nmos() : golden_pmos();
  card.NFIN = 1;
  FinFet exact(card, p.temperature);
  FinFet cached(card, p.temperature);
  cached.set_cache(std::make_shared<IdsCache>(exact));

  Rng rng(5);
  const double s = p.polarity == Polarity::kPmos ? -1.0 : 1.0;
  for (int i = 0; i < 400; ++i) {
    const double vgs = s * rng.uniform(-0.1, 0.9);
    const double vds = s * rng.uniform(0.0, 0.9);
    const double a = exact.drain_current(vgs, vds);
    const double b = cached.drain_current(vgs, vds);
    if (std::abs(a) > 1e-12) {
      EXPECT_NEAR(b / a, 1.0, 0.03)
          << "vgs=" << vgs << " vds=" << vds << " exact=" << a;
    } else {
      EXPECT_NEAR(b, a, 2e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorners, IdsCacheAccuracy,
    ::testing::Values(BiasCase{Polarity::kNmos, 300.0},
                      BiasCase{Polarity::kNmos, 10.0},
                      BiasCase{Polarity::kPmos, 300.0},
                      BiasCase{Polarity::kPmos, 10.0}),
    [](const auto& info) {
      return std::string(info.param.polarity == Polarity::kNmos ? "n" : "p") +
             (info.param.temperature < 100 ? "10K" : "300K");
    });

TEST(IdsCache, OutOfRangeFallsBackToAnalytic) {
  ModelCard card = golden_nmos();
  FinFet exact(card, 300.0);
  FinFet cached(card, 300.0);
  cached.set_cache(std::make_shared<IdsCache>(exact));
  // Beyond the table's vgs ceiling both paths must agree (analytic path).
  const double a = exact.drain_current(1.5, 0.7);
  const double b = cached.drain_current(1.5, 0.7);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(IdsCache, RowParallelBuildIsBitIdenticalToSerial) {
  ModelCard card = golden_pmos();
  card.NFIN = 1;
  const FinFet reference(card, 10.0);
  const IdsCache serial(reference, 1);
  const IdsCache parallel(reference, 4);
  // Grid nodes (2.5 mV pitch from vgs = -0.35) and points between them.
  for (int i = 0; i < 560; i += 7) {
    for (int j = 0; j < 420; j += 11) {
      const double vgs = -0.35 + 2.5e-3 * i;
      const double vds = 2.5e-3 * j;
      EXPECT_EQ(serial.ids_per_fin(vgs, vds), parallel.ids_per_fin(vgs, vds))
          << "node vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(serial.ids_per_fin(vgs + 1.1e-3, vds + 0.7e-3),
                parallel.ids_per_fin(vgs + 1.1e-3, vds + 0.7e-3))
          << "between vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST(InitialGuess, IsDetunedFromGolden) {
  const auto guess = initial_guess(Polarity::kNmos);
  const auto golden = golden_nmos();
  EXPECT_NE(guess.VTH0, golden.VTH0);
  EXPECT_EQ(guess.TVTH, 0.0);  // no cryo awareness before extraction
}

}  // namespace
}  // namespace cryo::device
