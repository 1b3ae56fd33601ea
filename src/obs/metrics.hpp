// Process-wide metrics registry: the counting half of cryo::obs.
//
// Three instrument kinds, all safe to update from any thread with relaxed
// atomics (no locks on the hot path):
//
//   obs::registry().counter("spice.nr_iterations").add(n);
//   obs::registry().gauge("exec.thread_count").set(8);
//   obs::registry().histogram("exec.task_seconds").observe(dt);
//
// Registration (the name -> instrument lookup) takes a mutex, so hot paths
// should resolve once and cache the reference:
//
//   static obs::Counter& iters =
//       obs::registry().counter("spice.nr_iterations");
//
// References returned by the registry stay valid for the process lifetime;
// reset() zeroes values but never invalidates them. snapshot_json() renders
// every instrument, sorted by name, into the JSON object embedded in every
// obs::BenchReport.
//
// Instruments never feed back into computation, so instrumented code
// produces byte-identical outputs with or without anyone reading them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/report.hpp"

namespace cryo::obs {

// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written value (thread count, final residual, queue depth...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // Relative adjustment (CAS loop; gauges are low-frequency).
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds: a
// sample v lands in the first bucket with v <= bounds[i], or in the
// overflow bucket past the last bound. Bucket layout is fixed at
// registration, so observe() is a relaxed add with no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  // `n` exponentially spaced bounds starting at `lo`, each `factor` apart.
  // The registry's default for *_seconds histograms is
  // exponential(1e-6, 4.0, 14): 1 us .. ~268 s.
  static std::vector<double> exponential_bounds(double lo, double factor,
                                                int n);

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Largest sample observed since the last reset (0 when empty). Tracked
  // exactly, so quantile() can stay finite even for overflow samples.
  double max_value() const { return max_.load(std::memory_order_relaxed); }
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  double bound(std::size_t i) const { return bounds_[i]; }
  // Bucket i covers (bounds[i-1], bounds[i]]; index bounds_.size() is the
  // overflow bucket.
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Estimated q-quantile (q in [0, 1]) for non-negative samples, e.g.
  // quantile(0.99) = p99. Deterministic bucket interpolation: the target
  // rank q*count is located in the cumulative bucket counts and linearly
  // interpolated inside its bucket (bucket 0 spans [0, bounds[0]]); ranks
  // past the last bound land in the overflow bucket and report
  // max_value(). The result is clamped to max_value(), so it is always
  // finite and never exceeds an actually-observed sample. Returns 0 when
  // the histogram is empty. Service latency gates (serve.latency.*) read
  // p50/p95/p99 through this instead of re-parsing snapshot JSON.
  double quantile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Registers with the given bounds on first use; later calls with the
  // same name return the existing histogram (bounds ignored). Empty bounds
  // select the default latency layout (see exponential_bounds above).
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  // All instruments as one JSON object, names sorted:
  //   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  Json snapshot_json() const;

  // Zeroes every instrument; registrations (and references) survive.
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

// The process-wide registry.
Registry& registry();

}  // namespace cryo::obs
