// Benchmark harness shared by the four cryobench workloads: clocks,
// in-benchmark layer spans, sample statistics, obs counter deltas, the
// output digest, and the result record main() renders.
//
// Spans live only in the benchmark: a workload's traced run replays its
// calls directly into the layer modules and wraps each call in a Span, so
// the program under test is never modified or rebuilt with tracing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cryobench {

double now_s();

// Peak resident set of this process so far [MB].
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Parent directory of the workloads' private artifact stores.
  std::string store_root = ".bench_build/stores";
};

// ---- spans ---------------------------------------------------------------

// Single-threaded span recorder. Self time of a layer is the time its spans
// were open minus the time covered by spans opened inside them.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  struct Layer {
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };

  const std::map<std::string, Layer>& layers() const { return layers_; }
  double self_s(const std::string& layer) const;
  std::uint64_t calls(const std::string& layer) const;
  double attributed_s() const;

 private:
  struct Open {
    const char* layer;
    double start;
    double child_s;
  };
  std::vector<Open> stack_;
  std::map<std::string, Layer> layers_;
};

// A span on `tracer`; inert when tracer is null (the untraced path).
#define CRYOBENCH_SPAN(tracer, layer) \
  ::cryobench::Tracer::Span CRYOBENCH_CAT(span_, __LINE__)(tracer, layer)
#define CRYOBENCH_CAT2(a, b) a##b
#define CRYOBENCH_CAT(a, b) CRYOBENCH_CAT2(a, b)

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values);

// The highest percentile <= p99 with at least ten samples beyond it. With
// fewer than 21 samples that percentile would not even exceed the median;
// the maximum is reported instead (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

// ---- obs counters ----------------------------------------------------------

// Values of the program's obs counters and histogram sums at one instant.
class CounterSnapshot {
 public:
  static CounterSnapshot take();
  // this - earlier, per instrument.
  std::map<std::string, double> since(const CounterSnapshot& earlier) const;

 private:
  std::map<std::string, double> values_;
};

// ---- digest ---------------------------------------------------------------

// FNV-1a over the simulated results a speed-only change must leave
// identical; rendered as 16 hex digits.
class Digest {
 public:
  void add(std::string_view label, double value);
  void add(std::string_view label, std::uint64_t value);
  void add(std::string_view label, std::string_view text);
  std::string hex() const;
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* data, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---- checks and result -----------------------------------------------------

// Counts checked operations; every failed check is reported on stderr and
// makes the run incorrect.
class Checks {
 public:
  // Records one checked outcome.
  bool expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Operations completed and the seconds they took, summed over a window.
struct Throughput {
  double ops = 0.0;
  double seconds = 0.0;
  double rate() const { return seconds > 0.0 ? ops / seconds : 0.0; }
};

// What a workload measured. main() turns it into the metric set.
struct Samples {
  std::vector<double> setup_s;        // one per set-up repetition
  std::vector<double> flow_s;         // one per pass
  std::vector<double> cold_corner_s;  // per pass, burst or set-up
  std::vector<double> analysis_ms;    // timing / power class
  std::vector<double> lookup_ms;      // leakage / sram class
  double capacity_rps = 0.0;
  // Peak resident set, read at a point fixed by the workload (not at the
  // end of the window, so it does not grow with the number of passes).
  double peak_rss_mb = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  Samples samples;
  Checks checks;
  std::vector<Metric> layer_metrics;  // traced run only
  std::vector<std::string> report;    // human-readable lines
  std::string digest;
};

// An untraced run repeats its set-up at least kSetupRepeats times and
// until kSetupBudgetS seconds were spent (at most kSetupMaxRepeats times);
// setup_s is the median. Each repetition's state replaces the last.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kSetupMaxRepeats = 200;
inline constexpr double kSetupBudgetS = 1.0;

// Times `setup` (once when `once`), calling `teardown` untimed before each
// repetition after the first.
template <typename Setup, typename Teardown>
void repeat_setup(bool once, Samples& s, Setup&& setup, Teardown&& teardown) {
  double spent = 0.0;
  for (int rep = 0; rep < kSetupMaxRepeats; ++rep) {
    if (rep > 0) teardown();
    const double t0 = now_s();
    setup();
    const double dt = now_s() - t0;
    s.setup_s.push_back(dt);
    spent += dt;
    if (once || (rep + 1 >= kSetupRepeats && spent >= kSetupBudgetS)) return;
  }
}

// Whether a loop of passes that started at `start` and has run `passes`
// passes should start another within a `seconds` window: at least one
// pass, and another only while half of an average pass still fits.
bool another_pass(double start, std::size_t passes, double seconds);

// Runs `pass` (returning its Digest) as often as `another_pass` allows and
// checks that every pass computes the first one's digest. Records peak RSS
// after the first pass and reports its growth over the rest. Returns the
// first pass's digest.
template <typename Pass>
std::string repeat_passes(Run& run, double seconds, Pass&& pass) {
  const double start = now_s();
  std::string first;
  std::size_t passes = 0;
  while (another_pass(start, passes, seconds)) {
    const std::string d = pass().hex();
    if (passes++ == 0) {
      first = d;
      run.samples.peak_rss_mb = peak_rss_mb();
    }
    run.checks.expect(d == first, "pass digest repeats");
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu passes; peak RSS %.1f MB after the first, %.1f MB after "
                "the last",
                passes, run.samples.peak_rss_mb, peak_rss_mb());
  run.report.push_back(buf);
  return first;
}

// What a traced run measured, turned into the per-layer metrics.
struct LayerInputs {
  const Tracer* tracer = nullptr;         // spans of the traced replay
  std::map<std::string, double> program;  // counter deltas, program's pass
  std::map<std::string, double> replay;   // counter deltas, traced replay
  double program_wall_s = 0.0;  // wall of the program's pass
  double untraced_wall_s = 0.0;  // wall of the untraced replay
  double traced_wall_s = 0.0;
  std::vector<double> sweep_corner_s;  // per sweep corner (flow_warm)
  // Service phase (serve workloads).
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::vector<double> gen_lag_ms;
  double served = 0.0;  // requests attempted through the service
  // Lookup latencies of the program's pass. Their tail is reported here,
  // not as an end-to-end metric: on ~1 ms operations it follows the host's
  // scheduling jitter more than the program.
  std::vector<double> lookup_ms;
};

// Every per-layer metric, in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const LayerInputs& in, const Checks& checks);
// The per-layer table printed by a traced run.
std::vector<std::string> layer_report(const LayerInputs& in);

// FNV-1a of every regular file directly under `dir`, name and content, in
// name order; "" when the directory is missing.
std::string hash_dir(const std::string& dir);

// Reads a whole file; throws std::runtime_error when unreadable.
std::string read_text(const std::string& path);

}  // namespace cryobench
