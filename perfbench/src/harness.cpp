#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exec/exec.hpp"
#include "obs/metrics.hpp"

namespace cryobench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans ---------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, const char* layer) : tracer_(tracer) {
  if (tracer_) tracer_->stack_.push_back({layer, now_s(), 0.0});
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  const Open open = tracer_->stack_.back();
  tracer_->stack_.pop_back();
  const double duration = now_s() - open.start;
  Layer& layer = tracer_->layers_[open.layer];
  layer.self_s += duration - open.child_s;
  ++layer.calls;
  if (!tracer_->stack_.empty()) tracer_->stack_.back().child_s += duration;
}

double Tracer::self_s(const std::string& layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0.0 : it->second.self_s;
}

std::uint64_t Tracer::calls(const std::string& layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0 : it->second.calls;
}

double Tracer::attributed_s() const {
  double total = 0.0;
  for (const auto& [name, layer] : layers_) total += layer.self_s;
  return total;
}

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 21) {  // no percentile above the median has ten beyond it
    t.value = values.back();
    t.percentile = 100.0;
    return t;
  }
  // Index i has n-1-i samples above it and sits at percentile 100(i+1)/n.
  const std::size_t by_count = n - 11;
  const auto by_p99 =
      static_cast<std::size_t>(std::floor(0.99 * static_cast<double>(n))) - 1;
  const std::size_t i = std::min(by_count, by_p99);
  t.value = values[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

bool another_pass(double start, std::size_t passes, double seconds) {
  if (passes == 0) return true;
  const double elapsed = now_s() - start;
  return elapsed + 0.5 * elapsed / static_cast<double>(passes) < seconds;
}

// ---- obs counters ----------------------------------------------------------

namespace {

// Every counter the program exports that a workload here can move.
constexpr const char* kCounters[] = {
    "artifacts.hits",        "artifacts.misses",
    "artifacts.regenerated", "calib.lm_fits",
    "calib.lm_iterations",   "charlib.arc_retries",
    "charlib.cells_characterized", "charlib.failed_arcs",
    "charlib.grid_points",   "charlib.runs",
    "charlib.settle_retries", "charlib.tasks",
    "exec.parallel_regions", "exec.tasks_executed",
    "flow.engine_builds",    "gatesim.events",
    "gatesim.glitches_cancelled", "gatesim.queue_resizes",
    "interp.extrapolations", "interp.libraries",
    "power.analyses",        "power.measured_analyses",
    "riscv.instructions",    "riscv.runs",
    "serve.coalesced",       "serve.executed",
    "serve.rejected",        "serve.requests",
    "spice.nr_iterations",   "spice.transient_rejected_steps",
    "spice.transient_retries", "spice.transient_steps",
    "spice.transients",      "spice.solve_errors",
    "sta.gates_propagated",  "sta.runs",
    "sweep.corner_cache.evict", "sweep.corner_cache.hit",
    "sweep.corner_cache.miss", "sweep.corners",
    "sweep.failures",
};

constexpr const char* kHistogramSums[] = {
    "exec.task_seconds",
    "exec.queue_wait_seconds",
};

}  // namespace

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot s;
  auto& reg = cryo::obs::registry();
  for (const char* name : kCounters)
    s.values_[name] = static_cast<double>(reg.counter(name).value());
  for (const char* name : kHistogramSums)
    s.values_[std::string(name) + ".sum"] = reg.histogram(name).sum();
  return s;
}

std::map<std::string, double> CounterSnapshot::since(
    const CounterSnapshot& earlier) const {
  std::map<std::string, double> out;
  for (const auto& [name, v] : values_) {
    const auto it = earlier.values_.find(name);
    out[name] = v - (it == earlier.values_.end() ? 0.0 : it->second);
  }
  return out;
}

// ---- digest ---------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(std::string_view label, double value) {
  bytes(label.data(), label.size());
  bytes(&value, sizeof value);
}

void Digest::add(std::string_view label, std::uint64_t value) {
  bytes(label.data(), label.size());
  bytes(&value, sizeof value);
}

void Digest::add(std::string_view label, std::string_view text) {
  bytes(label.data(), label.size());
  bytes(text.data(), text.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---- checks ----------------------------------------------------------------

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "cryobench: check failed: %s\n", what.c_str());
  }
  return ok;
}

// ---- per-layer metrics -----------------------------------------------------

namespace {

// Counters whose value depends on thread interleaving (corner-cache
// eviction races in the 4-thread sweep, service coalescing, scheduler
// timing). Every other counter listed above repeats exactly for a given
// workload and seed.
bool interleaving_dependent(const std::string& name) {
  static const std::set<std::string> kVarying = {
      "artifacts.hits",         "exec.parallel_regions",
      "exec.queue_wait_seconds.sum", "exec.task_seconds.sum",
      "exec.tasks_executed",    "flow.engine_builds",
      "interp.extrapolations",  "interp.libraries",
      "serve.coalesced",        "serve.executed",
      "serve.rejected",         "serve.requests",
      "sweep.corner_cache.evict", "sweep.corner_cache.hit",
      "sweep.corner_cache.miss",
  };
  return kVarying.count(name) > 0;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in, const Checks& checks) {
  const Tracer empty;
  const Tracer& t = in.tracer ? *in.tracer : empty;
  const auto& p = in.program;
  const double threads = static_cast<double>(cryo::exec::thread_count());
  return {
      {"device.table_s", t.self_s("device"), "s"},
      // The replay's own count: each Characterizer it constructs tabulates
      // four IdsCache tables. The program exports no such counter.
      {"device.table_builds", 4.0 * static_cast<double>(t.calls("device")),
       "replay-count"},
      {"exec.busy_ratio",
       ratio(get(p, "exec.task_seconds.sum"), threads * in.program_wall_s),
       "ratio"},
      {"exec.queue_wait_s", get(p, "exec.queue_wait_seconds.sum"), "s"},
      {"spice.nr_iterations", get(p, "spice.nr_iterations"), "count"},
      {"spice.transient_steps", get(p, "spice.transient_steps"), "count"},
      {"spice.rejected_steps", get(p, "spice.transient_rejected_steps"),
       "count"},
      {"spice.transient_retries", get(p, "spice.transient_retries"), "count"},
      {"charlib.characterize_s", t.self_s("charlib"), "s"},
      {"charlib.grid_points", get(p, "charlib.grid_points"), "count"},
      {"charlib.arc_retries", get(p, "charlib.arc_retries"), "count"},
      {"charlib.failed_arcs", get(p, "charlib.failed_arcs"), "count"},
      {"calib.extract_s", t.self_s("calib"), "s"},
      {"calib.lm_iterations", get(p, "calib.lm_iterations"), "count"},
      {"liberty.write_s", t.self_s("liberty.write"), "s"},
      {"liberty.read_s", t.self_s("liberty.read"), "s"},
      {"liberty.interp_s", t.self_s("liberty.interp"), "s"},
      {"liberty.interp_libraries", get(p, "interp.libraries"), "count"},
      {"core.corner_build_s", t.self_s("core"), "s"},
      {"core.corner_cache_miss", get(p, "sweep.corner_cache.miss"), "count"},
      {"core.corner_cache_evict", get(p, "sweep.corner_cache.evict"),
       "count"},
      {"sweep.corner_s", median(in.sweep_corner_s), "s"},
      {"core.artifact_hits", get(p, "artifacts.hits"), "count"},
      {"core.artifact_misses", get(p, "artifacts.misses"), "count"},
      {"sta.engine_build_s", t.self_s("sta.engine_build"), "s"},
      {"sta.run_s", t.self_s("sta.run"), "s"},
      {"sta.runs", get(p, "sta.runs"), "count"},
      {"sta.gates_propagated", get(p, "sta.gates_propagated"), "count"},
      {"power.analyze_s", t.self_s("power"), "s"},
      {"power.analyses",
       get(p, "power.analyses") + get(p, "power.measured_analyses"), "count"},
      {"sram.model_s", t.self_s("sram"), "s"},
      {"sram.models_built", static_cast<double>(t.calls("sram")),
       "replay-count"},
      {"synth.soc_s", t.self_s("synth"), "s"},
      {"riscv.iss_s", t.self_s("riscv"), "s"},
      {"riscv.instructions", get(p, "riscv.instructions"), "count"},
      {"riscv.host_mips",
       ratio(get(in.replay, "riscv.instructions"), t.self_s("riscv")) / 1e6,
       "MIPS"},
      {"gatesim.extract_s", t.self_s("gatesim"), "s"},
      {"gatesim.events", get(p, "gatesim.events"), "count"},
      {"gatesim.events_per_s",
       ratio(get(in.replay, "gatesim.events"), t.self_s("gatesim")), "1/s"},
      {"serve.queue_ms", median(in.queue_ms), "ms"},
      {"serve.service_ms", median(in.service_ms), "ms"},
      {"serve.rejected", get(p, "serve.rejected"), "count"},
      {"serve.executed", get(p, "serve.executed"), "count"},
      {"serve.coalesced", get(p, "serve.coalesced"), "count"},
      {"serve.coalesce_ratio", ratio(get(p, "serve.executed"), in.served),
       "ratio"},
      {"gen.lag_ms", tail(in.gen_lag_ms).value, "ms"},
      {"trace.attributed_share", ratio(t.attributed_s(), in.traced_wall_s),
       "ratio"},
      {"trace.overhead_s", in.traced_wall_s - in.untraced_wall_s, "s"},
      {"failed_ratio",
       ratio(static_cast<double>(checks.failed()),
             static_cast<double>(checks.attempted())),
       "ratio"},
      {"lookup_tail_ms", tail(in.lookup_ms).value, "ms"},
  };
}

std::vector<std::string> layer_report(const LayerInputs& in) {
  std::vector<std::string> lines;
  char buf[256];
  const Tracer empty;
  const Tracer& t = in.tracer ? *in.tracer : empty;
  std::vector<std::pair<std::string, Tracer::Layer>> layers(
      t.layers().begin(), t.layers().end());
  std::sort(layers.begin(), layers.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  lines.push_back("per-layer self time (traced replay):");
  std::snprintf(buf, sizeof buf, "  %-18s %12s %8s %8s", "layer", "self_s",
                "share", "calls");
  lines.push_back(buf);
  for (const auto& [name, layer] : layers) {
    std::snprintf(buf, sizeof buf, "  %-18s %12.4f %7.1f%% %8llu",
                  name.c_str(), layer.self_s,
                  100.0 * ratio(layer.self_s, in.traced_wall_s),
                  static_cast<unsigned long long>(layer.calls));
    lines.push_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "  attributed %.4f s of %.4f s traced wall (%.1f%%); "
                "untraced %.4f s, overhead %+.4f s",
                t.attributed_s(), in.traced_wall_s,
                100.0 * ratio(t.attributed_s(), in.traced_wall_s),
                in.untraced_wall_s, in.traced_wall_s - in.untraced_wall_s);
  lines.push_back(buf);
  lines.push_back("program counters (untraced pass; 'exact' repeats across "
                  "runs, 'varies' depends on thread interleaving):");
  for (const auto& [name, v] : in.program) {
    if (v == 0.0) continue;
    std::snprintf(buf, sizeof buf, "  %-32s %16.6g  %s", name.c_str(), v,
                  interleaving_dependent(name) ? "varies" : "exact");
    lines.push_back(buf);
  }
  return lines;
}

// ---- process and files -------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string hash_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return "";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  Digest d;
  for (const auto& f : files) d.add(f.filename().string(), read_text(f));
  return d.hex();
}

}  // namespace cryobench
