// Shared helpers for the reproduction benches: each bench binary
// regenerates one table or figure of the paper and prints it in a form
// directly comparable with the original (EXPERIMENTS.md records the
// side-by-side numbers).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/flow.hpp"
#include "exec/exec.hpp"
#include "obs/report.hpp"

namespace cryo::bench {

inline void header(const std::string& what, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

// Standardized machine-readable output: every bench writes
// bench-out/BENCH_<name>.json (schema cryosoc-bench-v1) on exit. Record
// headline numbers into `report.results()` as they are printed.
inline obs::BenchReport make_report(const std::string& name) {
  obs::BenchReport report(name);
  report.set_threads(exec::thread_count());
  return report;
}

// True when environment variable `name` is set to anything but "" or a
// leading '0' (the quick-mode switches).
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v && *v && *v != '0';
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Quick mode's tiny INV+NAND2 X1 catalog, characterized into the scratch
// store <report dir>/<store> so it never touches the committed artifacts.
inline void use_quick_catalog(core::FlowConfig& config,
                              const std::string& store) {
  config.catalog.only_bases = {"INV", "NAND2"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  config.lib_dir = obs::BenchReport::output_dir() + "/" + store;
}

// Shared flow instance (loads the committed Liberty artifacts; golden
// modelcards — calibration quality is covered by bench_fig3).
inline core::CryoSocFlow& flow() {
  static core::CryoSocFlow f = [] {
    core::FlowConfig config;
    config.calibrate_devices = false;
    return core::CryoSocFlow(config);
  }();
  return f;
}

}  // namespace cryo::bench
