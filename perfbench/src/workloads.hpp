// The four cryobench workloads and what they share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/corner.hpp"
#include "core/flow.hpp"
#include "gatesim/activity.hpp"
#include "harness.hpp"

namespace cryobench {

// Where the committed Liberty artifacts live, relative to the checkout.
inline constexpr const char* kCommittedLibDir = "lib";

// A private artifact store: an empty directory under the benchmark's build
// tree, removed on destruction. No workload ever points the flow at the
// committed lib/.
class Store {
 public:
  Store(const std::string& root, const std::string& tag);
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const std::string& dir() const { return dir_; }
  // Copies the committed lib/*.lib artifacts and their manifests in and
  // checks the copies are byte-identical.
  void copy_committed_libs() const;

 private:
  std::string dir_;
};

// Threads a workload may use: min(4, hardware concurrency), at least 1.
int bench_threads();

// The paper's two corners at the nominal supply.
cryo::core::Corner room();
cryo::core::Corner cryo10();

// The dhrystone-like general-average workload traced on the ISS and run
// through the event simulator: the measured activity every measured-power
// query uses.
struct ActivityRun {
  cryo::riscv::Perf perf;
  cryo::gatesim::MeasuredActivity activity;
};
ActivityRun dhrystone_activity(const cryo::netlist::Netlist& soc,
                               const cryo::charlib::Library& library,
                               double clock_frequency, Tracer* tracer);

// A cold corner built layer by layer, the way CryoSocFlow builds one on an
// artifact miss: store check (core), the Characterizer's IdsCache tables
// (device), characterization (charlib), Liberty and manifest write
// (liberty.write) and the corner's SRAM model (sram), each under a span.
struct ColdCorner {
  cryo::charlib::Library library;
  std::unique_ptr<cryo::sram::SramModel> sram;
};
ColdCorner replay_cold_corner(const cryo::core::FlowConfig& config,
                              const cryo::device::ModelCard& nmos,
                              const cryo::device::ModelCard& pmos,
                              const cryo::core::Corner& corner, Tracer* tracer);

// Sum of per-cell mean leakage: the value a leakage query answers.
double library_leakage(const cryo::charlib::Library& library);

Run flow_cold(const Options& options);
Run flow_warm(const Options& options);
Run serve_warm(const Options& options);
Run serve_cold(const Options& options);

}  // namespace cryobench
