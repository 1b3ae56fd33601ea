// flow_cold and flow_warm: one pass of the paper's flow per iteration.
//
// The untraced pass drives the public CryoSocFlow / sweep surface exactly
// as the examples do. The traced pass replays the same computation
// directly into the layer modules (calib, device, charlib, liberty, synth,
// sta, power, sram, riscv, gatesim) under benchmark spans, because the flow
// hides those boundaries; its digest must equal the untraced pass's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "calib/extraction.hpp"
#include "calib/measurement.hpp"
#include "charlib/characterizer.hpp"
#include "classify/kernels.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "exec/exec.hpp"
#include "liberty/interp.hpp"
#include "liberty/liberty.hpp"
#include "netlist/soc_gen.hpp"
#include "qubit/readout.hpp"
#include "riscv/workloads.hpp"
#include "sweep/sweep.hpp"
#include "synth/synth.hpp"
#include "workloads.hpp"

namespace cryobench {
namespace {

using namespace cryo;
namespace fs = std::filesystem;

constexpr int kQubits = 27;
constexpr int kShots = 100;
const sram::MacroSpec kMacro{512, 64};

double ms_since(double t0) { return (now_s() - t0) * 1e3; }

// ---- inputs ---------------------------------------------------------------

// Seeded inputs of one flow pass; built during set-up.
struct FlowInputs {
  cells::CatalogOptions catalog;  // flow_cold only
  std::vector<qubit::QubitCalibration> calibration;
  std::vector<qubit::Measurement> shots;
};

// The cells the default SoC is built from: every base its generator
// instantiates, plus synthesis' fanout buffer, at X1/X2, and the catalog's
// common extra drive X4 for INV and BUF (synthesis buffers with BUF_X4), LVT
// only. Synthesis sizes among these drives.
cells::CatalogOptions soc_catalog() {
  std::set<std::string> bases = {synth::SynthOptions{}.buffer_base};
  const netlist::Netlist soc = netlist::build_soc();
  for (const auto& gate : soc.gates())
    bases.insert(gate.cell.substr(0, gate.cell.find("_X")));
  cells::CatalogOptions catalog;
  catalog.only_bases.assign(bases.begin(), bases.end());
  catalog.drives = {1, 2};
  catalog.extra_drives_common = {4};
  catalog.include_slvt = false;
  return catalog;
}

FlowInputs make_inputs(std::uint64_t seed, bool with_catalog) {
  FlowInputs in;
  if (with_catalog) in.catalog = soc_catalog();
  qubit::ReadoutModel readout(kQubits, seed);
  in.calibration = readout.calibration();
  in.shots = readout.sample_all(kShots);
  return in;
}

// ---- outputs, checks and digest ---------------------------------------------

struct CornerOut {
  sta::TimingReport timing;
  sram::MacroTiming sram_timing;
  sram::MacroPower sram_power;
  double leakage_w = 0.0;
  std::size_t quarantined = 0;
  std::string liberty_hash;
};

struct SweepPoint {
  double temperature = 0.0;
  double fmax = 0.0;
  double power_w = 0.0;
  double leakage_w = 0.0;
  bool fits = false;
  bool meets = false;
};

// Everything a pass computes that a speed-only change must leave identical.
struct FlowOut {
  CornerOut corner[2];  // 300 K, 10 K
  classify::KernelStats knn;
  classify::KernelStats hdc;  // flow_warm
  power::PowerReport power[4];  // cold: [0] uniform 10 K; warm: uniform,
                                // measured at 300 K, 10 K
  std::size_t power_count = 0;
  std::uint64_t gatesim_events = 0;
  std::uint64_t gatesim_fingerprint = 0;
  std::vector<SweepPoint> sweep;
  bool fits_budget = false;
  bool meets_deadline = false;
};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

Digest check_and_digest(const FlowOut& out, Checks& checks) {
  Digest d;
  const char* names[2] = {"300k", "10k"};
  for (int i = 0; i < 2; ++i) {
    const CornerOut& c = out.corner[i];
    const std::string n = names[i];
    checks.expect(c.quarantined == 0, "no failed arcs at " + n);
    checks.expect(finite_positive(c.timing.fmax), "finite fmax at " + n);
    d.add("fmax" + n, c.timing.fmax);
    d.add("crit" + n, c.timing.critical_delay);
    d.add("endpoint" + n, c.timing.critical_endpoint);
    d.add("sram_access" + n, c.sram_timing.access_time);
    d.add("sram_leak" + n, c.sram_power.leakage);
    d.add("leak" + n, c.leakage_w);
    d.add("liberty" + n, c.liberty_hash);
  }
  checks.expect(out.knn.matches_host, "kNN kernel matches host classifier");
  d.add("knn_cycles", out.knn.cycles_per_classification);
  if (!out.hdc.labels.empty()) {
    checks.expect(out.hdc.matches_host, "HDC kernel matches host classifier");
    d.add("hdc_cycles", out.hdc.cycles_per_classification);
  }
  for (std::size_t i = 0; i < out.power_count; ++i) {
    checks.expect(finite_positive(out.power[i].total()), "finite power");
    d.add("power_dyn", out.power[i].dynamic());
    d.add("power_leak", out.power[i].leakage());
  }
  d.add("gatesim_events", out.gatesim_events);
  d.add("gatesim_fp", out.gatesim_fingerprint);
  for (const SweepPoint& p : out.sweep) {
    checks.expect(finite_positive(p.fmax) && finite_positive(p.power_w),
                  "finite sweep point");
    d.add("sweep_t", p.temperature);
    d.add("sweep_fmax", p.fmax);
    d.add("sweep_power", p.power_w);
    d.add("sweep_leak", p.leakage_w);
    d.add("sweep_fit", std::uint64_t{p.fits});
    d.add("sweep_meet", std::uint64_t{p.meets});
  }
  d.add("fits", std::uint64_t{out.fits_budget});
  d.add("meets", std::uint64_t{out.meets_deadline});
  return d;
}

std::string file_hash(const std::string& path) {
  Digest d;
  d.add("", read_text(path));
  return d.hex();
}

void verdict(FlowOut& out, const power::PowerReport& p10) {
  const sta::TimingReport& t10 = out.corner[1].timing;
  out.fits_budget = p10.total() <= kCoolingBudget10K;
  out.meets_deadline = kQubits * out.knn.cycles_per_classification /
                           t10.fmax <= kFalconDecoherenceTime;
}

classify::KernelStats knn_kernel(const FlowInputs& in,
                                 const riscv::CpuConfig& cpu_config) {
  classify::KnnClassifier knn(in.calibration);
  riscv::Cpu cpu(cpu_config);
  return classify::run_knn_kernel(cpu, knn, in.shots);
}

classify::KernelStats hdc_kernel(const FlowInputs& in,
                                 const riscv::CpuConfig& cpu_config) {
  classify::HdcClassifier hdc(in.calibration);
  riscv::Cpu cpu(cpu_config);
  return classify::run_hdc_kernel(cpu, hdc, in.shots);
}

// ---- flow_cold ----------------------------------------------------------------

core::FlowConfig cold_config(const FlowInputs& in, const Options& o,
                             const std::string& store) {
  core::FlowConfig config;
  config.calibrate_devices = true;
  config.seed = o.seed;
  config.catalog = in.catalog;
  config.lib_dir = store;
  return config;
}

// One flow_cold pass: its flow, the private store it wrote, and what it
// computed. The store outlives the flow.
struct ColdFlow {
  ColdFlow(const FlowInputs& in, const Options& o)
      : store(o.store_root, "flow_cold"),
        flow(cold_config(in, o, store.dir())) {}
  Store store;
  core::CryoSocFlow flow;
  FlowOut out;
};

// The SRAM macro lookups a user makes once a pass's corners exist, at the
// paper's operating corner, 10 K. Every answer must repeat the pass's.
//
// An untraced run makes them in short bursts against the last finished
// pass, between the steps of the next pass and once after the last one,
// with nothing else running. Host speed on a shared machine drifts over
// seconds; bursts every few seconds average that drift.
class SramLookups {
 public:
  SramLookups(Samples& s, Checks& checks) : s_(s), checks_(checks) {}

  // Makes `pass` the target of the following bursts.
  void target(std::shared_ptr<ColdFlow> pass) { target_ = std::move(pass); }

  // `count` lookups against the target, if there is one; returns the
  // seconds they took.
  double burst(int count) {
    if (!target_) return 0.0;
    const double start = now_s();
    const double expected = target_->out.corner[1].sram_timing.access_time;
    for (int i = 0; i < count; ++i) {
      const double t0 = now_s();
      const double access =
          target_->flow.sram_model(cryo10()).timing(kMacro).access_time;
      s_.lookup_ms.push_back(ms_since(t0));
      checks_.expect(access == expected, "sram repeats");
    }
    return now_s() - start;
  }

 private:
  Samples& s_;
  Checks& checks_;
  std::shared_ptr<ColdFlow> target_;
};

// Lookups per burst: between two steps of a pass, and after the last pass.
constexpr int kBurstLookups = 10;
constexpr int kFinalLookups = 40;

// One flow_cold pass through CryoSocFlow from an empty store. Bursts of
// `lookups` run between its steps; no time metric includes them.
// Characterization throughput goes to `cells`.
std::shared_ptr<ColdFlow> cold_pass(const FlowInputs& in, const Options& o,
                                    Samples& s, SramLookups* lookups,
                                    Throughput* cells) {
  const core::Corner corners[2] = {room(), cryo10()};
  double paused = 0.0;
  const auto burst = [&] {
    if (lookups) paused += lookups->burst(kBurstLookups);
  };
  const double t0 = now_s();
  auto cf = std::make_shared<ColdFlow>(in, o);
  core::CryoSocFlow& flow = cf->flow;
  FlowOut& out = cf->out;
  flow.nmos();  // calibrates both polarities
  burst();
  double build_s[2];
  for (int i = 0; i < 2; ++i) {
    const double tc = now_s();
    const auto state = flow.corner_state(corners[i]);
    build_s[i] = now_s() - tc;
    out.corner[i].quarantined = state->library.quarantined_arcs.size();
    if (cells) {
      cells->ops += static_cast<double>(state->library.cells.size());
      cells->seconds += build_s[i];
    }
    burst();
  }
  // One sample per pass, the mean of its two corners, so that a difference
  // between the 300 K and 10 K costs cannot put the median between them.
  s.cold_corner_s.push_back(0.5 * (build_s[0] + build_s[1]));
  flow.soc();
  for (int i = 0; i < 2; ++i) {
    const double ta = now_s();
    out.corner[i].timing = flow.timing(corners[i]);
    // A timing query at the paper's corner, never seen before, waits for
    // the corner's build and then gets its answer.
    if (i == 1) s.analysis_ms.push_back(1e3 * build_s[i] + ms_since(ta));
  }
  out.knn = knn_kernel(in, flow.config().cpu);
  const auto profile =
      flow.activity_from_perf(out.knn.perf, out.corner[1].timing.fmax);
  out.power[0] = flow.workload_power(corners[1], profile);
  out.power_count = 1;
  for (int i = 0; i < 2; ++i) {
    const sram::SramModel model = flow.sram_model(corners[i]);
    out.corner[i].sram_timing = model.timing(kMacro);
    out.corner[i].sram_power = model.power(kMacro);
    out.corner[i].leakage_w = library_leakage(*flow.library(corners[i]));
  }
  verdict(out, out.power[0]);
  s.flow_s.push_back(now_s() - t0 - paused);
  for (int i = 0; i < 2; ++i)
    out.corner[i].liberty_hash = file_hash(
        cf->store.dir() + "/cryo5_" + corners[i].slug() + ".lib");
  return cf;
}

// The same pass replayed layer by layer under spans.
FlowOut cold_replay(const FlowInputs& in, const Options& o, Tracer* tr) {
  Store store(o.store_root, "flow_cold_replay");
  const core::FlowConfig config = cold_config(in, o, store.dir());
  const core::Corner corners[2] = {room(), cryo10()};
  FlowOut out;

  device::ModelCard cards[2];
  {
    CRYOBENCH_SPAN(tr, "calib");
    exec::parallel_for(2, [&](std::size_t i) {
      const auto polarity =
          i == 0 ? device::Polarity::kNmos : device::Polarity::kPmos;
      calib::SiliconOracle oracle(polarity, config.seed + i);
      const auto campaign = calib::run_campaign(oracle, config.vdd + 0.05);
      cards[i] = calib::extract(campaign, polarity).card;
    });
  }
  // The program's own surface for activity_from_perf and SRAM queries, on
  // the cards calibrated above.
  core::FlowConfig helper_config = config;
  helper_config.nmos_override = cards[0];
  helper_config.pmos_override = cards[1];
  core::CryoSocFlow helper(helper_config);
  helper.nmos();
  ColdCorner built[2] = {
      replay_cold_corner(config, cards[0], cards[1], corners[0], tr),
      replay_cold_corner(config, cards[0], cards[1], corners[1], tr)};
  const charlib::Library* libs[2] = {&built[0].library, &built[1].library};
  const sram::SramModel* srams[2] = {built[0].sram.get(), built[1].sram.get()};
  for (int i = 0; i < 2; ++i)
    out.corner[i].quarantined = libs[i]->quarantined_arcs.size();
  netlist::Netlist soc("soc");
  {
    CRYOBENCH_SPAN(tr, "synth");
    soc = netlist::build_soc(config.soc);
    synth::optimize(soc, *libs[0]);
  }
  std::unique_ptr<sta::StaEngine> engines[2];
  for (int i = 0; i < 2; ++i) {
    {
      CRYOBENCH_SPAN(tr, "sta.engine_build");
      engines[i] = std::make_unique<sta::StaEngine>(soc, *libs[i], *srams[i]);
    }
    CRYOBENCH_SPAN(tr, "sta.run");
    out.corner[i].timing = engines[i]->run();
  }
  {
    CRYOBENCH_SPAN(tr, "riscv");
    out.knn = knn_kernel(in, config.cpu);
  }
  const auto profile =
      helper.activity_from_perf(out.knn.perf, out.corner[1].timing.fmax);
  {
    CRYOBENCH_SPAN(tr, "power");
    power::PowerAnalyzer analyzer(soc, *libs[1], *srams[1], *engines[1]);
    out.power[0] = analyzer.analyze(profile);
    out.power_count = 1;
  }
  for (int i = 0; i < 2; ++i) {
    {
      CRYOBENCH_SPAN(tr, "sram");
      const sram::SramModel model = helper.sram_model(corners[i]);
      out.corner[i].sram_timing = model.timing(kMacro);
      out.corner[i].sram_power = model.power(kMacro);
    }
    CRYOBENCH_SPAN(tr, "core");
    out.corner[i].leakage_w = library_leakage(*libs[i]);
  }
  verdict(out, out.power[0]);
  for (int i = 0; i < 2; ++i)
    out.corner[i].liberty_hash = file_hash(
        store.dir() + "/cryo5_" + corners[i].slug() + ".lib");
  return out;
}

// ---- flow_warm ----------------------------------------------------------------

constexpr int kSweepPoints = 24;
constexpr std::size_t kGatesimCycles = 600;
constexpr int kDhrystoneIterations = 4;

std::vector<double> sweep_temperatures() {
  std::vector<double> t(kSweepPoints);
  for (int i = 0; i < kSweepPoints; ++i)
    t[i] = 10.0 + 290.0 * i / (kSweepPoints - 1);
  t.back() = 300.0;
  return t;
}

core::FlowConfig warm_config(const Options& o, const std::string& store) {
  core::FlowConfig config;
  config.calibrate_devices = false;  // the committed artifacts' cards
  config.seed = o.seed;
  config.lib_dir = store;
  config.interp_anchor_temps = {10.0, 300.0};
  return config;
}

serve::SweepQuery sweep_query(const core::CryoSocFlow& flow,
                              const FlowOut& out,
                              const power::ActivityProfile& profile) {
  serve::SweepQuery q;
  for (double t : sweep_temperatures()) q.corners.push_back(flow.corner(t));
  q.run_timing = true;
  q.run_power = true;
  q.run_leakage = true;
  q.run_feasibility = true;
  q.profile = profile;
  q.profile.clock_frequency = 0.0;  // each corner at its own fmax
  q.cycles_per_classification = out.knn.cycles_per_classification;
  q.qubits = kQubits;
  q.threads = bench_threads();
  return q;
}

// One flow_warm pass through CryoSocFlow and sweep::run_sweep.
FlowOut warm_pass(const FlowInputs& in, const Options& o,
                  const std::string& store, Samples& s, Throughput& sweep,
                  std::vector<double>* sweep_corner_s) {
  const core::FlowConfig config = warm_config(o, store);
  const core::Corner corners[2] = {room(), cryo10()};
  FlowOut out;
  const double t0 = now_s();
  core::CryoSocFlow flow(config);
  std::shared_ptr<const core::CornerState> states[2];
  const double tc = now_s();
  for (int i = 0; i < 2; ++i) states[i] = flow.corner_state(corners[i]);
  s.cold_corner_s.push_back(0.5 * (now_s() - tc));  // as on flow_cold
  for (int i = 0; i < 2; ++i)
    out.corner[i].quarantined = states[i]->library.quarantined_arcs.size();
  const netlist::Netlist& soc = flow.soc();
  for (int i = 0; i < 2; ++i) {
    const double ta = now_s();
    out.corner[i].timing = flow.timing(corners[i]);
    s.analysis_ms.push_back(ms_since(ta));
  }
  out.knn = knn_kernel(in, config.cpu);
  out.hdc = hdc_kernel(in, config.cpu);
  const double f10 = out.corner[1].timing.fmax;
  const ActivityRun act =
      dhrystone_activity(soc, states[1]->library, f10, nullptr);
  out.gatesim_events = act.activity.events;
  out.gatesim_fingerprint = act.activity.fingerprint();
  const auto profile = flow.activity_from_perf(act.perf, f10);
  for (int i = 0; i < 2; ++i) {
    double ta = now_s();
    out.power[2 * i] = flow.workload_power(corners[i], profile);
    s.analysis_ms.push_back(ms_since(ta));
    ta = now_s();
    out.power[2 * i + 1] = flow.measured_power(corners[i], act.activity);
    s.analysis_ms.push_back(ms_since(ta));
  }
  out.power_count = 4;
  for (int i = 0; i < 2; ++i) {
    double tl = now_s();
    const sram::SramModel model = flow.sram_model(corners[i]);
    out.corner[i].sram_timing = model.timing(kMacro);
    out.corner[i].sram_power = model.power(kMacro);
    s.lookup_ms.push_back(ms_since(tl));
    tl = now_s();
    out.corner[i].leakage_w = library_leakage(*flow.library(corners[i]));
    s.lookup_ms.push_back(ms_since(tl));
  }
  const double ts = now_s();
  const sweep::SweepReport report =
      sweep::run_sweep(flow, sweep_query(flow, out, profile));
  const double te = now_s();
  verdict(out, out.power[3]);
  s.flow_s.push_back(now_s() - t0);
  sweep.ops += kSweepPoints;
  sweep.seconds += te - ts;

  for (const auto& r : report.corners) {
    if (sweep_corner_s) sweep_corner_s->push_back(r.seconds);
    SweepPoint p;
    p.temperature = r.corner.temperature;
    if (r.ok) {
      p.fmax = r.timing->fmax;
      p.power_w = r.power->total();
      p.leakage_w = r.library_leakage_w;
      p.fits = r.fits_cooling_budget.value_or(false);
      p.meets = r.meets_deadline.value_or(false);
    }
    out.sweep.push_back(p);
  }
  for (int i = 0; i < 2; ++i)
    out.corner[i].liberty_hash =
        file_hash(store + "/cryo5_" + corners[i].slug() + ".lib");
  return out;
}

// The same pass replayed layer by layer (the sweep serially) under spans.
FlowOut warm_replay(const FlowInputs& in, const Options& o,
                    const std::string& store, Tracer* tr) {
  const core::FlowConfig config = warm_config(o, store);
  const core::Corner corners[2] = {room(), cryo10()};
  // The program's own surface for corner naming, activity_from_perf and
  // SRAM queries.
  core::CryoSocFlow helper(config);
  const device::ModelCard nmos = helper.nmos();
  const device::ModelCard pmos = helper.pmos();
  FlowOut out;

  std::shared_ptr<const charlib::Library> libs[2];
  std::unique_ptr<sram::SramModel> srams[2];
  for (int i = 0; i < 2; ++i) {
    const std::string path = store + "/cryo5_" + corners[i].slug() + ".lib";
    {
      CRYOBENCH_SPAN(tr, "core");
      const auto key = core::library_artifact_key(nmos, pmos, config.catalog,
                                                  corners[i]);
      if (!core::check_artifact(path, key).fresh)
        throw std::runtime_error("committed artifact is stale: " + path);
    }
    {
      CRYOBENCH_SPAN(tr, "liberty.read");
      libs[i] = std::make_shared<const charlib::Library>(
          liberty::read_file(path));
    }
    CRYOBENCH_SPAN(tr, "sram");
    srams[i] = std::make_unique<sram::SramModel>(
        nmos, pmos, corners[i].temperature, corners[i].vdd);
    out.corner[i].quarantined = libs[i]->quarantined_arcs.size();
  }
  netlist::Netlist soc("soc");
  {
    CRYOBENCH_SPAN(tr, "synth");
    soc = netlist::build_soc(config.soc);
    synth::optimize(soc, *libs[0]);
  }
  std::unique_ptr<sta::StaEngine> engines[2];
  for (int i = 0; i < 2; ++i) {
    {
      CRYOBENCH_SPAN(tr, "sta.engine_build");
      engines[i] = std::make_unique<sta::StaEngine>(soc, *libs[i], *srams[i]);
    }
    CRYOBENCH_SPAN(tr, "sta.run");
    out.corner[i].timing = engines[i]->run();
  }
  {
    CRYOBENCH_SPAN(tr, "riscv");
    out.knn = knn_kernel(in, config.cpu);
    out.hdc = hdc_kernel(in, config.cpu);
  }
  const double f10 = out.corner[1].timing.fmax;
  const ActivityRun act = dhrystone_activity(soc, *libs[1], f10, tr);
  out.gatesim_events = act.activity.events;
  out.gatesim_fingerprint = act.activity.fingerprint();
  const auto profile = helper.activity_from_perf(act.perf, f10);
  for (int i = 0; i < 2; ++i) {
    CRYOBENCH_SPAN(tr, "power");
    power::PowerAnalyzer analyzer(soc, *libs[i], *srams[i], *engines[i]);
    out.power[2 * i] = analyzer.analyze(profile);
    out.power[2 * i + 1] = analyzer.analyze(act.activity);
  }
  out.power_count = 4;
  for (int i = 0; i < 2; ++i) {
    {
      CRYOBENCH_SPAN(tr, "sram");
      const sram::SramModel model = helper.sram_model(corners[i]);
      out.corner[i].sram_timing = model.timing(kMacro);
      out.corner[i].sram_power = model.power(kMacro);
    }
    CRYOBENCH_SPAN(tr, "core");
    out.corner[i].leakage_w = library_leakage(*libs[i]);
  }

  const serve::SweepQuery q = sweep_query(helper, out, profile);
  for (const core::Corner& c : q.corners) {
    const int anchor = c == corners[0] ? 0 : c == corners[1] ? 1 : -1;
    std::shared_ptr<const charlib::Library> lib;
    std::unique_ptr<sram::SramModel> own_sram;
    std::unique_ptr<sta::StaEngine> own_engine;
    if (anchor < 0) {
      {
        CRYOBENCH_SPAN(tr, "liberty.interp");
        liberty::InterpLibrary interp({libs[1], libs[0]});
        lib = std::make_shared<const charlib::Library>(
            interp.at(c.temperature, "cryo5_" + c.slug()));
      }
      {
        CRYOBENCH_SPAN(tr, "sram");
        own_sram = std::make_unique<sram::SramModel>(nmos, pmos,
                                                     c.temperature, c.vdd);
      }
      CRYOBENCH_SPAN(tr, "sta.engine_build");
      own_engine = std::make_unique<sta::StaEngine>(soc, *lib, *own_sram);
    }
    const charlib::Library& l = anchor < 0 ? *lib : *libs[anchor];
    const sram::SramModel& sm = anchor < 0 ? *own_sram : *srams[anchor];
    const sta::StaEngine& eng = anchor < 0 ? *own_engine : *engines[anchor];
    SweepPoint p;
    p.temperature = c.temperature;
    {
      CRYOBENCH_SPAN(tr, "core");
      p.leakage_w = library_leakage(l);
    }
    sta::TimingReport t;
    {
      CRYOBENCH_SPAN(tr, "sta.run");
      t = eng.run();
    }
    p.fmax = t.fmax;
    power::ActivityProfile corner_profile = q.profile;
    corner_profile.clock_frequency = t.fmax;
    {
      CRYOBENCH_SPAN(tr, "power");
      p.power_w = power::PowerAnalyzer(soc, l, sm, eng)
                      .analyze(corner_profile)
                      .total();
    }
    p.fits = p.power_w <= q.cooling_budget_w;
    p.meets = q.qubits * q.cycles_per_classification / t.fmax <= q.deadline_s;
    out.sweep.push_back(p);
  }
  verdict(out, out.power[3]);
  for (int i = 0; i < 2; ++i)
    out.corner[i].liberty_hash =
        file_hash(store + "/cryo5_" + corners[i].slug() + ".lib");
  return out;
}

// ---- traced-run bookkeeping ---------------------------------------------------

// Runs the program's pass once for its counters, then the replay without
// and with spans; all three must compute the same digest. The tracing
// overhead is traced minus untraced replay wall.
template <typename Pass, typename Replay>
void traced_run(Run& run, const Pass& pass, const Replay& replay,
                LayerInputs& li) {
  const auto c0 = CounterSnapshot::take();
  double t0 = now_s();
  const Digest du = pass();
  li.program_wall_s = now_s() - t0;
  li.program = CounterSnapshot::take().since(c0);
  t0 = now_s();
  const Digest dr = replay(nullptr);
  li.untraced_wall_s = now_s() - t0;
  Tracer tracer;
  const auto c1 = CounterSnapshot::take();
  t0 = now_s();
  const Digest dt = replay(&tracer);
  li.traced_wall_s = now_s() - t0;
  li.replay = CounterSnapshot::take().since(c1);
  li.tracer = &tracer;
  run.checks.expect(du.value() == dr.value() && du.value() == dt.value(),
                    "replayed output equals the program's output");
  run.digest = du.hex();
  run.layer_metrics = layer_metrics(li, run.checks);
  run.report = layer_report(li);
  li.tracer = nullptr;
}

}  // namespace

// ---- shared helpers -------------------------------------------------------------

Store::Store(const std::string& root, const std::string& tag) {
  static int counter = 0;
  dir_ = root + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
  fs::remove_all(dir_);
  fs::create_directories(dir_);
}

Store::~Store() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

void Store::copy_committed_libs() const {
  for (const auto& entry : fs::directory_iterator(kCommittedLibDir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".lib") != std::string::npos)
      fs::copy_file(entry.path(), fs::path(dir_) / name);
  }
  if (hash_dir(dir_) != hash_dir(kCommittedLibDir))
    throw std::runtime_error("private store differs from lib/: " + dir_);
}

int bench_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

core::Corner room() { return core::Corner::room(); }
core::Corner cryo10() { return core::Corner::cryo(); }

ActivityRun dhrystone_activity(const netlist::Netlist& soc,
                               const charlib::Library& library,
                               double clock_frequency, Tracer* tr) {
  ActivityRun run;
  std::vector<riscv::TraceEntry> trace;
  {
    CRYOBENCH_SPAN(tr, "riscv");
    riscv::Cpu cpu(riscv::CpuConfig{});
    cpu.set_trace(&trace);
    const auto program = riscv::dhrystone_like(kDhrystoneIterations);
    cpu.load_program(program);
    cpu.run(program.base, 200'000);
    run.perf = cpu.perf();
  }
  CRYOBENCH_SPAN(tr, "gatesim");
  const auto deck = gatesim::make_soc_deck(soc, trace, kGatesimCycles);
  gatesim::ActivityExtractor extractor(soc, library);
  run.activity = extractor.extract(deck, clock_frequency);
  return run;
}

ColdCorner replay_cold_corner(const core::FlowConfig& config,
                              const device::ModelCard& nmos,
                              const device::ModelCard& pmos,
                              const core::Corner& corner, Tracer* tr) {
  const std::string name = "cryo5_" + corner.slug();
  const std::string path = config.lib_dir + "/" + name + ".lib";
  core::ArtifactKey key;
  {
    CRYOBENCH_SPAN(tr, "core");
    key = core::library_artifact_key(nmos, pmos, config.catalog, corner);
    if (core::check_artifact(path, key).fresh)
      throw std::runtime_error("replay corner is not cold: " + path);
  }
  charlib::CharOptions options;
  options.temperature = corner.temperature;
  options.vdd = corner.vdd;
  options.threads = config.characterize_threads;
  std::unique_ptr<charlib::Characterizer> characterizer;
  {
    CRYOBENCH_SPAN(tr, "device");
    characterizer =
        std::make_unique<charlib::Characterizer>(nmos, pmos, options);
  }
  ColdCorner out;
  {
    CRYOBENCH_SPAN(tr, "charlib");
    out.library = characterizer->characterize_all(
        cells::standard_cells(config.catalog), name);
  }
  {
    CRYOBENCH_SPAN(tr, "liberty.write");
    liberty::write_file(out.library, path);
    liberty::Manifest manifest = key.manifest();
    manifest.quarantined = out.library.quarantined_arcs;
    liberty::write_manifest(path, manifest);
  }
  CRYOBENCH_SPAN(tr, "sram");
  out.sram = std::make_unique<sram::SramModel>(nmos, pmos, corner.temperature,
                                               corner.vdd);
  return out;
}

double library_leakage(const charlib::Library& library) {
  double w = 0.0;
  for (const auto& cell : library.cells) w += cell.leakage_avg;
  return w;
}

Run flow_cold(const Options& o) {
  Run run;
  FlowInputs in;
  repeat_setup(
      o.trace, run.samples,
      [&] { in = make_inputs(o.seed, /*with_catalog=*/true); }, [] {});
  char buf[80];
  std::snprintf(buf, sizeof buf, "catalog: %zu cells",
                cells::standard_cells(in.catalog).size());
  run.report.push_back(buf);
  if (o.trace) {
    LayerInputs li;
    Samples ignored;
    traced_run(
        run,
        [&] {
          SramLookups lookups(ignored, run.checks);
          auto cf = cold_pass(in, o, ignored, nullptr, nullptr);
          lookups.target(cf);
          lookups.burst(kFinalLookups);
          li.lookup_ms = ignored.lookup_ms;
          return check_and_digest(cf->out, run.checks);
        },
        [&](Tracer* tr) {
          return check_and_digest(cold_replay(in, o, tr), run.checks);
        },
        li);
    return run;
  }
  SramLookups lookups(run.samples, run.checks);
  // Capacity: cells characterized per second of corner builds.
  Throughput cells;
  run.digest = repeat_passes(run, o.seconds, [&] {
    auto cf = cold_pass(in, o, run.samples, &lookups, &cells);
    const Digest d = check_and_digest(cf->out, run.checks);
    lookups.target(std::move(cf));
    return d;
  });
  lookups.burst(kFinalLookups);
  run.samples.capacity_rps = cells.rate();
  return run;
}

Run flow_warm(const Options& o) {
  Run run;
  const auto run_start = CounterSnapshot::take();
  FlowInputs in;
  std::unique_ptr<Store> store;
  repeat_setup(
      o.trace, run.samples,
      [&] {
        store = std::make_unique<Store>(o.store_root, "flow_warm");
        store->copy_committed_libs();
        in = make_inputs(o.seed, /*with_catalog=*/false);
      },
      [&] { store.reset(); });
  if (o.trace) {
    LayerInputs li;
    Samples ignored;
    Throughput unused;
    traced_run(
        run,
        [&] {
          const FlowOut out = warm_pass(in, o, store->dir(), ignored, unused,
                                        &li.sweep_corner_s);
          li.lookup_ms = ignored.lookup_ms;
          return check_and_digest(out, run.checks);
        },
        [&](Tracer* tr) {
          return check_and_digest(warm_replay(in, o, store->dir(), tr),
                                  run.checks);
        },
        li);
  } else {
    // Capacity: sweep corners per second of sweep time, over the window.
    Throughput sweep;
    run.digest = repeat_passes(run, o.seconds, [&] {
      return check_and_digest(
          warm_pass(in, o, store->dir(), run.samples, sweep, nullptr),
          run.checks);
    });
    run.samples.capacity_rps = sweep.rate();
  }
  const auto counters = CounterSnapshot::take().since(run_start);
  run.checks.expect(counters.at("charlib.runs") == 0,
                    "warm flow characterizes nothing");
  run.checks.expect(counters.at("artifacts.misses") == 0,
                    "warm flow has no artifact misses");
  return run;
}

}  // namespace cryobench
