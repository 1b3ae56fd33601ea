// serve_load: open-loop load generator for the FlowService / cryosocd
// serving path.
//
// Two phases against one long-running FlowService:
//
//   phase A (cold storm): N identical requests for one uncached corner
//     submitted concurrently while the workers are gated. Exactly one
//     characterization may run; the rest must coalesce onto it
//     (serve.coalesced == N-1, charlib.runs == 1).
//
//   phase B (warm open-loop): a mixed-kind request stream submitted at a
//     fixed arrival rate without waiting for responses (open loop: the
//     generator never slows down to match the server, so queueing is
//     real). Every corner was pre-warmed, so the phase must finish with
//     zero characterizations; throughput and per-kind p50/p95/p99 come
//     from the serve.latency.<kind> histograms.
//
// Gates: the storm executes once, characterizes once (tabulating only
// the device variants its cells use) and coalesces the other N-1; the
// warm phase characterizes nothing, builds no SRAM model per request,
// and accounts for every request (completed or rejected, executed or
// coalesced); every kind's p50 <= p95 <= p99 <= max, each finite and
// >= 0.
//
// Stores: phase A storms a store that is emptied at the start of every
// run, so every run sees the same cold corner. Phase B serves from its
// own store, which full mode seeds with copies of the committed 300 K /
// 10 K artifacts; the bench never writes beside lib/.
//
// Quick mode (--quick or CRYOSOC_BENCH_QUICK=1): tiny INV+NAND2 catalog
// and the SoC-free kinds (leakage / sram / sweep), for CI smoke. Full
// mode uses the full catalog and adds timing + power queries. Output:
// bench-out/BENCH_serve_load.json (cryosoc-bench-v1).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace {

using namespace cryo;

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

namespace fs = std::filesystem;

// A flow over the artifact store <report dir>/<store>. A cold store is
// emptied first; a warm full-mode store is seeded with copies of the
// committed 300 K / 10 K artifacts where they can be found. Whatever a
// warm store lacks, the phase B pre-warm characterizes into it.
core::CryoSocFlow make_flow(bool quick, const std::string& store, bool cold) {
  core::FlowConfig config;
  config.calibrate_devices = false;
  if (quick) bench::use_quick_catalog(config, store);
  else config.lib_dir = obs::BenchReport::output_dir() + "/" + store;
  if (cold) fs::remove_all(config.lib_dir);
  fs::create_directories(config.lib_dir);
  if (!quick && !cold) {
    const fs::path committed = core::default_lib_dir();
    for (const char* file : {"cryo5_300k.lib", "cryo5_300k.lib.manifest",
                             "cryo5_10k.lib", "cryo5_10k.lib.manifest"})
      if (fs::exists(committed / file))
        fs::copy_file(committed / file, fs::path(config.lib_dir) / file,
                      fs::copy_options::overwrite_existing);
  }
  return core::CryoSocFlow(config);
}

// The warm-phase request mix, cycled round-robin by the generator.
std::vector<serve::FlowRequest> make_mix(bool quick) {
  const core::Corner c300{0.7, 300.0, "300k"};
  const core::Corner c10{0.7, 10.0, "10k"};
  std::vector<serve::FlowRequest> mix;
  mix.push_back(serve::leakage_request(c300));
  mix.push_back(serve::leakage_request(c10));
  mix.push_back(serve::sram_request(c300, {512, 64}));
  mix.push_back(serve::sram_request(c10, {512, 64}));
  serve::SweepQuery sweep;
  sweep.corners = {c300, c10};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  sweep.threads = 1;  // no nested fan-out under the service workers
  mix.push_back(serve::sweep_request(sweep));
  if (!quick) {
    mix.push_back(serve::timing_request(c300));
    mix.push_back(serve::timing_request(c10));
    power::ActivityProfile profile;
    profile.clock_frequency = 0.0;  // per-corner fmax
    profile.default_activity = 0.1;
    mix.push_back(serve::power_request(c300, profile));
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::env_flag("CRYOSOC_BENCH_QUICK");
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::header("serve_load: open-loop load on the FlowService corner server",
                "flow-as-a-service: coalescing + tail latency under load");
  auto report = bench::make_report("serve_load");
  report.results()["quick"] = quick;

  serve::ServiceConfig service_config;
  service_config.workers = 4;
  service_config.queue_capacity = 4096;

  // ---- phase A: cold-corner storm ---------------------------------------
  obs::registry().reset();
  const std::size_t storm_n = 32;
  // Quick mode storms the tiny catalog at an off-grid 150 K, full mode
  // the full catalog at 77 K; the storm store is cold on every run.
  {
    core::CryoSocFlow flow = make_flow(
        quick, quick ? "serve-storm-quick" : "serve-storm-full", true);
    const core::Corner storm_corner =
        quick ? core::Corner{0.7, 150.0, ""} : flow.corner(77.0);
    std::promise<void> all_submitted;
    std::shared_future<void> gate = all_submitted.get_future().share();
    serve::ServiceConfig storm_config = service_config;
    storm_config.before_execute = [gate](const serve::FlowRequest&) {
      gate.wait();
    };
    serve::FlowService service(flow, storm_config);
    std::vector<std::shared_future<serve::FlowResponse>> futures;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < storm_n; ++i)
      futures.push_back(service.submit(serve::leakage_request(
          storm_corner, "storm-" + std::to_string(i))));
    all_submitted.set_value();
    for (auto& f : futures)
      if (!f.get().ok)
        std::fprintf(stderr, "storm response failed: %s\n",
                     f.get().error.c_str());
    const double storm_s = bench::seconds_since(t0);

    report.results()["storm"]["requests"] = storm_n;
    report.results()["storm"]["executed"] = counter("serve.executed");
    report.results()["storm"]["coalesced"] = counter("serve.coalesced");
    report.results()["storm"]["characterizations"] = counter("charlib.runs");
    report.results()["storm"]["device_table_builds"] =
        counter("device.table_builds");
    report.results()["storm"]["seconds"] = storm_s;
    report.gate("storm.requests", storm_n, "==", 32);
    report.gate("storm.executed", counter("serve.executed"), "==", 1);
    report.gate("storm.coalesced", counter("serve.coalesced"), "==",
                storm_n - 1);
    report.gate("storm.characterizations", counter("charlib.runs"), "==", 1);
    // A characterization tabulates only the device variants its cells
    // use: NMOS and PMOS LVT for the quick catalog, SLVT as well for the
    // full one.
    const std::uint64_t tables_per_run = quick ? 2 : 4;
    report.gate("storm.device_table_builds", counter("device.table_builds"),
                "==", tables_per_run * counter("charlib.runs"));
    std::printf("\nstorm: %zu requests -> %llu executed, %llu coalesced, "
                "%llu characterization(s) in %.3fs\n",
                storm_n,
                static_cast<unsigned long long>(counter("serve.executed")),
                static_cast<unsigned long long>(counter("serve.coalesced")),
                static_cast<unsigned long long>(counter("charlib.runs")),
                storm_s);
  }

  // ---- phase B: warm open-loop mix --------------------------------------
  core::CryoSocFlow flow = make_flow(
      quick, quick ? "serve-lib-quick" : "serve-lib-full", false);
  const std::vector<serve::FlowRequest> mix = make_mix(quick);
  {
    // Pre-warm every corner the mix touches (and the SoC in full mode) so
    // the measured phase serves entirely from the caches.
    for (const serve::FlowRequest& request : mix) {
      const serve::FlowResponse r = serve::execute(flow, request);
      if (!r.ok)
        std::fprintf(stderr, "warmup failed (%s): %s\n",
                     serve::kind_name(request.kind), r.error.c_str());
    }
  }
  obs::registry().reset();

  const std::size_t warm_n = quick ? 200 : 60;
  const double rate_rps = quick ? 2000.0 : 50.0;
  serve::FlowService service(flow, service_config);
  std::vector<std::shared_future<serve::FlowResponse>> futures;
  futures.reserve(warm_n);
  std::uint64_t rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_n; ++i) {
    // Open loop: arrivals follow the schedule, not the service.
    const auto arrival =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) /
                                               rate_rps));
    std::this_thread::sleep_until(arrival);
    try {
      futures.push_back(service.submit(mix[i % mix.size()]));
    } catch (const core::FlowError&) {
      ++rejected;  // backpressure is a measured outcome, not a crash
    }
  }
  for (auto& f : futures)
    if (!f.get().ok)
      std::fprintf(stderr, "warm response failed: %s\n", f.get().error.c_str());
  const double warm_s = bench::seconds_since(t0);

  const double throughput =
      static_cast<double>(futures.size()) / (warm_s > 0.0 ? warm_s : 1.0);
  report.results()["warm"]["requests"] = warm_n;
  report.results()["warm"]["completed"] = futures.size();
  report.results()["warm"]["rejected"] = rejected;
  report.results()["warm"]["seconds"] = warm_s;
  report.results()["warm"]["throughput_rps"] = throughput;
  report.results()["warm"]["characterizations"] = counter("charlib.runs");
  report.results()["warm"]["coalesced"] = counter("serve.coalesced");
  report.results()["warm"]["sram_models_built"] = counter("sram.models_built");
  report.gate("warm.characterizations", counter("charlib.runs"), "==", 0);
  // The mix asks two corners; each corner's SRAM model is built at most
  // once (here: already by the pre-warm), not once per sram request.
  report.gate("warm.sram_models_built", counter("sram.models_built"), "<=",
              2);
  report.gate("warm.completed_plus_rejected", futures.size() + rejected, "==",
              warm_n);
  report.gate("warm.completed", futures.size(), ">", 0);
  report.gate("warm.throughput_rps", throughput, ">", 0);

  std::printf("warm: %zu requests in %.3fs (%.0f req/s), "
              "%llu characterization(s), %llu coalesced, %llu rejected\n",
              futures.size(), warm_s, throughput,
              static_cast<unsigned long long>(counter("charlib.runs")),
              static_cast<unsigned long long>(counter("serve.coalesced")),
              static_cast<unsigned long long>(rejected));
  std::printf("\n%-14s %8s %10s %10s %10s\n", "kind", "count", "p50_ms",
              "p95_ms", "p99_ms");
  std::uint64_t kinds_reported = 0, observed = 0;
  for (const serve::QueryKind kind : serve::kAllQueryKinds) {
    obs::Histogram& h = obs::registry().histogram(
        std::string("serve.latency.") + serve::kind_name(kind));
    if (h.count() == 0) continue;
    ++kinds_reported;
    observed += h.count();
    std::printf("%-14s %8llu %10.4f %10.4f %10.4f\n",
                serve::kind_name(kind),
                static_cast<unsigned long long>(h.count()),
                h.quantile(0.5) * 1e3, h.quantile(0.95) * 1e3,
                h.quantile(0.99) * 1e3);
    auto& kinds = report.results()["warm"]["kinds"][serve::kind_name(kind)];
    kinds["count"] = h.count();
    kinds["p50_s"] = h.quantile(0.5);
    kinds["p95_s"] = h.quantile(0.95);
    kinds["p99_s"] = h.quantile(0.99);
    kinds["max_s"] = h.max_value();
    // The histogram clamps quantiles to the tracked max, so an unbounded
    // or unordered quantile means the estimator broke.
    const std::string name = std::string("warm.") + serve::kind_name(kind);
    report.gate(name + ".p50_s", h.quantile(0.5), ">=", 0);
    report.gate(name + ".p50_s_vs_p95", h.quantile(0.5), "<=",
                h.quantile(0.95));
    report.gate(name + ".p95_s_vs_p99", h.quantile(0.95), "<=",
                h.quantile(0.99));
    report.gate(name + ".p99_s_vs_max", h.quantile(0.99), "<=",
                h.max_value());
  }
  report.gate("warm.kinds_reported", kinds_reported, ">", 0);
  // Joiners share an execution, so observed executions plus coalesced
  // joins account for every completed request.
  report.gate("warm.observed_plus_coalesced",
              observed + counter("serve.coalesced"), "==", futures.size());
  return report.exit_code();
}
