// cryobench: the cryosoc benchmark program.
//
//   cryobench --workload <flow_cold|flow_warm|serve_warm|serve_cold>
//             --seed <n> --seconds <s> --trace <0|1> [--store-root <dir>]
//
// Run from the root of a cryosoc checkout. Prints a human-readable report,
// then as its last stdout line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced replay (--trace 1). Exits 2 on a usage error or when a workload
// throws; a run whose output checks fail still exits 0 with
// "correct": false.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace cryobench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cryobench: %s\nusage: cryobench --workload "
               "<flow_cold|flow_warm|serve_warm|serve_cold> --seed <n> "
               "--seconds <s> --trace <0|1> [--store-root <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(o.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--store-root") {
      o.store_root = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<Metric> end_to_end(const Samples& s) {
  const Tail analysis = tail(s.analysis_ms);
  return {
      {"setup_s", median(s.setup_s), "s"},
      {"flow_s", median(s.flow_s), "s"},
      {"cold_corner_s", median(s.cold_corner_s), "s"},
      {"analysis_p50_ms", median(s.analysis_ms), "ms"},
      {"analysis_tail_ms", analysis.value, "ms"},
      {"lookup_p50_ms", median(s.lookup_ms), "ms"},
      {"capacity_rps", s.capacity_rps, "1/s"},
      {"peak_rss_mb", s.peak_rss_mb, "MB"},
  };
}

void describe_tail(const char* name, const std::vector<double>& samples) {
  const Tail t = tail(samples);
  std::printf("  %-18s p%.1f of %zu samples (%zu beyond)\n", name,
              t.percentile, t.samples,
              t.samples - static_cast<std::size_t>(std::lround(
                              t.percentile / 100.0 * t.samples)));
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Run (*workload)(const Options&) = nullptr;
  if (o.workload == "flow_cold") workload = flow_cold;
  if (o.workload == "flow_warm") workload = flow_warm;
  if (o.workload == "serve_warm") workload = serve_warm;
  if (o.workload == "serve_cold") workload = serve_cold;
  if (!workload) usage(("unknown workload " + o.workload).c_str());

  const std::string lib_before = hash_dir(kCommittedLibDir);
  if (lib_before.empty()) usage("no lib/ here: run from a cryosoc checkout");
  Run run;
  try {
    run = workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryobench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }
  run.checks.expect(hash_dir(kCommittedLibDir) == lib_before,
                    "committed lib/ is byte-identical after the run");

  const std::vector<Metric> metrics =
      o.trace ? run.layer_metrics : end_to_end(run.samples);
  std::printf("cryobench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const std::string& line : run.report) std::printf("%s\n", line.c_str());
  std::printf("metrics:\n");
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (!o.trace) describe_tail("analysis_tail_ms", run.samples.analysis_ms);
  std::printf("digest %s; checks %llu attempted, %llu failed\n",
              run.digest.c_str(),
              static_cast<unsigned long long>(run.checks.attempted()),
              static_cast<unsigned long long>(run.checks.failed()));

  std::string json = "{\"correct\": ";
  json += run.checks.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.checks.attempted());
  json += ", \"failed\": " + std::to_string(run.checks.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
