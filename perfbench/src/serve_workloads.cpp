// serve_warm and serve_cold: the corner service, in process.
//
// Requests enter as cryosoc-req-v1 lines (serve::parse_request) and every
// response is rendered back to JSON, as cryosocd does. Latency of a request
// is measured from its due time: the generator's lag plus parsing, the
// service's queue and service time, and rendering. Joiners of a coalesced
// execution complete when that execution does.
//
// The traced run replays the served executions directly into the layers
// (core corner cache, sta, power, sram; device, charlib and liberty for
// cold corners) under benchmark spans and checks that every replayed
// payload equals the served one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/error.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace cryobench {
namespace {

using namespace cryo;

constexpr double kFixedRate = 60.0;     // [req/s] serve_warm fixed-rate phase
constexpr double kTailLimitMs = 250.0;  // capacity criterion
constexpr double kResidentTemps[] = {10.0, 40.0, 77.0, 150.0, 220.0, 300.0};
constexpr int kFlowQueryPasses = 15;
// Distinct requests per resident corner, by kind.
constexpr int kLabels = 4;  // timing and leakage
constexpr int kPowerVariants = 6;
constexpr int kMeasuredVariants = 2;
constexpr int kSramVariants = 12;

double ms(double seconds) { return seconds * 1e3; }

bool analysis_kind(serve::QueryKind k) {
  return k == serve::QueryKind::kTiming || k == serve::QueryKind::kPower ||
         k == serve::QueryKind::kMeasuredPower;
}

std::string payload(const serve::FlowResponse& r) {
  return serve::response_payload_json(r).dump_line();
}

// ---- one served request --------------------------------------------------------

struct Sent {
  std::size_t entry = 0;
  double due = 0.0;        // when the request should have been sent
  double submitted = 0.0;  // after parsing and admission
  bool rejected = false;
  std::shared_future<serve::FlowResponse> future;
};

// Collects responses in submission order and turns them into latencies.
class Collector {
 public:
  // `expected` holds the payload per pool entry; when null the caller
  // compares payloads itself.
  Collector(const std::vector<std::string>* expected, Checks& checks)
      : expected_(expected), checks_(checks) {}

  // Returns the request's latency from its due time [s] (infinite when it
  // was rejected or failed), rendering the response as cryosocd does.
  double finish(const Sent& s, serve::FlowResponse* out = nullptr) {
    if (s.rejected) {
      checks_.expect(false, "request admitted");
      return INFINITY;
    }
    const serve::FlowResponse& r = s.future.get();
    const double t0 = now_s();
    const std::string line = serve::to_json(r).dump_line();
    const double render = now_s() - t0;
    checks_.expect(r.ok && !line.empty(), "response ok");
    if (expected_)
      checks_.expect(payload(r) == (*expected_)[s.entry],
                     "served payload equals serve::execute");
    queue_ms.push_back(ms(r.meta.queue_seconds));
    service_ms.push_back(ms(r.meta.service_seconds));
    // The first request seen with a sequence number is the execution's
    // winner (it was submitted first); joiners finish with it.
    auto [it, fresh] = completed_.try_emplace(
        r.meta.sequence,
        s.submitted + r.meta.queue_seconds + r.meta.service_seconds);
    if (out) *out = r;
    if (!r.ok) return INFINITY;
    return std::max(it->second, s.submitted) + render - s.due;
  }

  std::vector<double> queue_ms;
  std::vector<double> service_ms;

 private:
  const std::vector<std::string>* expected_;
  Checks& checks_;
  std::unordered_map<std::uint64_t, double> completed_;
};

// ---- serve_warm ----------------------------------------------------------------

struct Entry {
  serve::QueryKind kind;
  std::string line;  // cryosoc-req-v1
};

struct WarmState {
  std::unique_ptr<Store> store;
  std::unique_ptr<core::CryoSocFlow> flow;
  std::vector<Entry> pool;
  std::vector<std::string> expected;  // payload per pool entry
  std::vector<std::size_t> by_kind[5];
  std::size_t flow_queries[6] = {};  // one paper-flow pass of queries
};

std::size_t kind_index(serve::QueryKind k) {
  switch (k) {
    case serve::QueryKind::kTiming: return 0;
    case serve::QueryKind::kPower: return 1;
    case serve::QueryKind::kMeasuredPower: return 2;
    case serve::QueryKind::kLeakage: return 3;
    default: return 4;
  }
}

// The mix, per block of 20 requests: timing, power, measured power,
// leakage, sram. No recorded traffic of the service exists, so the shares
// are an assumption, chosen so that each latency class has a majority kind
// (power; sram) and its median falls inside one latency mode, not between
// two. bench/serve_load's round robin (2 timing, 1 power, 2 leakage, 2 sram,
// 1 leakage sweep) puts the lookup median between the leakage and sram
// modes: over five seeds its lookup_p50_ms read 0.32 to 1.58 ms. Each block
// is a seeded shuffle, so every window carries the exact shares.
constexpr int kMixBlock[5] = {2, 6, 1, 3, 8};

// Builds the flow with six resident corners and the request pool with its
// expected payloads.
WarmState warm_setup(const Options& o, Samples& s) {
  WarmState st;
  st.store = std::make_unique<Store>(o.store_root, "serve_warm");
  st.store->copy_committed_libs();
  core::FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = st.store->dir();
  config.interp_anchor_temps = {10.0, 300.0};
  st.flow = std::make_unique<core::CryoSocFlow>(config);
  core::CryoSocFlow& flow = *st.flow;

  // The two anchors load from Liberty (the cold-corner sample is their
  // mean, as on flow_warm); the four others interpolate between them.
  std::vector<core::Corner> corners;
  double anchors_s = 0.0;
  for (double t : kResidentTemps) {
    corners.push_back(flow.corner(t));
    const double t0 = now_s();
    flow.corner_state(corners.back());
    if (t == 10.0 || t == 300.0) anchors_s += now_s() - t0;
  }
  s.cold_corner_s.push_back(0.5 * anchors_s);
  const core::Corner c10 = corners.front();
  const double f10 = flow.timing(c10).fmax;
  const ActivityRun act =
      dhrystone_activity(flow.soc(), flow.corner_state(c10)->library, f10,
                         nullptr);
  const power::ActivityProfile base = flow.activity_from_perf(act.perf, f10);

  // Varied payloads keep coalescing rare: several client labels per corner
  // for the payload-free kinds (the label is part of a request's identity
  // on the wire, not of the corner's), seeded profiles, clocks and macro
  // shapes for the others.
  Rng rng(o.seed);
  auto add = [&](serve::FlowRequest r) {
    st.by_kind[kind_index(r.kind)].push_back(st.pool.size());
    st.pool.push_back({r.kind, serve::to_json(r).dump_line()});
    return st.pool.size() - 1;
  };
  auto labelled = [](core::Corner c, int label) {
    if (label > 0) c.name += "_c" + std::to_string(label);
    return c;
  };
  for (const core::Corner& c : corners) {
    std::size_t first[5] = {};
    for (int v = 0; v < kLabels; ++v) {
      const std::size_t i = add(serve::timing_request(labelled(c, v)));
      if (v == 0) first[0] = i;
    }
    for (int v = 0; v < kPowerVariants; ++v) {
      power::ActivityProfile p = base;
      p.clock_frequency = 0.0;  // at the corner's fmax
      p.default_activity *= rng.uniform(0.8, 1.2);
      for (auto& [unit, a] : p.unit_activity) a *= rng.uniform(0.8, 1.2);
      const std::size_t i = add(serve::power_request(c, p));
      if (v == 0) first[1] = i;
    }
    for (int v = 0; v < kMeasuredVariants; ++v) {
      serve::FlowRequest measured;
      measured.kind = serve::QueryKind::kMeasuredPower;
      measured.corner = c;
      measured.activity = act.activity;
      measured.activity.clock_frequency = f10 * rng.uniform(0.5, 1.0);
      const std::size_t i = add(measured);
      if (v == 0) first[2] = i;
    }
    for (int v = 0; v < kLabels; ++v) {
      const std::size_t i = add(serve::leakage_request(labelled(c, v)));
      if (v == 0) first[3] = i;
    }
    for (int v = 0; v < kSramVariants; ++v) {
      const sram::MacroSpec spec{
          static_cast<int>(64 * rng.uniform_int(1, 64)),
          static_cast<int>(8 * rng.uniform_int(1, 32))};
      const std::size_t i = add(serve::sram_request(c, spec));
      if (v == 0) first[4] = i;
    }
    if (c == c10) {
      st.flow_queries[0] = first[0];
      for (int k = 1; k < 5; ++k) st.flow_queries[k + 1] = first[k];
    }
    if (c == corners.back()) st.flow_queries[1] = first[0];  // 300 K
  }
  for (const Entry& e : st.pool)
    st.expected.push_back(
        payload(serve::execute(flow, serve::parse_request(e.line))));
  return st;
}

// A seeded draw from the mix: the kind, and a starting variant of it.
struct Draw {
  std::size_t kind = 0;
  std::size_t variant = 0;
};

std::vector<Draw> draw_mix(const WarmState& st, std::size_t n, Rng& rng) {
  std::vector<Draw> draws;
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < 5; ++k) block.insert(block.end(), kMixBlock[k], k);
  while (draws.size() < n) {
    std::shuffle(block.begin(), block.end(), rng.engine());
    for (std::size_t k : block) {
      const auto variants = static_cast<std::int64_t>(st.by_kind[k].size());
      draws.push_back(
          {k, static_cast<std::size_t>(rng.uniform_int(0, variants - 1))});
    }
  }
  draws.resize(n);
  return draws;
}

// The drawn variant, or the next one of its kind that is not in flight:
// requests never join an identical in-flight request, so the load offered
// is the load executed at every rate (coalescing is serve_cold's subject).
std::size_t pick_entry(const WarmState& st, const Draw& d,
                       const std::vector<int>& in_flight) {
  const auto& entries = st.by_kind[d.kind];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::size_t e = entries[(d.variant + i) % entries.size()];
    if (in_flight[e] == 0) return e;
  }
  return entries[d.variant];
}

struct Probe {
  std::vector<double> analysis_ms;
  std::vector<double> lookup_ms;
  std::vector<double> lag_ms;
  std::vector<double> latency_s;  // every request, in due order
  std::vector<double> due_s;      // due time, from the window start
  std::vector<double> wait_s;     // latency minus service time
  std::vector<std::size_t> entries;
  std::size_t rejected = 0;
};

// Open loop at `rate` for `window` seconds: `rate * window` arrivals at
// seeded uniform times (a Poisson process conditioned on its count), the
// requests drawn from their own seeded stream so that probes at different
// rates send the same sequence of kinds. One client thread sends each
// request when it is due and, between arrivals, collects responses in
// submission order, so service workers plus the client never exceed the
// thread budget.
Probe open_loop(const WarmState& st, serve::FlowService& service, double rate,
                double window, std::uint64_t seed, Collector& collector) {
  const auto n =
      static_cast<std::size_t>(std::max(1.0, std::round(rate * window)));
  Rng arrivals(seed);
  std::vector<double> offsets(n);
  for (double& t : offsets) t = arrivals.uniform(0.0, window);
  std::sort(offsets.begin(), offsets.end());
  Rng mix(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::vector<Draw> draws = draw_mix(st, n, mix);
  std::vector<Sent> sent(n);
  std::vector<int> in_flight(st.pool.size(), 0);

  Probe p;
  p.entries.reserve(n);
  const double start = now_s();
  auto collect = [&](const Sent& s) {
    --in_flight[s.entry];
    const double latency = collector.finish(s);
    p.latency_s.push_back(latency);
    p.due_s.push_back(s.due - start);
    p.wait_s.push_back(s.rejected
                           ? latency
                           : latency - collector.service_ms.back() / 1e3);
    p.entries.push_back(s.entry);
    p.lag_ms.push_back(ms(s.submitted - s.due));
    if (s.rejected) ++p.rejected;
    (analysis_kind(st.pool[s.entry].kind) ? p.analysis_ms : p.lookup_ms)
        .push_back(ms(latency));
  };
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i]));
  };
  std::size_t next = 0;       // next request to send
  std::size_t collected = 0;  // next response to collect
  while (collected < n) {
    if (next < n && Clock::now() >= due_at(next)) {
      Sent& s = sent[next];
      s.entry = pick_entry(st, draws[next], in_flight);
      ++in_flight[s.entry];
      s.due = start + offsets[next];
      try {
        s.future = service.submit(serve::parse_request(st.pool[s.entry].line));
      } catch (const core::FlowError&) {
        s.rejected = true;
      }
      s.submitted = now_s();
      ++next;
    } else if (collected < next) {
      const Sent& s = sent[collected];
      if (s.rejected ||
          (next < n ? s.future.wait_until(due_at(next))
                    : (s.future.wait(), std::future_status::ready)) ==
              std::future_status::ready)
        collect(sent[collected++]);
    } else {
      std::this_thread::sleep_until(due_at(next));
    }
  }
  return p;
}

// Least-squares slope of the requests' wait (latency minus service time)
// over their due times [s/s]. A backlog that grows by the excess rate
// shows as a slope of about utilization - 1; a stable queue as ~0.
double wait_growth(const Probe& p) {
  const double n = static_cast<double>(p.due_s.size());
  if (n < 2) return 0.0;
  const double mx = std::accumulate(p.due_s.begin(), p.due_s.end(), 0.0) / n;
  const double my = std::accumulate(p.wait_s.begin(), p.wait_s.end(), 0.0) / n;
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < p.due_s.size(); ++i) {
    sxy += (p.due_s[i] - mx) * (p.wait_s[i] - my);
    sxx += (p.due_s[i] - mx) * (p.due_s[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

// A probe passes when nothing was rejected or failed, the analysis tail
// meets the limit, and the backlog does not grow (waits rise by less than
// kMaxWaitGrowth seconds per second of the window).
constexpr double kMaxWaitGrowth = 0.1;

bool probe_passes(const Probe& p) {
  if (p.rejected) return false;
  for (double l : p.latency_s)
    if (!std::isfinite(l)) return false;
  return !p.analysis_ms.empty() &&
         tail(p.analysis_ms).value <= kTailLimitMs &&
         wait_growth(p) <= kMaxWaitGrowth;
}

// Capacity search: open-loop probes at multiples of the service's nominal
// throughput (workers / mean service time in the fixed-rate phase). A x1.2
// ladder from the nominal rate brackets the capacity, then geometric
// bisection narrows it to within 4 %. A failing rate is probed once more
// before it counts, so one unlucky window cannot end the search.
double capacity_search(const WarmState& st, serve::FlowService& service,
                       double nominal_rps, double window, std::uint64_t seed,
                       Collector& collector, std::vector<std::string>& report) {
  auto probe = [&](double rate) {
    const Probe p = open_loop(st, service, rate, window, seed, collector);
    const bool ok = probe_passes(p);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  probe %6.1f req/s: analysis tail %8.2f ms, wait growth "
                  "%+.3f s/s, %zu rejected -> %s",
                  rate, tail(p.analysis_ms).value, wait_growth(p), p.rejected,
                  ok ? "pass" : "fail");
    report.push_back(buf);
    return ok;
  };
  auto passes = [&](double f) {
    return probe(f * nominal_rps) || probe(f * nominal_rps);
  };
  double lo = 0.0;  // highest passing multiple
  double hi = 0.0;  // lowest failing multiple
  for (double f = 1.0; hi == 0.0 && f < 4.0; f *= 1.2)
    (passes(f) ? lo : hi) = f;
  for (double f = 1.0 / 1.2; lo == 0.0 && f > 0.1; f /= 1.2)
    (passes(f) ? lo : hi) = f;
  while (lo > 0.0 && hi > 0.0 && hi / lo > 1.04) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  return lo * nominal_rps;
}

// Service workers; the client thread takes the last core.
int warm_workers() { return std::max(1, bench_threads() - 1); }

// Replays one request layer by layer (its corner is resident).
serve::FlowResponse replay_request(core::CryoSocFlow& flow,
                                   const serve::FlowRequest& r, Tracer* tr) {
  serve::FlowResponse resp;
  resp.kind = r.kind;
  resp.corner = r.corner;
  // An sram query never looks its corner up.
  std::shared_ptr<const core::CornerState> st;
  if (r.kind != serve::QueryKind::kSram) {
    CRYOBENCH_SPAN(tr, "core");
    st = flow.corner_state(r.corner);
  }
  if (analysis_kind(r.kind) && !st->engine)
    throw std::runtime_error("replay: corner has no STA engine");
  switch (r.kind) {
    case serve::QueryKind::kTiming: {
      CRYOBENCH_SPAN(tr, "sta.run");
      resp.timing = st->engine->run();
      break;
    }
    case serve::QueryKind::kPower: {
      power::ActivityProfile profile = r.profile;
      if (profile.clock_frequency <= 0.0) {
        CRYOBENCH_SPAN(tr, "sta.run");
        profile.clock_frequency = st->engine->run().fmax;
      }
      CRYOBENCH_SPAN(tr, "power");
      resp.power = power::PowerAnalyzer(flow.soc(), st->library, st->sram,
                                        *st->engine)
                       .analyze(profile);
      break;
    }
    case serve::QueryKind::kMeasuredPower: {
      CRYOBENCH_SPAN(tr, "power");
      resp.power = power::PowerAnalyzer(flow.soc(), st->library, st->sram,
                                        *st->engine)
                       .analyze(r.activity);
      break;
    }
    case serve::QueryKind::kLeakage: {
      CRYOBENCH_SPAN(tr, "core");
      resp.library_leakage_w = library_leakage(st->library);
      break;
    }
    case serve::QueryKind::kSram: {
      // The program's own sram path, so that a change to it shows here.
      CRYOBENCH_SPAN(tr, "sram");
      resp = serve::execute(flow, r);
      break;
    }
    case serve::QueryKind::kSweep:
      throw std::runtime_error("replay: sweep is not in the mix");
  }
  resp.ok = true;
  return resp;
}

// Serial replay of `entries`: through serve::execute when tr is null, layer
// by layer under spans otherwise. Returns the wall time.
double serial_replay(WarmState& st, const std::vector<std::size_t>& entries,
                     Tracer* tr, Checks& checks) {
  const double t0 = now_s();
  for (std::size_t e : entries) {
    serve::FlowRequest r;
    {
      CRYOBENCH_SPAN(tr, "serve");
      r = serve::parse_request(st.pool[e].line);
    }
    const serve::FlowResponse resp =
        tr ? replay_request(*st.flow, r, tr) : serve::execute(*st.flow, r);
    std::string text;
    {
      CRYOBENCH_SPAN(tr, "serve");
      text = serve::to_json(resp).dump_line();
    }
    checks.expect(!text.empty() && payload(resp) == st.expected[e],
                  "replayed payload equals served payload");
  }
  return now_s() - t0;
}

// ---- serve_cold ----------------------------------------------------------------

constexpr int kBurstCopies = 8;  // identical requests per kind and corner
constexpr double kLookupInterval = 0.05;  // [s] lookups while a corner builds
const sram::MacroSpec kColdMacro{512, 64};

core::FlowConfig cold_service_config(const std::string& store) {
  core::FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = store;
  config.catalog.only_bases = {"INV", "NAND2", "NOR2", "AOI21", "DFF"};
  config.catalog.drives = {1, 2};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  // Leave the client and the lookups that arrive while a corner builds a
  // core each.
  config.characterize_threads = std::max(1, bench_threads() - 2);
  return config;
}

// One burst per seeded, never-seen temperature in (20, 280) K: leakage and
// sram requests, kBurstCopies each, interleaved, as wire lines.
struct Burst {
  double temperature = 0.0;
  std::vector<std::string> lines;
};

constexpr std::size_t kMaxBursts = 128;

std::vector<Burst> cold_bursts(const core::CryoSocFlow& flow,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Burst> bursts;
  while (bursts.size() < kMaxBursts) {
    const double t = std::round(rng.uniform(20.0, 280.0) * 100.0) / 100.0;
    if (std::any_of(bursts.begin(), bursts.end(),
                    [&](const Burst& b) { return b.temperature == t; }))
      continue;
    Burst b;
    b.temperature = t;
    const core::Corner c = flow.corner(t);
    for (int i = 0; i < kBurstCopies; ++i) {
      const std::string n = std::to_string(i);
      b.lines.push_back(
          serve::to_json(serve::leakage_request(c, "leak-" + n)).dump_line());
      b.lines.push_back(
          serve::to_json(serve::sram_request(c, kColdMacro, "sram-" + n))
              .dump_line());
    }
    bursts.push_back(std::move(b));
  }
  return bursts;
}

// Declared so that the service, which refers to the flow, goes first.
struct ColdState {
  std::unique_ptr<Store> store;
  std::unique_ptr<core::CryoSocFlow> flow;
  std::unique_ptr<serve::FlowService> service;
  std::vector<Burst> bursts;

  void reset() {
    service.reset();
    flow.reset();
    store.reset();
  }
};

void cold_setup(const Options& o, ColdState& st) {
  st.store = std::make_unique<Store>(o.store_root, "serve_cold");
  st.flow = std::make_unique<core::CryoSocFlow>(
      cold_service_config(st.store->dir()));
  st.flow->nmos();
  serve::ServiceConfig sc;
  sc.workers = std::max(1, bench_threads() - 1);
  st.service = std::make_unique<serve::FlowService>(*st.flow, sc);
  st.bursts = cold_bursts(*st.flow, o.seed);
  // The client checks its request deck parses before it sends any of it.
  for (const Burst& b : st.bursts)
    for (const std::string& line : b.lines) serve::parse_request(line);
}

struct BurstOut {
  double wall_s = 0.0;
  double corner_s = 0.0;
  std::size_t requests = 0;  // burst plus lookups
  std::vector<std::string> payloads;  // per line, in order
};

BurstOut run_burst(ColdState& st, const Burst& burst, Samples& s,
                   Collector& collector, Checks& checks) {
  const std::vector<std::string>& lines = burst.lines;
  BurstOut out;
  const double b0 = now_s();
  std::vector<Sent> sent(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    sent[i].due = b0;
    sent[i].future = st.service->submit(serve::parse_request(lines[i]));
    sent[i].submitted = now_s();
  }
  // While the corner builds, the client keeps looking up the corner's SRAM
  // macro at a fixed interval, one request at a time.
  std::vector<serve::FlowResponse> lookups;
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kLookupInterval));
  for (auto tick = Clock::now() + interval;
       sent[0].future.wait_until(tick) != std::future_status::ready;
       tick += interval) {
    Sent lookup;
    lookup.due = now_s();
    lookup.future = st.service->submit(serve::parse_request(lines[1]));
    lookup.submitted = now_s();
    lookups.emplace_back();
    s.lookup_ms.push_back(ms(collector.finish(lookup, &lookups.back())));
  }
  std::vector<double> latency(lines.size());
  std::vector<serve::FlowResponse> responses(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    latency[i] = collector.finish(sent[i], &responses[i]);
  out.wall_s = now_s() - b0;
  out.requests = lines.size() + lookups.size();
  // serve::execute on the same flow, now that the corner exists, must
  // return the served bytes.
  const std::string expected[2] = {
      payload(serve::execute(*st.flow, serve::parse_request(lines[0]))),
      payload(serve::execute(*st.flow, serve::parse_request(lines[1])))};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.payloads.push_back(payload(responses[i]));
    checks.expect(out.payloads.back() == expected[i % 2],
                  "served payload equals serve::execute");
    // Leakage needs the corner's library, so it stands in for analysis
    // here. The burst's own sram requests ride on coalescing and count in
    // the burst's wall time; the lookups are the ones made one at a time.
    if (i % 2 == 0) s.analysis_ms.push_back(ms(latency[i]));
  }
  for (const serve::FlowResponse& r : lookups)
    checks.expect(payload(r) == expected[1],
                  "served payload equals serve::execute");
  out.corner_s = latency[0];
  return out;
}

// The leakage + sram executions of one burst, replayed layer by layer: a
// cold corner and its leakage sum; `helper` answers the sram query through
// the program's own path.
std::vector<std::string> replay_burst(const core::FlowConfig& config,
                                      const device::ModelCard& nmos,
                                      const device::ModelCard& pmos,
                                      core::CryoSocFlow& helper,
                                      const Burst& burst, Tracer* tr) {
  const std::vector<std::string>& lines = burst.lines;
  std::vector<serve::FlowRequest> requests;
  {
    CRYOBENCH_SPAN(tr, "serve");
    for (const std::string& line : lines)
      requests.push_back(serve::parse_request(line));
  }
  const core::Corner& c = requests[0].corner;
  const charlib::Library lib =
      replay_cold_corner(config, nmos, pmos, c, tr).library;
  serve::FlowResponse leak;
  leak.kind = serve::QueryKind::kLeakage;
  leak.corner = c;
  {
    CRYOBENCH_SPAN(tr, "core");
    leak.library_leakage_w = library_leakage(lib);
  }
  leak.ok = true;
  serve::FlowResponse sram;
  {
    CRYOBENCH_SPAN(tr, "sram");
    sram = serve::execute(helper, requests[1]);
  }
  std::vector<std::string> payloads;
  CRYOBENCH_SPAN(tr, "serve");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const serve::FlowResponse& r = i % 2 == 0 ? leak : sram;
    serve::to_json(r).dump_line();
    payloads.push_back(payload(r));
  }
  return payloads;
}

}  // namespace

Run serve_warm(const Options& o) {
  Run run;
  const auto run_start = CounterSnapshot::take();
  WarmState st;
  repeat_setup(
      o.trace, run.samples, [&] { st = warm_setup(o, run.samples); },
      [&] { st = WarmState{}; });
  serve::ServiceConfig sc;
  sc.workers = warm_workers();
  serve::FlowService service(*st.flow, sc);
  Collector collector(&st.expected, run.checks);
  // Warm-up: fresh worker threads pay first-touch costs once.
  open_loop(st, service, kFixedRate, 0.05 * o.seconds, o.seed + 1, collector);
  collector.queue_ms.clear();
  collector.service_ms.clear();

  const double fixed_window = 0.5 * o.seconds;
  const auto c0 = CounterSnapshot::take();
  const Probe fixed = open_loop(st, service, kFixedRate, fixed_window, o.seed,
                                collector);
  const auto program = CounterSnapshot::take().since(c0);
  run.samples.peak_rss_mb = peak_rss_mb();

  Digest digest;
  std::size_t measured_bytes = 0;
  for (std::size_t e = 0; e < st.pool.size(); ++e) {
    digest.add("payload", st.expected[e]);
    if (st.pool[e].kind == serve::QueryKind::kMeasuredPower)
      measured_bytes = st.pool[e].line.size();
  }
  run.digest = digest.hex();
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "request pool: %zu distinct requests; a measured_power line "
                "is %zu bytes; %d service workers",
                st.pool.size(), measured_bytes, sc.workers);
  run.report.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "fixed rate %.0f req/s for %.1f s: %zu requests, generator "
                "lag tail %.3f ms",
                kFixedRate, fixed_window, fixed.entries.size(),
                tail(fixed.lag_ms).value);
  run.report.push_back(buf);

  if (o.trace) {
    LayerInputs li;
    li.program = program;
    li.program_wall_s = fixed_window;
    li.queue_ms = collector.queue_ms;
    li.service_ms = collector.service_ms;
    li.gen_lag_ms = fixed.lag_ms;
    li.lookup_ms = fixed.lookup_ms;
    li.served = static_cast<double>(fixed.entries.size());
    std::vector<std::size_t> entries = fixed.entries;
    entries.resize(std::min<std::size_t>(entries.size(), 150));
    li.untraced_wall_s = serial_replay(st, entries, nullptr, run.checks);
    Tracer tracer;
    const auto c1 = CounterSnapshot::take();
    li.traced_wall_s = serial_replay(st, entries, &tracer, run.checks);
    li.replay = CounterSnapshot::take().since(c1);
    li.tracer = &tracer;
    run.layer_metrics = layer_metrics(li, run.checks);
    for (const std::string& line : layer_report(li))
      run.report.push_back(line);
  } else {
    run.samples.analysis_ms = fixed.analysis_ms;
    run.samples.lookup_ms = fixed.lookup_ms;
    const double nominal =
        sc.workers * 1e3 /
        (std::accumulate(collector.service_ms.begin(),
                         collector.service_ms.end(), 0.0) /
         static_cast<double>(collector.service_ms.size()));
    std::snprintf(buf, sizeof buf,
                  "capacity search (open loop, limit %.0f ms analysis tail; "
                  "nominal %.1f req/s):",
                  kTailLimitMs, nominal);
    run.report.push_back(buf);
    run.samples.capacity_rps =
        capacity_search(st, service, nominal, 0.07 * o.seconds, o.seed,
                        collector, run.report);
    // One paper-flow pass of queries, closed loop, per iteration.
    for (int pass = 0; pass < kFlowQueryPasses; ++pass) {
      const double t0 = now_s();
      for (std::size_t e : st.flow_queries) {
        Sent s;
        s.entry = e;
        s.due = now_s();
        s.future = service.submit(serve::parse_request(st.pool[e].line));
        s.submitted = now_s();
        collector.finish(s);
      }
      run.samples.flow_s.push_back(now_s() - t0);
    }
  }
  const auto counters = CounterSnapshot::take().since(run_start);
  run.checks.expect(counters.at("charlib.runs") == 0,
                    "warm service characterizes nothing");
  run.checks.expect(counters.at("artifacts.misses") == 0,
                    "warm service has no artifact misses");
  return run;
}

Run serve_cold(const Options& o) {
  Run run;
  ColdState st;
  repeat_setup(
      o.trace, run.samples, [&] { cold_setup(o, st); }, [&] { st.reset(); });
  Collector collector(nullptr, run.checks);
  const auto c0 = CounterSnapshot::take();
  const double start = now_s();
  std::vector<BurstOut> bursts;
  constexpr std::size_t kTracedBursts = 4;
  constexpr std::size_t kRssBursts = 5;  // peak RSS is read after these
  std::size_t served = 0;
  double burst_total = 0.0;
  while (bursts.size() < st.bursts.size() &&
         (o.trace ? bursts.size() < kTracedBursts
                  : bursts.empty() || now_s() - start < o.seconds)) {
    bursts.push_back(run_burst(st, st.bursts[bursts.size()], run.samples,
                               collector, run.checks));
    served += bursts.back().requests;
    burst_total += bursts.back().wall_s;
    if (bursts.size() <= kRssBursts) run.samples.peak_rss_mb = peak_rss_mb();
    run.samples.flow_s.push_back(bursts.back().wall_s);
    run.samples.cold_corner_s.push_back(bursts.back().corner_s);
  }
  const auto program = CounterSnapshot::take().since(c0);
  run.checks.expect(program.at("charlib.failed_arcs") == 0, "no failed arcs");
  run.samples.capacity_rps = static_cast<double>(served) / burst_total;
  Digest digest;
  for (const BurstOut& b : bursts)
    for (const std::string& p : b.payloads) digest.add("payload", p);
  run.digest = digest.hex();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu cold corners, %zu requests: %.0f executed, %.0f "
                "coalesced",
                bursts.size(), served, program.at("serve.executed"),
                program.at("serve.coalesced"));
  run.report.push_back(buf);
  if (!o.trace) return run;

  // Replays of the same bursts on fresh stores: untraced, then traced.
  LayerInputs li;
  li.program = program;
  li.program_wall_s = burst_total;
  li.queue_ms = collector.queue_ms;
  li.service_ms = collector.service_ms;
  li.served = static_cast<double>(served);
  li.lookup_ms = run.samples.lookup_ms;
  const device::ModelCard nmos = st.flow->nmos();
  const device::ModelCard pmos = st.flow->pmos();
  auto replay_all = [&](Tracer* tr) {
    Store store(o.store_root, "serve_cold_replay");
    const core::FlowConfig config = cold_service_config(store.dir());
    core::CryoSocFlow helper(config);
    helper.nmos();
    const double t0 = now_s();
    std::vector<std::vector<std::string>> payloads;
    for (std::size_t b = 0; b < bursts.size(); ++b)
      payloads.push_back(
          replay_burst(config, nmos, pmos, helper, st.bursts[b], tr));
    const double wall = now_s() - t0;
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      run.checks.expect(payloads[b] == bursts[b].payloads,
                        "replayed burst payloads equal served payloads");
      const std::string lib =
          "/cryo5_" + st.flow->corner(st.bursts[b].temperature).slug() + ".lib";
      run.checks.expect(read_text(st.store->dir() + lib) ==
                            read_text(store.dir() + lib),
                        "replayed Liberty text equals the served corner's");
    }
    return wall;
  };
  li.untraced_wall_s = replay_all(nullptr);
  Tracer tracer;
  const auto c1 = CounterSnapshot::take();
  li.traced_wall_s = replay_all(&tracer);
  li.replay = CounterSnapshot::take().since(c1);
  li.tracer = &tracer;
  run.layer_metrics = layer_metrics(li, run.checks);
  for (const std::string& line : layer_report(li)) run.report.push_back(line);
  return run;
}

}  // namespace cryobench
