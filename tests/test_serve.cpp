// cryo::serve tests: wire-format round trips, fingerprint coalescing,
// bounded-queue backpressure, and byte-identity of service responses
// against direct CryoSocFlow calls.
//
// The service tests use a tiny INV-only catalog in a scratch artifact
// store (characterization stays in the millisecond range) and the cheap
// query kinds (leakage / sram / sweep-leakage) that never synthesize the
// SoC; the full-catalog equivalence test loads the committed Liberty
// artifacts like test_flow does.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cryo::serve {
namespace {

namespace fs = std::filesystem;
using core::Corner;
using core::CryoSocFlow;
using core::FlowConfig;
using core::FlowError;

FlowConfig tiny_config(const std::string& lib_dir) {
  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = lib_dir;
  config.catalog.only_bases = {"INV"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  return config;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

// One richly-populated request per kind, exercising every serialized
// field.
std::vector<FlowRequest> sample_requests() {
  const Corner c{0.7, 77.0, "cold"};
  std::vector<FlowRequest> requests;
  requests.push_back(timing_request(c, "rq-timing"));

  power::ActivityProfile profile;
  profile.clock_frequency = 1.25e9;
  profile.default_activity = 0.05;
  profile.unit_activity = {{"alu", 0.45}, {"pc", 0.3}};
  profile.sram_reads_per_cycle = {{"l1d_data", 0.125}};
  profile.sram_writes_per_cycle = {{"l1d_data", 0.0625}};
  requests.push_back(power_request(c, profile, "rq-power"));

  FlowRequest measured;
  measured.kind = QueryKind::kMeasuredPower;
  measured.id = "rq-measured";
  measured.corner = c;
  measured.activity.clock_frequency = 2e9;
  measured.activity.cycles = 1000;
  measured.activity.events = 4321;
  measured.activity.glitches = 17;
  measured.activity.net_toggles = {5, 0, 12};
  measured.activity.net_glitches = {1, 0, 0};
  measured.activity.sram_reads_per_cycle = {{"l1i_tags", 0.5}};
  requests.push_back(measured);

  requests.push_back(leakage_request(c, "rq-leak"));
  requests.push_back(sram_request(c, {256, 32}, "rq-sram"));

  SweepQuery sweep;
  sweep.corners = {Corner::room(), Corner::cryo()};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  sweep.run_feasibility = true;
  sweep.cycles_per_classification = 1500.0;
  sweep.qubits = 27;
  sweep.profile = profile;
  requests.push_back(sweep_request(sweep, "rq-sweep"));
  return requests;
}

// ---- Wire format ---------------------------------------------------------

TEST(ServeWire, RequestRoundTripsByteIdenticallyForEveryKind) {
  for (const FlowRequest& request : sample_requests()) {
    const std::string wire = to_json(request).dump(0);
    const FlowRequest parsed = parse_request(wire);
    EXPECT_EQ(to_json(parsed).dump(0), wire) << kind_name(request.kind);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(request_fingerprint(parsed), request_fingerprint(request))
        << kind_name(request.kind);
  }
}

TEST(ServeWire, FingerprintIgnoresIdButTracksPayload) {
  const Corner c{0.7, 10.0, ""};
  FlowRequest a = leakage_request(c, "client-1");
  FlowRequest b = leakage_request(c, "client-2");
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));

  FlowRequest other_kind = timing_request(c);
  EXPECT_NE(request_fingerprint(a), request_fingerprint(other_kind));
  FlowRequest other_corner = leakage_request(Corner{0.7, 10.5, ""});
  EXPECT_NE(request_fingerprint(a), request_fingerprint(other_corner));
}

TEST(ServeWire, ParseRejectsMalformedRequests) {
  const auto stage_of = [](const std::string& text) {
    try {
      parse_request(text);
      return std::string("no-throw");
    } catch (const FlowError& e) {
      return e.stage();
    }
  };
  EXPECT_EQ(stage_of("{not json"), "request-parse");
  EXPECT_EQ(stage_of("[1,2,3]"), "request-parse");
  EXPECT_EQ(stage_of("{\"schema\":\"wrong-v9\",\"kind\":\"timing\"}"),
            "request-parse");
  EXPECT_EQ(stage_of("{\"schema\":\"cryosoc-req-v1\",\"kind\":\"bogus\"}"),
            "request-parse");
  // Right schema and kind but a missing corner.
  EXPECT_EQ(stage_of("{\"schema\":\"cryosoc-req-v1\",\"kind\":\"timing\"}"),
            "request-parse");
  // A header member of the wrong type.
  EXPECT_EQ(stage_of("{\"schema\":5,\"kind\":\"timing\"}"), "request-parse");

  // Hostile numbers: integer fields take exact in-range integers only
  // (SRAM rows/cols >= 1), and doubles must be finite.
  const std::string head = R"({"schema":"cryosoc-req-v1","kind":)";
  const std::string corner = R"("corner":{"vdd":0.7,"temperature_k":10})";
  const auto sram = [&](const std::string& rows, const std::string& cols) {
    return head + R"("sram",)" + corner + R"(,"macro":{"rows":)" + rows +
           R"(,"cols":)" + cols + "}}";
  };
  const auto sweep = [&](const std::string& field) {
    return head + R"("sweep","sweep":{"corners":[],)" + field + "}}";
  };
  const auto measured = [&](const std::string& fields) {
    return head + R"("measured_power",)" + corner + R"(,"activity":{)" +
           fields + "}}";
  };
  const auto vdd = [&](const std::string& number) {
    return head + R"("timing","corner":{"vdd":)" + number +
           R"(,"temperature_k":10}})";
  };
  const std::string hostile[] = {
      sram("1e999", "8"),
      sram("1.5", "8"),
      sram("1e3", "8"),
      sram("-1", "8"),
      sram("0", "8"),
      sram("8", "0"),
      sram("2147483648", "8"),
      sram(R"("64")", "8"),
      head + R"("timing","corner":{"vdd":0.7,"temperature_k":1e999}})",
      sweep(R"("qubits":1e999)"),
      sweep(R"("threads":1.5)"),
      sweep(R"("threads":-2147483649)"),
      measured(R"("cycles":-1,"events":0,"glitches":0)"),
      measured(R"("cycles":18446744073709551616,"events":0,"glitches":0)"),
      measured(R"("cycles":1,"events":0,"glitches":0,"net_toggles":[1.5])"),
      // Containers of the wrong kind.
      head + R"("sweep","sweep":{"corners":5}})",
      measured(R"("cycles":1,"events":0,"glitches":0,"net_toggles":"5")"),
      measured(R"("cycles":1,"events":0,"glitches":0,)"
               R"("sram_reads_per_cycle":[0.5])"),
  };
  for (const std::string& text : hostile)
    EXPECT_EQ(stage_of(text), "request-parse") << text;
  // Number tokens outside the RFC 8259 grammar, then ones inside it.
  for (const char* number : {".7", "0300", "064", "1.", "-.5", "1.e3", "-"})
    EXPECT_EQ(stage_of(vdd(number)), "request-parse") << number;
  for (const char* number : {"0", "-0", "0.5", "1e-05", "1E+2"})
    EXPECT_EQ(stage_of(vdd(number)), "no-throw") << number;
  // critical_path only travels in responses, so its reader's stage is
  // response-parse.
  try {
    parse_response(
        R"({"schema":"cryosoc-resp-v1","kind":"timing","ok":true,"result":)"
        R"({"timing":{"critical_delay_s":1e-9,"fmax_hz":1e9,)"
        R"("endpoint_count":1,"critical_path":{}}}})");
    ADD_FAILURE() << "critical_path given an object was accepted";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "response-parse");
    EXPECT_NE(e.detail().find("timing.critical_path"), std::string::npos)
        << e.detail();
  }
  // The limits themselves are accepted.
  EXPECT_EQ(stage_of(sram("1", "2147483647")), "no-throw");
  EXPECT_EQ(stage_of(sweep(R"("threads":-1)")), "no-throw");
  EXPECT_EQ(stage_of(measured(
                R"("cycles":18446744073709551615,"events":0,"glitches":0)")),
            "no-throw");
}

// Hand-built responses covering every kind and result member, including
// error responses and optional sweep verdicts.
std::vector<FlowResponse> sample_responses() {
  std::vector<FlowResponse> responses;
  {
    FlowResponse r;
    r.kind = QueryKind::kTiming;
    r.ok = true;
    r.corner = {0.7, 300.0, "300k"};
    sta::TimingReport t;
    t.critical_delay = 7.25e-10;
    t.fmax = 1.0 / t.critical_delay;
    t.worst_hold_slack = 1.5e-11;
    t.has_hold_endpoints = true;
    t.endpoint_count = 321;
    t.critical_endpoint = "mem_wb_r17_b3";
    t.critical_path = {{"alu_x", "NAND2_X2", "A1", 1.25e-11, 5.5e-11}};
    r.timing = t;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kPower;
    r.ok = true;
    r.corner = {0.65, 10.0, "10k"};
    power::PowerReport p;
    p.dynamic_logic = 0.011;
    p.dynamic_sram = 0.002;
    p.dynamic_glitch = 0.0005;
    p.leakage_logic = 1e-5;
    p.leakage_sram = 3e-6;
    r.power = p;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kLeakage;
    r.ok = true;
    r.corner = {0.7, 10.0, ""};
    r.library_leakage_w = 4.25e-7;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kSram;
    r.ok = true;
    r.corner = {0.7, 300.0, ""};
    SramResult s;
    s.macro = {512, 64};
    s.timing = {2.5e-10, 3e-11, 4e-10};
    s.power = {1e-4, 2e-13, 3e-13};
    s.leakage_per_bit_w = 3e-9;
    s.reference_gate_delay_s = 6e-12;
    r.sram = s;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kSweep;
    r.ok = true;
    SweepOutcome o;
    SweepCornerResult ok_corner;
    ok_corner.corner = {0.7, 300.0, "300k"};
    ok_corner.ok = true;
    ok_corner.library_leakage_w = 2e-4;
    ok_corner.fits_cooling_budget = false;
    ok_corner.meets_deadline = true;
    SweepCornerResult bad_corner;
    bad_corner.corner = {0.7, 10.0, "10k"};
    bad_corner.ok = false;
    bad_corner.error_stage = "quarantine";
    bad_corner.error = "library has 1 quarantined arc(s)\n\x01";
    o.corners = {ok_corner, bad_corner};
    o.failed = 1;
    o.worst_corner = 0;
    o.fmax_vs_temperature = {{10.0, 1.1e9}, {300.0, 1.2e9}};
    o.cooling_crossover_k = 47.5;
    o.cooling_verdict = CoolingVerdict::kCrossover;
    r.sweep = o;
    responses.push_back(r);
  }
  {
    // A sweep where even the coldest corner exceeds the budget: the
    // verdict (not an unset optional) carries the distinction.
    FlowResponse r;
    r.kind = QueryKind::kSweep;
    r.ok = true;
    SweepOutcome o;
    SweepCornerResult c;
    c.corner = {0.7, 10.0, "10k"};
    c.ok = true;
    c.fits_cooling_budget = false;
    o.corners = {c};
    o.cooling_verdict = CoolingVerdict::kInfeasibleEverywhere;
    r.sweep = o;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kMeasuredPower;
    r.ok = false;
    r.corner = {0.7, 4.0, ""};
    r.error_stage = "characterize";
    r.error = "[flow:characterize] SPICE diverged";
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kMeasuredPower;
    r.ok = true;
    r.corner = {0.7, 4.0, ""};
    power::PowerReport p;
    p.dynamic_logic = 0.0031;
    p.dynamic_glitch = 1.0 / 3.0;
    p.leakage_logic = 2e-7;
    r.power = p;
    responses.push_back(r);
  }
  return responses;
}

TEST(ServeWire, ResponseRoundTripsByteIdenticallyForEveryKind) {
  std::vector<FlowResponse> responses = sample_responses();
  for (FlowResponse& response : responses) {
    response.meta.id = "resp-id";
    response.meta.sequence = 42;
    response.meta.coalesced = 3;
    response.meta.queue_seconds = 0.001953125;  // dyadic: exact in JSON
    response.meta.service_seconds = 0.25;
    response.meta.kind_latency = {7, 0.125, 0.5, 0.75};
    const std::string wire = to_json(response).dump(0);
    const FlowResponse parsed = parse_response(wire);
    EXPECT_EQ(to_json(parsed).dump(0), wire) << kind_name(response.kind);
    EXPECT_EQ(parsed.meta.sequence, 42u);
    EXPECT_EQ(parsed.meta.kind_latency.count, 7u);
  }
}

// The wire format is a contract with external clients: a request and a
// response of every kind, and a parse-error response, render exactly
// these bytes.
TEST(ServeWire, RenderingsMatchPinnedBytes) {
  const char* const kRequests[] = {
    R"({"schema":"cryosoc-req-v1","kind":"timing","id":"rq-timing","corne)"
    R"(r":{"vdd":0.7,"temperature_k":77,"name":"cold"}})",
    R"({"schema":"cryosoc-req-v1","kind":"power","id":"rq-power","corner")"
    R"(:{"vdd":0.7,"temperature_k":77,"name":"cold"},"profile":{"clock_fr)"
    R"(equency_hz":1.25e+09,"default_activity":0.05,"unit_activity":{"alu)"
    R"(":0.45,"pc":0.3},"sram_reads_per_cycle":{"l1d_data":0.125},"sram_w)"
    R"(rites_per_cycle":{"l1d_data":0.0625}}})",
    R"({"schema":"cryosoc-req-v1","kind":"measured_power","id":"rq-measur)"
    R"(ed","corner":{"vdd":0.7,"temperature_k":77,"name":"cold"},"activit)"
    R"(y":{"clock_frequency_hz":2e+09,"cycles":1000,"events":4321,"glitch)"
    R"(es":17,"net_toggles":[5,0,12],"net_glitches":[1,0,0],"sram_reads_p)"
    R"(er_cycle":{"l1i_tags":0.5},"sram_writes_per_cycle":{}}})",
    R"({"schema":"cryosoc-req-v1","kind":"leakage","id":"rq-leak","corner)"
    R"(":{"vdd":0.7,"temperature_k":77,"name":"cold"}})",
    R"({"schema":"cryosoc-req-v1","kind":"sram","id":"rq-sram","corner":{)"
    R"("vdd":0.7,"temperature_k":77,"name":"cold"},"macro":{"rows":256,"c)"
    R"(ols":32}})",
    R"({"schema":"cryosoc-req-v1","kind":"sweep","id":"rq-sweep","sweep":)"
    R"({"corners":[{"vdd":0.7,"temperature_k":300,"name":"300k"},{"vdd":0)"
    R"(.7,"temperature_k":10,"name":"10k"}],"run_timing":false,"run_power)"
    R"(":false,"run_leakage":true,"run_feasibility":true,"profile":{"cloc)"
    R"(k_frequency_hz":1.25e+09,"default_activity":0.05,"unit_activity":{)"
    R"("alu":0.45,"pc":0.3},"sram_reads_per_cycle":{"l1d_data":0.125},"sr)"
    R"(am_writes_per_cycle":{"l1d_data":0.0625}},"cooling_budget_w":0.1,")"
    R"(deadline_s":0.00011,"cycles_per_classification":1500,"qubits":27,")"
    R"(threads":0}})",
  };
  const char* const kResponses[] = {
    R"({"schema":"cryosoc-resp-v1","kind":"timing","ok":true,"corner":{"v)"
    R"(dd":0.7,"temperature_k":300,"name":"300k"},"result":{"timing":{"cr)"
    R"(itical_delay_s":7.25e-10,"fmax_hz":1379310344.8275862,"worst_hold_)"
    R"(slack_s":1.5e-11,"has_hold_endpoints":true,"endpoint_count":321,"c)"
    R"(ritical_endpoint":"mem_wb_r17_b3","critical_path":[{"instance":"al)"
    R"(u_x","cell":"NAND2_X2","through":"A1","delay_s":1.25e-11,"arrival_)"
    R"(s":5.5e-11}]}}})",
    R"({"schema":"cryosoc-resp-v1","kind":"power","ok":true,"corner":{"vd)"
    R"(d":0.65,"temperature_k":10,"name":"10k"},"result":{"power":{"dynam)"
    R"(ic_logic_w":0.011,"dynamic_sram_w":0.002,"dynamic_glitch_w":5e-04,)"
    R"("leakage_logic_w":1e-05,"leakage_sram_w":3e-06,"total_w":0.013513})"
    R"(}})",
    R"({"schema":"cryosoc-resp-v1","kind":"leakage","ok":true,"corner":{")"
    R"(vdd":0.7,"temperature_k":10},"result":{"library_leakage_w":4.25e-0)"
    R"(7}})",
    R"({"schema":"cryosoc-resp-v1","kind":"sram","ok":true,"corner":{"vdd)"
    R"(":0.7,"temperature_k":300},"result":{"sram":{"macro":{"rows":512,")"
    R"(cols":64},"access_time_s":2.5e-10,"setup_time_s":3e-11,"min_cycle_)"
    R"(s":4e-10,"leakage_w":1e-04,"read_energy_j":2e-13,"write_energy_j":)"
    R"(3e-13,"leakage_per_bit_w":3e-09,"reference_gate_delay_s":6e-12}}})",
    R"({"schema":"cryosoc-resp-v1","kind":"sweep","ok":true,"result":{"sw)"
    R"(eep":{"failed":1,"corners":[{"corner":{"vdd":0.7,"temperature_k":3)"
    R"(00,"name":"300k"},"ok":true,"library_leakage_w":2e-04,"fits_coolin)"
    R"(g_budget":false,"meets_deadline":true},{"corner":{"vdd":0.7,"tempe)"
    R"(rature_k":10,"name":"10k"},"ok":false,"error":{"stage":"quarantine)"
    R"(","detail":"library has 1 quarantined arc(s)\n\u0001"}}],"worst_co)"
    R"(rner":0,"fmax_vs_temperature":[{"temperature_k":10,"fmax_hz":1.1e+)"
    R"(09},{"temperature_k":300,"fmax_hz":1.2e+09}],"cooling_crossover_k")"
    R"(:47.5,"cooling_verdict":"crossover"}}})",
    R"({"schema":"cryosoc-resp-v1","kind":"sweep","ok":true,"result":{"sw)"
    R"(eep":{"failed":0,"corners":[{"corner":{"vdd":0.7,"temperature_k":1)"
    R"(0,"name":"10k"},"ok":true,"fits_cooling_budget":false}],"fmax_vs_t)"
    R"(emperature":[],"cooling_verdict":"infeasible_everywhere"}}})",
    R"({"schema":"cryosoc-resp-v1","kind":"measured_power","ok":false,"er)"
    R"(ror":{"stage":"characterize","detail":"[flow:characterize] SPICE d)"
    R"(iverged"},"corner":{"vdd":0.7,"temperature_k":4},"result":{}})",
    R"({"schema":"cryosoc-resp-v1","kind":"measured_power","ok":true,"cor)"
    R"(ner":{"vdd":0.7,"temperature_k":4},"result":{"power":{"dynamic_log)"
    R"(ic_w":0.0031,"dynamic_sram_w":0,"dynamic_glitch_w":0.3333333333333)"
    R"(333,"leakage_logic_w":2e-07,"leakage_sram_w":0,"total_w":0.3364335)"
    R"(333333333}}})",
  };
  const std::vector<FlowRequest> requests = sample_requests();
  ASSERT_EQ(requests.size(), std::size(kRequests));
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(to_json(requests[i]).dump_line(), kRequests[i]) << i;
  const std::vector<FlowResponse> responses = sample_responses();
  ASSERT_EQ(responses.size(), std::size(kResponses));
  for (std::size_t i = 0; i < responses.size(); ++i)
    EXPECT_EQ(response_payload_json(responses[i]).dump_line(), kResponses[i])
        << i;

  // The ok=false line cryosocd answers a malformed request with.
  FlowResponse parse_error;
  try {
    parse_request("{not json");
    FAIL() << "expected FlowError{request-parse}";
  } catch (const FlowError& e) {
    parse_error.error_stage = e.stage();
    parse_error.error = e.detail();
  }
  EXPECT_EQ(response_payload_json(parse_error).dump_line(),
            R"({"schema":"cryosoc-resp-v1","kind":"timing","ok":false,"error":{"s)"
            R"(tage":"request-parse","detail":"expected '\"', got 'n' at byte 1"})"
            R"(,"corner":{"vdd":0.7,"temperature_k":300},"result":{}})");
}

TEST(ServeWire, JsonParserHandlesEscapesAndRejectsGarbage) {
  const obs::Json v =
      obs::Json::parse("{\"a\\n\": [1, -2.5e3, \"\\u0041\"], \"b\": null}");
  ASSERT_TRUE(v.is_object());
  const obs::Json* arr = v.find("a\n");
  ASSERT_NE(arr, nullptr);
  const auto& items = arr->items("a");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_DOUBLE_EQ(items[0].as_number("n"), 1.0);
  EXPECT_DOUBLE_EQ(items[1].as_number("n"), -2500.0);
  EXPECT_EQ(items[2].as_string("s"), "A");
  EXPECT_TRUE(v.at("b", "doc").is_null());
  EXPECT_THROW(v.at("b", "doc").items("b"), obs::JsonError);
  EXPECT_THROW(arr->members("a"), obs::JsonError);

  EXPECT_THROW(obs::Json::parse("{\"a\":1} trailing"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("{\"a\":}"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse(""), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("{\"a\":01x}"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("\"\\u00g1\""), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("\"\\u-041\""), obs::JsonError);
}

TEST(ServeWire, DeepNestingIsAParseErrorAndServiceCarriesOn) {
  // One line of '[' once recursed until the parser overflowed its stack.
  try {
    parse_request(std::string(1 << 20, '['));
    FAIL() << "expected FlowError{request-parse}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "request-parse");
    EXPECT_NE(e.detail().find("nesting too deep at byte 64"),
              std::string::npos)
        << e.detail();
  }

  const fs::path dir = fs::path(::testing::TempDir()) / "serve_deep";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));
  FlowService service(flow);
  const std::string next =
      to_json(sram_request(Corner{0.7, 300.0, ""}, {64, 8})).dump_line();
  const FlowResponse response = service.call(parse_request(next));
  EXPECT_TRUE(response.ok) << response.error;
  fs::remove_all(dir);
}

// ---- Service: coalescing storm ------------------------------------------

TEST(ServeService, ConcurrentSameCornerStormCoalescesToOneExecution) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_storm";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));

  // Gate the worker so every one of the 32 submissions lands while the
  // first is still in flight: the coalescing then has to be exact.
  std::promise<void> all_submitted;
  std::shared_future<void> gate = all_submitted.get_future().share();
  ServiceConfig config;
  config.workers = 2;
  config.before_execute = [gate](const FlowRequest&) { gate.wait(); };

  const std::uint64_t runs0 = counter("charlib.runs");
  const std::uint64_t executed0 = counter("serve.executed");
  const std::uint64_t coalesced0 = counter("serve.coalesced");

  const Corner storm_corner{0.7, 150.0, ""};  // uncached: must characterize
  std::vector<std::shared_future<FlowResponse>> futures;
  {
    FlowService service(flow, config);
    for (int i = 0; i < 32; ++i)
      futures.push_back(service.submit(
          leakage_request(storm_corner, "storm-" + std::to_string(i))));
    all_submitted.set_value();
    for (auto& f : futures) f.wait();
  }

  // Exactly one execution and one characterization; the other 31 joined.
  EXPECT_EQ(counter("serve.executed") - executed0, 1u);
  EXPECT_EQ(counter("serve.coalesced") - coalesced0, 31u);
  EXPECT_EQ(counter("charlib.runs") - runs0, 1u);

  // Every storm response is byte-identical to a direct flow call against
  // the same corner state. (A *fresh* flow would reload the Liberty
  // artifact, whose %.6g rendering rounds low-order bits — cold vs warm
  // equality is the artifact format's contract, not the service's.)
  const FlowResponse direct = execute(flow, leakage_request(storm_corner));
  ASSERT_TRUE(direct.ok) << direct.error;
  const std::string expected = response_payload_json(direct).dump(0);
  for (const auto& f : futures) {
    const FlowResponse& response = f.get();
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response_payload_json(response).dump(0), expected);
    EXPECT_EQ(response.meta.coalesced, 31u);
    EXPECT_GE(response.meta.kind_latency.count, 1u);
  }
  fs::remove_all(dir);
}

// ---- Service: backpressure ----------------------------------------------

TEST(ServeService, BoundedQueueRejectsOverloadWithAdmissionError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_overload";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));

  std::promise<void> picked_up;
  std::promise<void> release;
  std::shared_future<void> release_gate = release.get_future().share();
  std::atomic<bool> first{true};
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.before_execute = [&](const FlowRequest&) {
    if (first.exchange(false)) picked_up.set_value();
    release_gate.wait();
  };

  const std::uint64_t rejected0 = counter("serve.rejected");
  FlowService service(flow, config);

  // sram queries don't characterize: distinct temperatures give distinct
  // fingerprints, so nothing coalesces.
  const auto request_at = [](double t) {
    return sram_request(Corner{0.7, t, ""}, {64, 8});
  };
  std::vector<std::shared_future<FlowResponse>> futures;
  futures.push_back(service.submit(request_at(301.0)));
  picked_up.get_future().wait();  // worker holds it; the queue is empty

  futures.push_back(service.submit(request_at(302.0)));
  futures.push_back(service.submit(request_at(303.0)));  // queue now full
  try {
    service.submit(request_at(304.0));
    FAIL() << "expected FlowError{admission}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "admission");
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_EQ(counter("serve.rejected") - rejected0, 1u);

  release.set_value();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);

  // Draining freed capacity: the same query is admitted now.
  EXPECT_TRUE(service.call(request_at(304.0)).ok);
  fs::remove_all(dir);
}

TEST(ServeService, RejectsZeroQueueCapacity) {
  CryoSocFlow flow(tiny_config("lib"));
  ServiceConfig config;
  config.queue_capacity = 0;
  try {
    FlowService service(flow, config);
    FAIL() << "expected FlowError{config}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "config");
  }
}

// ---- Service: SRAM queries never characterize -----------------------------

TEST(ServeService, SramAtNewCornerBuildsOneModelAndNoLibrary) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_sram_memo";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));
  FlowService service(flow);
  const FlowRequest request = sram_request(Corner{0.7, 123.0, ""}, {256, 32});

  const std::uint64_t runs0 = counter("charlib.runs");
  const std::uint64_t built0 = counter("sram.models_built");
  const FlowResponse first = service.call(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(counter("charlib.runs") - runs0, 0u);
  EXPECT_EQ(counter("sram.models_built") - built0, 1u);
  EXPECT_TRUE(service.call(request).ok);
  EXPECT_EQ(counter("sram.models_built") - built0, 1u);

  // Once the corner's library exists (its state reuses the same model),
  // the sram answer is the same bytes.
  ASSERT_TRUE(service.call(leakage_request(request.corner)).ok);
  EXPECT_EQ(counter("charlib.runs") - runs0, 1u);
  EXPECT_EQ(counter("sram.models_built") - built0, 1u);
  EXPECT_EQ(response_payload_json(service.call(request)).dump(0),
            response_payload_json(first).dump(0));
  fs::remove_all(dir);
}

// ---- Service: byte-identity vs the direct flow ---------------------------

TEST(ServeService, ResponsesMatchDirectFlowAtAnyWorkerCount) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_identity";
  fs::remove_all(dir);

  // Direct reference: execute() straight on a flow, no service.
  std::vector<FlowRequest> requests;
  requests.push_back(leakage_request(Corner{0.7, 300.0, ""}));
  requests.push_back(leakage_request(Corner{0.7, 10.0, ""}));
  requests.push_back(sram_request(Corner{0.7, 10.0, ""}, {512, 64}));
  requests.push_back(sram_request(Corner{0.7, 300.0, ""}, {1024, 32}));
  SweepQuery sweep;
  sweep.corners = {Corner{0.7, 300.0, ""}, Corner{0.7, 10.0, ""},
                   Corner{0.7, 77.0, ""}};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  requests.push_back(sweep_request(sweep));

  // Warm the scratch artifact store first so the reference flow and every
  // service flow all load the same on-disk Liberty artifacts (a cold flow
  // would answer from the unrounded in-memory characterization).
  {
    CryoSocFlow warmup(tiny_config(dir.string()));
    for (const FlowRequest& request : requests) execute(warmup, request);
  }
  std::vector<std::string> expected;
  {
    CryoSocFlow flow(tiny_config(dir.string()));
    for (const FlowRequest& request : requests)
      expected.push_back(response_payload_json(execute(flow, request)).dump(0));
  }

  for (const int workers : {1, 4}) {
    CryoSocFlow flow(tiny_config(dir.string()));
    ServiceConfig config;
    config.workers = workers;
    FlowService service(flow, config);
    std::vector<std::shared_future<FlowResponse>> futures;
    for (const FlowRequest& request : requests)
      futures.push_back(service.submit(request));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const FlowResponse& response = futures[i].get();
      EXPECT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response_payload_json(response).dump(0), expected[i])
          << "workers=" << workers << " request " << i;
    }
  }
  fs::remove_all(dir);
}

TEST(ServeService, FullCatalogTimingMatchesDirectFlow) {
  // The committed artifacts make this cheap enough: one timing and one
  // fmax-power query through the service must be byte-identical to the
  // direct corner-keyed calls.
  FlowConfig config;
  config.calibrate_devices = false;

  CryoSocFlow direct_flow(config);
  const Corner c300 = direct_flow.corner(300.0);
  const FlowRequest timing_req = timing_request(c300);
  power::ActivityProfile profile;
  profile.clock_frequency = 0.0;  // run at the corner's own fmax
  profile.default_activity = 0.1;
  const FlowRequest power_req = power_request(c300, profile);

  const std::string timing_expected =
      response_payload_json(execute(direct_flow, timing_req)).dump(0);
  const std::string power_expected =
      response_payload_json(execute(direct_flow, power_req)).dump(0);

  CryoSocFlow service_flow(config);
  FlowService service(service_flow);
  EXPECT_EQ(response_payload_json(service.call(timing_req)).dump(0),
            timing_expected);
  EXPECT_EQ(response_payload_json(service.call(power_req)).dump(0),
            power_expected);
}

// ---- Service: failures become responses ----------------------------------

TEST(ServeService, AnalysisFailureIsAnOkFalseResponseNotACrash) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_badsweep";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));
  FlowService service(flow);

  // An empty sweep grid is a programmer error inside run_sweep; the
  // service turns it into a structured ok=false response.
  const FlowResponse response = service.call(sweep_request(SweepQuery{}));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_stage, "analysis");
  EXPECT_NE(response.error.find("empty corner grid"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cryo::serve
