// obs::Json, the one JSON value type of the stack, and the unified bench
// reporter built on it: every bench/ target funnels its headline numbers
// through obs::BenchReport so the perf trajectory is machine-readable with
// ONE schema instead of seventeen ad-hoc printf formats.
//
//   auto report = obs::BenchReport("fig7_scaling");
//   report.results()["crossover_qubits"] = 1500.0;
//   report.write();  // bench-out/BENCH_fig7_scaling.json
//
// Emitted schema (cryosoc-bench-v1):
//   {
//     "schema": "cryosoc-bench-v1",
//     "bench": "<name>",
//     "wall_seconds": <construction -> write>,
//     "threads": <resolved worker count>,
//     "hardware_concurrency": <cores>,
//     "git": "<git describe --always --dirty, or \"unknown\">",
//     "results": { ...bench-specific numbers... },
//     "gates": [ {"name", "value", "op", "bound", "pass" | "skipped"}... ],
//     "metrics": { ...obs::Registry snapshot... }
//   }
//
// Output directory: $CRYOSOC_BENCH_DIR, else ./bench-out (created on
// demand). The destructor writes if write() was never called, so a bench
// that exits early still leaves a report.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cryo::obs {

// Thrown by Json::parse and the checked accessors. what() is the bare
// detail: "expected ':', got 'x' at byte 12" for malformed text,
// "macro.rows: expected an integer in [...]" for a wrong member.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Ordered JSON value: renders bench reports, metric snapshots and the
// serve wire format, and parses the latter back.
//  - Objects keep insertion order (duplicate parsed keys too), so reports
//    diff cleanly and parse(text).dump_line() == text for our own output.
//  - A number is stored as its text. A double gets its shortest
//    round-trip form (std::to_chars), so its exact bits survive the
//    trip; a non-finite double becomes null. An integer gets its decimal
//    form; a parsed number keeps its token.
//  - parse() accepts exactly one document (surrounding whitespace
//    allowed) and numbers only in the RFC 8259 grammar. Malformed text,
//    trailing characters and nesting deeper than a fixed limit throw
//    JsonError naming the byte offset.
class Json {
 public:
  Json() = default;
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : kind_(Kind::kNumber), text_(std::to_string(v)) {}
  Json(const char* v) : kind_(Kind::kString), text_(v) {}
  Json(std::string v) : kind_(Kind::kString), text_(std::move(v)) {}

  static Json object();
  static Json array();
  static Json parse(std::string_view text);

  // Object access; inserts a null member on first use. Converts a null
  // value into an object, so report.results()["a"]["b"] = 1 just works.
  Json& operator[](const std::string& key);
  // Array append. Converts a null value into an array.
  void push_back(Json v);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  // Checked container access: throw JsonError naming `what` unless the
  // value is an array (items) or an object (members).
  const std::vector<Json>& items(std::string_view what) const {
    if (kind_ != Kind::kArray) kind_error(what, "an array");
    return items_;
  }
  const std::vector<std::pair<std::string, Json>>& members(
      std::string_view what) const {
    if (kind_ != Kind::kObject) kind_error(what, "an object");
    return members_;
  }

  // Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  // Required-member lookup on an object; throws when missing.
  const Json& at(std::string_view key, std::string_view what) const;

  // Checked accessors: throw JsonError on a kind mismatch, naming `what`
  // (the field being read).
  double as_number(std::string_view what) const;  // finite values only
  // An integer token that fits T exactly: fractions, exponents and
  // out-of-range values are rejected, never rounded or clamped.
  template <std::integral T>
  T as_int(std::string_view what) const;
  bool as_bool(std::string_view what) const;
  const std::string& as_string(std::string_view what) const;

  // Indented rendering, nested `indent` levels deep (two spaces each).
  std::string dump(int indent = 0) const;
  // Single-line rendering (no whitespace) for NDJSON streams; same member
  // order and number text as dump().
  std::string dump_line() const;

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  friend class JsonParser;

  // indent < 0 renders on one line.
  void render(std::string& out, int indent) const;
  // Throws JsonError "<what>: expected <expected>".
  [[noreturn]] static void kind_error(std::string_view what,
                                      const char* expected);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  // string value, or number text
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

template <std::integral T>
T Json::as_int(std::string_view what) const {
  T v{};
  if (kind_ == Kind::kNumber) {
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(text_.data(), end, v);
    if (ec == std::errc() && ptr == end) return v;
  }
  throw JsonError(std::string(what) + ": expected an integer in [" +
                  std::to_string(std::numeric_limits<T>::min()) + ", " +
                  std::to_string(std::numeric_limits<T>::max()) + "]");
}

// Appends `s` to `out` escaped as the body of a JSON string literal.
void json_escape_into(std::string& out, std::string_view s);

class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();
  BenchReport(BenchReport&& other) noexcept;
  BenchReport& operator=(BenchReport&&) = delete;
  BenchReport(const BenchReport&) = delete;

  // Bench-specific payload; fill freely before write().
  Json& results() { return results_; }

  // Declares a check on a number this bench produced: `value op bound`,
  // op one of "<", "<=", "==", ">=", ">". Records {name, value, op,
  // bound, pass} in the report's "gates" array and prints a FAIL: line
  // when it fails. A non-finite value fails every gate. Returns pass.
  bool gate(const std::string& name, double value, std::string_view op,
            double bound);
  // Records a gate that does not apply to this run, with the reason in
  // place of "pass" (e.g. a speedup gate on a host with too few cores).
  void skip_gate(const std::string& name, double value, std::string_view op,
                 double bound, const std::string& reason);
  // What a bench's main returns: 0 when every declared gate passed.
  int exit_code() const { return failed_gates_ == 0 ? 0 : 1; }

  // Resolved worker-thread count recorded in the report (benches pass
  // exec::thread_count(); defaults to hardware concurrency).
  void set_threads(unsigned threads) { threads_ = threads; }

  // Renders the report to <dir>/BENCH_<name>.json and returns the path.
  // Idempotent: the second call (or the destructor) is a no-op.
  std::string write();

  // The directory reports land in: $CRYOSOC_BENCH_DIR or "bench-out".
  static std::string output_dir();

 private:
  std::string name_;
  Json results_;
  Json gates_;
  int failed_gates_ = 0;
  unsigned threads_ = 0;
  bool written_ = false;
  double start_seconds_ = 0.0;
};

}  // namespace cryo::obs
