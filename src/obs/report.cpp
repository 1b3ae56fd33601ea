#include "obs/report.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/metrics.hpp"

namespace cryo::obs {
namespace {

// Deep enough for every document the flow writes (a sweep response nests
// eight levels); shallow enough that a hostile line of '[' cannot
// overflow the parser's stack.
constexpr int kMaxParseDepth = 64;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string git_describe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

// Appends {name, value, op, bound, <outcome_key>: outcome} to `gates`.
void add_gate(Json& gates, const std::string& name, double value,
              std::string_view op, double bound, const char* outcome_key,
              Json outcome) {
  Json g = Json::object();
  g["name"] = name;
  g["value"] = value;
  g["op"] = std::string(op);
  g["bound"] = bound;
  g[outcome_key] = std::move(outcome);
  gates.push_back(std::move(g));
}

[[noreturn]] void fail(std::size_t pos, const std::string& detail) {
  throw JsonError(detail + " at byte " + std::to_string(pos));
}

// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(std::string_view s) {
  std::size_t i = 0;
  const auto at = [&](char c) { return i < s.size() && s[i] == c; };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  if (at('-')) ++i;
  if (at('0'))
    ++i;
  else if (!digits())
    return false;
  if (at('.')) {
    ++i;
    if (!digits()) return false;
  }
  if (at('e') || at('E')) {
    ++i;
    if (at('+') || at('-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

}  // namespace

// Recursive-descent reader; builds Json values in place.
class JsonParser {
 public:
  explicit JsonParser(std::string_view in) : in_(in) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != in_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= in_.size()) fail(pos_, "unexpected end of input");
    return in_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(pos_, std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[':
        if (depth == kMaxParseDepth) fail(pos_, "nesting too deep");
        return in_[pos_] == '{' ? parse_object(depth + 1)
                                : parse_array(depth + 1);
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail(pos_, "bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json v = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json v = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > in_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          const char* hex = in_.data() + pos_;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc() || end != hex + 4)
            fail(pos_, "bad \\u escape digit");
          pos_ += 4;
          // UTF-8 encode the code point (BMP only; surrogate pairs are
          // not expected in our schemas and decode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail(pos_ - 1, "bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            in_[pos_] == '+' || in_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail(pos_, "expected a value");
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.text_ = std::string(in_.substr(start, pos_ - start));
    if (!is_json_number(v.text_))
      fail(start, "malformed number '" + v.text_ + "'");
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

void json_escape_into(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

Json::Json(double v) {
  if (!std::isfinite(v)) return;  // null
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  kind_ = Kind::kNumber;
  text_.assign(buf, res.ptr);
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(key, Json());
  return members_.back().second;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

void Json::kind_error(std::string_view what, const char* expected) {
  throw JsonError(std::string(what) + ": expected " + expected);
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key, std::string_view what) const {
  const Json* v = find(key);
  if (!v)
    throw JsonError(std::string(what) + ": missing required field '" +
                    std::string(key) + "'");
  return *v;
}

double Json::as_number(std::string_view what) const {
  const double v =
      kind_ == Kind::kNumber ? std::strtod(text_.c_str(), nullptr) : NAN;
  if (!std::isfinite(v))
    throw JsonError(std::string(what) + ": expected a finite number");
  return v;
}

bool Json::as_bool(std::string_view what) const {
  if (kind_ != Kind::kBool)
    throw JsonError(std::string(what) + ": expected a bool");
  return bool_;
}

const std::string& Json::as_string(std::string_view what) const {
  if (kind_ != Kind::kString)
    throw JsonError(std::string(what) + ": expected a string");
  return text_;
}

void Json::render(std::string& out, int indent) const {
  const bool line = indent < 0;
  const int inner = line ? -1 : indent + 1;
  const auto newline = [&](int level) {
    if (line) return;
    out += '\n';
    out.append(static_cast<std::size_t>(level) * 2, ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += text_; break;
    case Kind::kString:
      out += '"';
      json_escape_into(out, text_);
      out += '"';
      break;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        newline(inner);
        items_[i].render(out, inner);
      }
      if (!items_.empty()) newline(indent);
      out += ']';
      break;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(inner);
        out += '"';
        json_escape_into(out, members_[i].first);
        out += line ? "\":" : "\": ";
        members_[i].second.render(out, inner);
      }
      if (!members_.empty()) newline(indent);
      out += '}';
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  render(out, std::max(indent, 0));
  return out;
}

std::string Json::dump_line() const {
  std::string out;
  render(out, -1);
  return out;
}

std::string BenchReport::output_dir() {
  if (const char* dir = std::getenv("CRYOSOC_BENCH_DIR");
      dir != nullptr && *dir != '\0')
    return dir;
  return "bench-out";
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)),
      results_(Json::object()),
      gates_(Json::array()),
      start_seconds_(steady_seconds()) {}

BenchReport::BenchReport(BenchReport&& other) noexcept
    : name_(std::move(other.name_)),
      results_(std::move(other.results_)),
      gates_(std::move(other.gates_)),
      failed_gates_(other.failed_gates_),
      threads_(other.threads_),
      written_(other.written_),
      start_seconds_(other.start_seconds_) {
  other.written_ = true;  // the moved-from shell must not write
}

BenchReport::~BenchReport() {
  if (!written_) write();
}

bool BenchReport::gate(const std::string& name, double value,
                       std::string_view op, double bound) {
  const bool holds =
      op == "<"    ? value < bound
      : op == "<=" ? value <= bound
      : op == "==" ? value == bound
      : op == ">=" ? value >= bound
      : op == ">"  ? value > bound
                   : throw std::invalid_argument(
                         "BenchReport::gate: unknown op '" +
                         std::string(op) + "'");
  const bool pass = holds && std::isfinite(value);
  add_gate(gates_, name, value, op, bound, "pass", pass);
  if (!pass) {
    ++failed_gates_;
    std::printf("FAIL: %s = %.6g (gate: %s %.6g)\n", name.c_str(), value,
                std::string(op).c_str(), bound);
  }
  return pass;
}

void BenchReport::skip_gate(const std::string& name, double value,
                            std::string_view op, double bound,
                            const std::string& reason) {
  add_gate(gates_, name, value, op, bound, "skipped", reason);
}

std::string BenchReport::write() {
  if (written_) return {};
  written_ = true;

  const unsigned threads =
      threads_ > 0 ? threads_
                   : std::max(1u, std::thread::hardware_concurrency());

  Json doc = Json::object();
  doc["schema"] = "cryosoc-bench-v1";
  doc["bench"] = name_;
  doc["wall_seconds"] = steady_seconds() - start_seconds_;
  doc["threads"] = threads;
  doc["hardware_concurrency"] =
      std::max(1u, std::thread::hardware_concurrency());
  doc["git"] = git_describe();
  doc["results"] = std::move(results_);
  doc["gates"] = std::move(gates_);
  doc["metrics"] = registry().snapshot_json();

  const std::filesystem::path dir = output_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / ("BENCH_" + name_ + ".json")).string();
  std::ofstream file(path, std::ios::binary);
  file << doc.dump() << "\n";
  if (!file) {
    std::fprintf(stderr, "[cryo::obs] failed to write %s\n", path.c_str());
    return {};
  }
  std::printf("wrote %s\n", path.c_str());
  return path;
}

}  // namespace cryo::obs
