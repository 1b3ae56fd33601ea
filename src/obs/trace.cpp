#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/report.hpp"

namespace cryo::obs {
namespace {

struct Event {
  std::string name;
  double ts_us = 0.0;
  char phase = 'B';  // 'B' or 'E'
};

// One buffer per thread that ever recorded a span. Appends are guarded by
// the buffer's own mutex -- uncontended in steady state (only the owning
// thread appends), but lockable by the writer so trace_write() can run
// while pool workers are still alive.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  int tid = 0;
};

struct Collector {
  std::atomic<bool> enabled{false};
  std::mutex mutex;  // guards path, buffers list, next_tid
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

// Leaked: spans may fire from pool worker threads during static
// destruction; the collector must outlive every thread-local buffer.
Collector& collector() {
  static Collector* c = new Collector;
  return *c;
}

double now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    b->tid = c.next_tid++;
    c.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

bool trace_enabled() {
  static const bool env_checked = [] {
    if (const char* path = std::getenv("CRYOSOC_TRACE");
        path != nullptr && *path != '\0') {
      trace_enable(path);
      std::atexit([] { trace_write(); });
    }
    return true;
  }();
  (void)env_checked;
  return collector().enabled.load(std::memory_order_relaxed);
}

void trace_enable(const std::string& path) {
  Collector& c = collector();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.path = path;
  }
  c.enabled.store(true, std::memory_order_relaxed);
}

std::string trace_write() {
  Collector& c = collector();
  c.enabled.store(false, std::memory_order_relaxed);
  std::string path;
  std::vector<std::pair<int, std::vector<Event>>> snapshots;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.path.empty()) return {};
    path = c.path;
    c.path.clear();  // second write (e.g. atexit after manual) is a no-op
    for (const auto& buf : c.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mutex);
      if (!buf->events.empty())
        snapshots.emplace_back(buf->tid, std::move(buf->events));
      buf->events.clear();
    }
  }

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [tid, events] : snapshots) {
    for (const Event& e : events) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\": \"";
      json_escape_into(out, e.name);
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "\", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %d}",
                    e.phase, e.ts_us, tid);
      out += buf;
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";

  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream file(path, std::ios::binary);
  file << out;
  if (!file)
    std::fprintf(stderr, "[cryo::obs] failed to write trace to %s\n",
                 path.c_str());
  return path;
}

void Span::open(const char* category, std::string_view d1,
                std::string_view d2, std::string_view d3) {
  if (category == nullptr || !trace_enabled()) return;
  active_ = true;
  name_ = category;
  if (!d1.empty() || !d2.empty() || !d3.empty()) {
    name_ += ':';
    name_ += d1;
    name_ += d2;
    name_ += d3;
  }
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name_, now_us(), 'B'});
}

void Span::close() {
  if (!active_) return;
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({std::move(name_), now_us(), 'E'});
}

}  // namespace cryo::obs
