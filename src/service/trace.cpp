#include "service/trace.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <system_error>

#include "harness/json.hpp"
#include "harness/report.hpp"

namespace vlcsa::service {

namespace {

/// Floored microseconds since `origin` — both span endpoints go through
/// this, so child intervals stay contained in their parents exactly.
std::uint64_t us_since(RequestTrace::Clock::time_point origin) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        RequestTrace::Clock::now() - origin)
                                        .count());
}

template <class Integer>
void append_decimal(std::string& out, Integer value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

void RequestTrace::enable() {
  if (enabled_) return;
  enabled_ = true;
  start_ = Clock::now();
}

std::size_t RequestTrace::open(const char* name) {
  if (!enabled_) return 0;
  TraceSpan span;
  span.name = name;
  span.depth = depth_++;
  span.start_us = us_since(start_);
  spans_.push_back(std::move(span));
  // Handles are 1-based so a handle from a disabled open() (0) is inert.
  return spans_.size();
}

void RequestTrace::close(std::size_t handle) {
  if (!enabled_ || handle == 0 || handle > spans_.size()) return;
  TraceSpan& span = spans_[handle - 1];
  span.dur_us = us_since(start_) - span.start_us;
  --depth_;
}

std::string RequestTrace::render_spans() const {
  // The bytes JsonObject::render_line would give each span, appended in
  // place instead of through one JsonObject per span.
  std::string out;
  out.reserve(2 + spans_.size() * 80);
  out += '[';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    if (i != 0) out += ", ";
    out += "{\"name\": \"";
    harness::append_json_escaped(out, span.name);
    out += "\", \"depth\": ";
    append_decimal(out, span.depth);
    out += ", \"start_us\": ";
    append_decimal(out, span.start_us);
    out += ", \"dur_us\": ";
    append_decimal(out, span.dur_us);
    out += '}';
  }
  out += ']';
  return out;
}

std::string parse_spans(const harness::JsonValue& object, std::vector<TraceSpan>& out) {
  using harness::JsonValue;
  const JsonValue* spans = object.find("spans");
  if (spans == nullptr || spans->kind() != JsonValue::Kind::kArray) {
    return "missing array field 'spans'";
  }
  for (const JsonValue& item : spans->items()) {
    if (item.kind() != JsonValue::Kind::kObject) return "span is not an object";
    TraceSpan span;
    const JsonValue* name = item.find("name");
    if (name == nullptr || name->kind() != JsonValue::Kind::kString) {
      return "span without a string 'name'";
    }
    span.name = name->as_string();
    std::uint64_t depth = 0;
    const JsonValue* depth_field = item.find("depth");
    const JsonValue* start = item.find("start_us");
    const JsonValue* dur = item.find("dur_us");
    if (depth_field == nullptr || !depth_field->to_u64(depth) ||
        depth > static_cast<std::uint64_t>(std::numeric_limits<int>::max()) ||
        start == nullptr || !start->to_u64(span.start_us) || dur == nullptr ||
        !dur->to_u64(span.dur_us)) {
      return "span '" + span.name + "' without numeric depth/start_us/dur_us";
    }
    span.depth = static_cast<int>(depth);
    out.push_back(std::move(span));
  }
  return {};
}

std::string JsonlLog::open(const std::string& path, std::uint64_t max_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.open(path, std::ios::app);
  if (!out_) return "cannot open log file " + path;
  path_ = path;
  max_bytes_ = max_bytes;
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path, ec);
  bytes_ = ec ? 0 : static_cast<std::uint64_t>(existing);
  return {};
}

void JsonlLog::write(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return;
  if (max_bytes_ != 0 && bytes_ != 0 && bytes_ + line.size() + 1 > max_bytes_) {
    // Rotate: the current file becomes "<path>.1" (replacing the previous
    // generation) and a fresh file takes the writes.  Best effort — a failed
    // rename keeps appending rather than dropping log lines.
    out_.close();
    std::error_code ec;
    std::filesystem::rename(path_, path_ + ".1", ec);
    out_.open(path_, ec ? std::ios::app : std::ios::trunc);
    bytes_ = ec ? bytes_ : 0;
  }
  out_ << line << '\n' << std::flush;
  bytes_ += line.size() + 1;
}

TraceIdGenerator::TraceIdGenerator() {
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "t-%llx-",
                static_cast<unsigned long long>(now_us));
  prefix_ = buffer;
}

std::string TraceIdGenerator::next() {
  return prefix_ + std::to_string(counter_.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace vlcsa::service
