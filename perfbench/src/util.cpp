#include "util.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "arith/bitslice.hpp"
#include "arith/planeops.hpp"
#include "harness/report.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double thread_cpu_seconds() {
  struct timespec now {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double calibration_s() {
  static std::vector<std::uint64_t> buffer(std::size_t{1} << 15);  // 256 KiB
  static volatile std::uint64_t sink = 0;
  // Untimed: pull the buffer back into cache after whatever op ran before,
  // so the probe measures the core's speed rather than the cache's state.
  std::uint64_t acc = 0;
  for (const std::uint64_t word : buffer) acc += word;
  const auto start = Clock::now();
  for (int rep = 0; rep < 8; ++rep) {
    for (std::uint64_t& word : buffer) word ^= (word << 1) + 0x9e3779b97f4a7c15ULL;
  }
  const double seconds = seconds_since(start);
  sink = sink + acc + buffer[7];
  return seconds;
}

double speed_scale(const std::vector<double>& calibration) {
  return kCalibrationRefS / median(calibration);
}

std::vector<double> scale_each(const std::vector<double>& times,
                               const std::vector<double>& calibration) {
  std::vector<double> out;
  out.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    out.push_back(times[i] * kCalibrationRefS / calibration[i]);
  }
  return out;
}

void Outcome::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 20) failures.push_back(message);
}

void Outcome::add(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric = {name, value, unit};
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Outcome::get(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001b3ULL ^ (stream << 32) ^ index;
  (void)splitmix64(state);
  return splitmix64(state) % ((std::uint64_t{1} << 40) - 1) + 1;
}

void Fnv::bytes(std::string_view data) {
  for (const char c : data) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Fnv::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

SpanLog::Handle SpanLog::open(const char* name, int parent) {
  const Clock::time_point start = Clock::now();
  if (spans_.size() >= kMaxSpans) return {name, -1, start};
  spans_.push_back({name, parent, start, start});
  return {name, static_cast<int>(spans_.size()) - 1, start};
}

double SpanLog::close(const Handle& handle) {
  const Clock::time_point end = Clock::now();
  if (handle.index >= 0) {
    spans_[static_cast<std::size_t>(handle.index)].end = end;
  } else {
    ++dropped_;
  }
  count(handle.name, handle.start, end);
  return std::chrono::duration<double>(end - handle.start).count();
}

void SpanLog::add(const char* name, int parent, Clock::time_point start, Clock::time_point end) {
  if (spans_.size() < kMaxSpans) {
    spans_.push_back({name, parent, start, end});
  } else {
    ++dropped_;
  }
  count(name, start, end);
}

void SpanLog::count(const char* name, Clock::time_point start, Clock::time_point end) {
  const double seconds = std::chrono::duration<double>(end - start).count();
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].first == name || std::string_view(totals_[i].first) == name) {
      totals_[i].second += seconds;
      ++counts_[i];
      return;
    }
  }
  totals_.emplace_back(name, seconds);
  counts_.push_back(1);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << ns(span.start) << ", \"end_ns\": " << ns(span.end) << "}\n";
  }
  out << "{\"totals\": {";
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << totals_[i].first << "\": {\"count\": " << counts_[i]
        << ", \"seconds\": " << totals_[i].second << "}";
  }
  out << "}, \"dropped_spans\": " << dropped_ << "}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> out;
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(line.find_first_not_of(' ', colon + 1));
        break;
      }
    }
  }
  out["cpu_model"] = cpu;
  out["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out["backend"] =
      vlcsa::arith::planeops::to_string(vlcsa::arith::planeops::active_backend());
  out["lane_words"] = std::to_string(vlcsa::arith::default_lane_words());
  out["compiler"] = PERFBENCH_COMPILER;
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  return out;
}

std::string render_map(const std::map<std::string, std::string>& values) {
  vlcsa::harness::JsonObject object;
  for (const auto& [key, value] : values) object.add(key, value);
  return object.render_line();
}

std::string raw_object_field(const std::string& text, std::string_view key, std::size_t& from) {
  const std::string needle = "\"" + std::string(key) + "\": {";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size() - 1;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      from = i + 1;
      return text.substr(begin, i + 1 - begin);
    }
  }
  return {};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

void make_dirs(const std::string& path) { std::filesystem::create_directories(path); }

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait();
  }
}

std::string Child::start(const std::vector<std::string>& argv, const std::string& dir,
                         const std::string& stdout_path, const std::string& stderr_path) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    // Output paths are relative to the parent's cwd: open them before chdir.
    const int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || ::chdir(dir.c_str()) != 0) ::_exit(126);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }
  pid_ = pid;
  return {};
}

int Child::wait(double* max_rss_mb) {
  if (pid_ <= 0) return -1;
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) break;
  }
  pid_ = -1;
  if (max_rss_mb != nullptr) *max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void Child::stop(int grace_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  while (Clock::now() < deadline) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || done < 0) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  wait();
}

RunResult run_process(const std::vector<std::string>& argv, const std::string& dir,
                      const std::string& stdout_path, const std::string& stderr_path) {
  RunResult result;
  Child child;
  const auto start = Clock::now();
  result.error = child.start(argv, dir, stdout_path, stderr_path);
  if (!result.error.empty()) return result;
  result.status = child.wait(&result.max_rss_mb);
  result.wall_s = seconds_since(start);
  return result;
}

}  // namespace perfbench
