#pragma once
// Shared plumbing for the benchmark binary: run arguments, the outcome every
// workload fills in (ops, failures, metrics, fingerprints), timing and
// statistics helpers, in-memory spans, seed derivation, hashing, and child
// process control for the daemon and sweep front ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start` on the steady clock.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// CPU seconds the calling thread has used (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_seconds();

/// Wall seconds of one fixed reference kernel (eight streaming passes over a
/// cache-resident 256 KiB buffer, no repository code): a host-speed probe
/// taken between ops.  A streaming kernel tracks the bandwidth-bound plane
/// sweeps of the engine; a latency-bound table walk tracked them poorly.
[[nodiscard]] double calibration_s();

/// About the kernel's time on the reference host (the 4-vCPU Intel Xeon
/// sandbox the benchmark was built on, when quiet).
inline constexpr double kCalibrationRefS = 150e-6;

/// Factor that restates a run's timings at reference-host speed:
/// kCalibrationRefS over the median calibration_s() sample taken while the
/// run measured.  The shared sandbox this benchmark runs on changes speed
/// by up to ~50% over tens of seconds; the kernel slows with it, so scaled
/// timings stay comparable across runs.
[[nodiscard]] double speed_scale(const std::vector<double>& calibration);

/// Op times restated at reference-host speed one by one: times[i] scaled by
/// kCalibrationRefS over calibration[i], the probe taken right after op i,
/// so a run that straddles a slow and a fast phase scales each op by the
/// phase it ran in.
[[nodiscard]] std::vector<double> scale_each(const std::vector<double>& times,
                                             const std::vector<double>& calibration);

/// One benchmark invocation, as parsed from the command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // self-test scale: small inputs, short loops
  std::string fault;          // "" or "corrupt-expected" (correctness-gate check)
  std::string bin_dir;        // where vlcsa_serve / vlcsa_sweep live
  std::string work_dir;       // scratch directory for this run (created, removed)
  std::string trace_out;      // span file written at exit (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run produced.  Every correctness violation goes through fail(),
/// so it is counted in `failed` and never silently ignored.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  std::vector<Metric> metrics;
  std::map<std::string, std::string> fingerprint;  // simulated-statistics hash etc.

  void fail(const std::string& message);
  /// Adds a metric, replacing an earlier one of the same name.
  void add(const std::string& name, double value, const std::string& unit);
  /// Value of a metric already added (NaN when absent).
  [[nodiscard]] double get(const std::string& name) const;
};

/// Median of a sample (NaN when empty).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Deterministic seed stream: the i-th seed of stream `stream` under the
/// workload seed (splitmix64), folded into [1, 2^40) so it stays a readable
/// integer in JSON requests and cache keys.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index);

/// Raw splitmix64 step (request key choice).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a 64 accumulator for the simulated-statistics fingerprint.
class Fnv {
 public:
  void bytes(std::string_view data);
  void u64(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory span log: spans are recorded while the benchmark runs and
/// written as JSONL only when the run ends, so tracing never does I/O inside
/// a measured interval.  Per-name totals are always exact; individual spans
/// are kept up to kMaxSpans (the per-block engine spans of a long traced run
/// would otherwise cost tens of MB) and the file notes how many were dropped.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  /// An open span: its name, its slot in the log (-1 when over the cap),
  /// and its start.  `name` must be a string literal.
  struct Handle {
    const char* name;
    int index;
    Clock::time_point start;
  };

  /// Opens a span under parent slot `parent` (-1 = root).
  [[nodiscard]] Handle open(const char* name, int parent = -1);
  /// Closes `handle`; returns its duration in seconds.
  double close(const Handle& handle);
  /// Records a span that was timed elsewhere.
  void add(const char* name, int parent, Clock::time_point start, Clock::time_point end);
  /// Writes one JSON line per kept span plus a closing totals line; returns
  /// false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  void count(const char* name, Clock::time_point start, Clock::time_point end);

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, double>> totals_;  // name -> seconds
  std::vector<std::uint64_t> counts_;                   // parallel to totals_
  std::uint64_t dropped_ = 0;
};

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid);  // pid 0 = this process

/// Host fingerprint: CPU model, nproc, planeops backend, default lane words,
/// compiler and build type — so two outputs say whether they are comparable.
[[nodiscard]] std::map<std::string, std::string> host_fingerprint();

/// Renders a flat string map as one JSON object.
[[nodiscard]] std::string render_map(const std::map<std::string, std::string>& values);

/// The raw bytes of the object value of `"key": {...}` at or after `from`
/// (balanced braces, string-aware); "" when absent.  `from` advances past it.
[[nodiscard]] std::string raw_object_field(const std::string& text, std::string_view key,
                                           std::size_t& from);

[[nodiscard]] std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);
void remove_tree(const std::string& path);
void make_dirs(const std::string& path);

/// A child process (fork + exec), stdout/stderr redirected to files.  The
/// destructor kills (SIGKILL) and reaps a still-running child, so no exit
/// path leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` with cwd `dir`; returns "" or the error.
  [[nodiscard]] std::string start(const std::vector<std::string>& argv, const std::string& dir,
                                  const std::string& stdout_path,
                                  const std::string& stderr_path);
  /// Waits for exit; returns the exit status (128 + signal when killed) and
  /// fills the child's peak RSS (MB) from wait4's rusage.
  int wait(double* max_rss_mb = nullptr);
  /// SIGTERM, then SIGKILL after `grace_ms`; reaps.
  void stop(int grace_ms = 2000);
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] bool running() const { return pid_ > 0; }

 private:
  int pid_ = -1;
};

/// Runs `argv` to completion in `dir`; returns the exit status and the
/// spawn-to-exit wall time.
struct RunResult {
  int status = -1;
  double wall_s = 0.0;
  double max_rss_mb = 0.0;
  std::string error;
};
[[nodiscard]] RunResult run_process(const std::vector<std::string>& argv, const std::string& dir,
                                    const std::string& stdout_path,
                                    const std::string& stderr_path);

}  // namespace perfbench
