#include "service/fleet.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

namespace vlcsa::service::fleet {

bool DirLock::acquire(const std::string& lock_path) {
  release();
  const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

void DirLock::release() {
  if (fd_ < 0) return;
  // Closing drops the flock; the lock file itself stays (it is contended
  // state shared with other replicas, never deleted).
  ::close(fd_);
  fd_ = -1;
}

ComputeLease::ComputeLease(ComputeLease&& other) noexcept
    : path_(std::move(other.path_)), state_(other.state_), took_over_(other.took_over_) {
  other.state_ = State::kDisabled;
  other.path_.clear();
}

ComputeLease& ComputeLease::operator=(ComputeLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    state_ = other.state_;
    took_over_ = other.took_over_;
    other.state_ = State::kDisabled;
    other.path_.clear();
  }
  return *this;
}

namespace {

/// O_CREAT|O_EXCL lease create; writes the holder pid for postmortems.
/// Returns true on success, false with errno preserved on failure.
bool create_lease_file(const std::string& lease_path) {
  const int fd = ::open(lease_path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const std::string content = std::to_string(::getpid()) + "\n";
  // Best effort — an empty lease file still leases; age comes from mtime.
  [[maybe_unused]] const ssize_t written = ::write(fd, content.data(), content.size());
  ::close(fd);
  return true;
}

}  // namespace

long long lease_age_ms(const std::string& lease_path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(lease_path, ec);
  if (ec) return -1;
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
  return ms < 0 ? 0 : static_cast<long long>(ms);
}

ComputeLease::State ComputeLease::try_acquire(const std::string& lease_path, int stale_ms) {
  release();
  took_over_ = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (create_lease_file(lease_path)) {
      path_ = lease_path;
      state_ = State::kAcquired;
      fault::maybe_crash("crash-after-lease");
      return state_;
    }
    if (errno != EEXIST) {
      // Unwritable/vanished directory: no cross-process single-flight, but
      // computing without it is always safe (records are deterministic).
      state_ = State::kDisabled;
      return state_;
    }
    const long long age = lease_age_ms(lease_path);
    if (age < 0) continue;  // released between our create and stat: retry
    if (stale_ms <= 0 || age <= stale_ms) break;  // live holder
    // Stale: the holder crashed between lease and release.  Reap and retry
    // the create once — losing the re-create race to another reaper is fine
    // (kBusy, we wait on *their* lease).
    std::error_code ec;
    std::filesystem::remove(lease_path, ec);
    took_over_ = true;
  }
  state_ = State::kBusy;
  return state_;
}

void ComputeLease::release() {
  if (state_ == State::kAcquired) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  state_ = State::kDisabled;
  path_.clear();
}

LeaseWaitResult wait_for_lease_release(const std::string& lease_path, int stale_ms,
                                       const harness::RunStop& stop) {
  constexpr auto kPoll = std::chrono::milliseconds(5);
  while (true) {
    const long long age = lease_age_ms(lease_path);
    if (age < 0) return LeaseWaitResult::kReleased;
    if (stale_ms > 0 && age > stale_ms) return LeaseWaitResult::kStale;
    if (stop.reached()) return LeaseWaitResult::kCancelled;
    std::this_thread::sleep_for(kPoll);
  }
}

namespace {

/// splitmix64 step — jitter only.  Backoff jitter is operational timing
/// noise: it never touches an experiment draw stream, a record, or anything
/// golden-pinned, so the repo-RNG contract (ROADMAP) does not apply and one
/// word of state beats hauling a 312-word BlockRng into every client retry.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

BackoffSchedule::BackoffSchedule(const RetryPolicy& policy) : policy_(policy) {
  if (policy_.base_ms < 1) policy_.base_ms = 1;
  if (policy_.max_ms < policy_.base_ms) policy_.max_ms = policy_.base_ms;
  jitter_state_ = policy_.jitter_seed;
  if (jitter_state_ == 0) {
    jitter_state_ =
        static_cast<std::uint64_t>(::getpid()) ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
  }
}

int BackoffSchedule::next_delay_ms() {
  ++retry_;
  // base * 2^(retry-1), saturating well below int overflow before the cap.
  std::int64_t delay = policy_.base_ms;
  for (int i = 1; i < retry_ && delay < policy_.max_ms; ++i) delay *= 2;
  delay = std::min<std::int64_t>(delay, policy_.max_ms);
  // Jitter factor in [0.5, 1.0]: full-speed lockstep halves at worst.
  const std::uint64_t word = splitmix64(jitter_state_);
  const double factor = 0.5 + 0.5 * (static_cast<double>(word >> 11) * 0x1.0p-53);
  delay = static_cast<std::int64_t>(static_cast<double>(delay) * factor);
  return static_cast<int>(std::max<std::int64_t>(delay, 1));
}

namespace fault {

namespace {

struct FaultSpec {
  bool any = false;
  std::unordered_map<std::string, int> sites;  // site -> ms param (-1 = none)
};

FaultSpec parse_spec(const std::string& text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    int ms = -1;
    const std::size_t eq = entry.find('=');
    if (eq != std::string::npos) {
      const std::string value = entry.substr(eq + 1);
      entry.resize(eq);
      char* parse_end = nullptr;
      const long parsed = std::strtol(value.c_str(), &parse_end, 10);
      if (parse_end != nullptr && *parse_end == '\0' && parsed >= 0) {
        ms = static_cast<int>(parsed);
      }
    }
    spec.sites[entry] = ms;
    spec.any = true;
  }
  return spec;
}

FaultSpec& active_spec() {
  static FaultSpec spec = [] {
    const char* env = std::getenv("VLCSA_FAULT");
    return parse_spec(env == nullptr ? std::string() : std::string(env));
  }();
  return spec;
}

}  // namespace

bool enabled(const char* site) {
  const FaultSpec& spec = active_spec();
  if (!spec.any) return false;
  return spec.sites.find(site) != spec.sites.end();
}

int param_ms(const char* site, int default_ms) {
  const FaultSpec& spec = active_spec();
  const auto it = spec.sites.find(site);
  if (it == spec.sites.end() || it->second < 0) return default_ms;
  return it->second;
}

void maybe_crash(const char* site) {
  if (enabled(site)) ::_exit(kExitCode);
}

void maybe_sleep(const char* site, int default_ms) {
  if (!enabled(site)) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(param_ms(site, default_ms)));
}

void maybe_tear(const char* site, std::string& record) {
  if (!enabled(site)) return;
  record.resize(record.size() / 2);
}

void configure_for_test(const std::string& spec) { active_spec() = parse_spec(spec); }

}  // namespace fault

}  // namespace vlcsa::service::fleet
