#pragma once
// Fleet-mode primitives: what it takes to run several vlcsa_serve replicas
// against one cache directory and rotate them in and out under load.
//
// - DirLock: an advisory flock on a well-known file inside the cache dir,
//   serializing disk-tier renames and eviction walks across processes (the
//   in-process disk_mutex_ only covers one replica).
// - ComputeLease: cross-process single-flight (ResultCache::fetch takes it).
//   A replica about to compute a missing record takes `<record-path>.lease`
//   with O_CREAT|O_EXCL; other replicas seeing the lease wait for the record
//   instead of re-sampling the same experiment.  A lease whose mtime is
//   older than the staleness bound belonged to a crashed holder and is
//   reaped (takeover) — and because records are pure functions of their
//   key, even a *false* takeover only ever renames byte-identical content
//   over byte-identical content.
// - DrainState: the graceful-drain flag, a count of in-flight runs, and the
//   one sticky flag that stops them all at the drain deadline.
// - RetryPolicy/BackoffSchedule: bounded exponential backoff with jitter for
//   the client side (retry on overloaded/draining/connect-refused).
// - fault::*: the VLCSA_FAULT= test hook — compiled in, default off —
//   injecting crashes, slow writes and torn reads at named cache sites so
//   the fleet tests and CI can rehearse replica failure deterministically.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "harness/engine.hpp"

namespace vlcsa::service::fleet {

/// RAII advisory lock (flock LOCK_EX) on a lock file, created on demand.
/// Advisory means every writer must take it — the cache's disk tier does —
/// while plain readers stay lock-free (rename keeps records atomic for them).
class DirLock {
 public:
  DirLock() = default;
  ~DirLock() { release(); }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  /// Blocks until the lock is held.  Returns false when the lock file cannot
  /// be created/locked (unwritable dir) — callers proceed unlocked then, the
  /// same degradation as an unwritable disk tier.
  [[nodiscard]] bool acquire(const std::string& lock_path);
  void release();
  [[nodiscard]] bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// One key's compute lease (see the file header).  Move-only RAII: releasing
/// (or destruction) unlinks the lease file.
class ComputeLease {
 public:
  enum class State {
    kDisabled,  // no disk tier / lease machinery unavailable: just compute
    kAcquired,  // we hold the lease; compute, store, release
    kBusy,      // another live process holds it; wait for its record
  };

  ComputeLease() = default;
  ~ComputeLease() { release(); }
  ComputeLease(ComputeLease&& other) noexcept;
  ComputeLease& operator=(ComputeLease&& other) noexcept;
  ComputeLease(const ComputeLease&) = delete;
  ComputeLease& operator=(const ComputeLease&) = delete;

  /// Attempts O_CREAT|O_EXCL on `lease_path` (content: holder pid).  On
  /// EEXIST, a lease older than `stale_ms` is unlinked (crashed holder) and
  /// the create retried once; a second EEXIST means somebody else won the
  /// takeover race and the result is kBusy.  `stale_ms <= 0` disables
  /// takeover (an existing lease is always kBusy).
  State try_acquire(const std::string& lease_path, int stale_ms);

  void release();
  [[nodiscard]] State state() const { return state_; }
  /// True when this acquisition reaped a stale predecessor.
  [[nodiscard]] bool took_over() const { return took_over_; }

 private:
  std::string path_;
  State state_ = State::kDisabled;
  bool took_over_ = false;
};

/// Age of the lease file at `lease_path` in milliseconds, or -1 when it does
/// not exist (released).  Clock skew between replicas sharing a filesystem
/// is the operator's problem (OPERATIONS.md, lease-staleness tuning).
[[nodiscard]] long long lease_age_ms(const std::string& lease_path);

enum class LeaseWaitResult {
  kReleased,   // the lease file disappeared — the holder stored (or failed)
  kStale,      // the lease outlived stale_ms — holder presumed crashed
  kCancelled,  // the waiter's own stop (deadline or drain flag) was reached
};

/// Polls `lease_path` every few milliseconds until it is released, stale, or
/// `stop` is reached.
[[nodiscard]] LeaseWaitResult wait_for_lease_release(const std::string& lease_path,
                                                     int stale_ms, const harness::RunStop& stop);

/// Graceful-drain state shared between the request router and the socket
/// server: once begun (idempotent), new run/run-batch work answers a
/// "draining"-coded error while observational requests keep working, and at
/// the drain deadline one sticky flag stops every run that points its
/// RunStop at it — including runs that start after the flag is set.
/// Thread-safe; every access is seq_cst, so a server that reads
/// active_runs() == 0 after begin() knows any later handler sees draining().
class DrainState {
 public:
  void begin() { draining_.store(true); }
  [[nodiscard]] bool draining() const { return draining_.load(); }

  [[nodiscard]] std::size_t active_runs() const { return active_runs_.load(); }
  /// Sets the sticky stop flag (the drain deadline fired).
  void cancel_active_runs() { cancelled_.store(true); }
  /// The flag cancel_active_runs() sets, for RunStop::flag.
  [[nodiscard]] const std::atomic<bool>* stop_flag() const { return &cancelled_; }

  /// Counts one run handler in active_runs() for the lifetime of the scope.
  class RunScope {
   public:
    explicit RunScope(DrainState& drain) : drain_(drain) { ++drain_.active_runs_; }
    ~RunScope() { --drain_.active_runs_; }
    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

   private:
    DrainState& drain_;
  };

 private:
  std::atomic<bool> draining_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::size_t> active_runs_{0};
};

/// Client retry configuration: `attempts` retries *after* the first try
/// (0 disables), exponential delay base_ms * 2^(retry-1) capped at max_ms,
/// scaled by uniform jitter in [0.5, 1.0] so a fleet of clients bounced off
/// one draining replica doesn't re-arrive in lockstep.
struct RetryPolicy {
  int attempts = 0;
  int base_ms = 100;
  int max_ms = 5000;
  /// Jitter stream seed; 0 derives one from pid + clock (fine for clients),
  /// nonzero makes the schedule deterministic (tests).
  std::uint64_t jitter_seed = 0;
};

/// The delay sequence a RetryPolicy induces.  One instance per logical
/// request (retry counter starts at 1).
class BackoffSchedule {
 public:
  explicit BackoffSchedule(const RetryPolicy& policy);

  /// Delay in ms before the next retry; advances the retry counter.
  [[nodiscard]] int next_delay_ms();

 private:
  RetryPolicy policy_;
  int retry_ = 0;
  std::uint64_t jitter_state_;  // splitmix-style stream over the seed
};

namespace fault {

/// Exit code used by the crash-* faults (_exit, no unwinding — that is the
/// point: simulate a kill -9 / power loss mid-operation).
constexpr int kExitCode = 42;

/// True when `site` appears in the active fault spec.  The spec is read from
/// the VLCSA_FAULT environment variable on first query ("site[=ms][,...]");
/// unset/empty means every site is off and each query is one atomic load.
[[nodiscard]] bool enabled(const char* site);

/// The `=ms` parameter of `site`, or `default_ms` when absent/unparsable.
[[nodiscard]] int param_ms(const char* site, int default_ms);

/// _exit(kExitCode) when `site` is armed; no-op otherwise.
void maybe_crash(const char* site);

/// Sleeps param_ms(site, default_ms) when `site` is armed; no-op otherwise.
void maybe_sleep(const char* site, int default_ms);

/// Truncates `record` to half its size when `site` is armed — the torn-read
/// injection the disk tier's validation must catch.
void maybe_tear(const char* site, std::string& record);

/// Test hook: replaces the active spec ("" = all off) without touching the
/// environment.  Not thread-safe against concurrent queries — call it from
/// test setup only.
void configure_for_test(const std::string& spec);

}  // namespace fault

}  // namespace vlcsa::service::fleet
