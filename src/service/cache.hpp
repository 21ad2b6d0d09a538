#pragma once
// Two-tier result cache for the experiment service daemon (service.hpp).
//
// A cache value is one rendered result record (a single-line JSON object,
// JsonObject::render_line()) keyed on the harness::RecordKey it is a pure
// function of; the registry resolves, encodes and checks keys.
// The registry + sharded engine guarantee records are deterministic and
// thread-count-invariant, so a hit may be returned byte-for-byte in place of
// recomputation — the contract the service smoke test enforces with cmp.
//
// Tier 1 is an in-memory LRU of bounded entry count.  Tier 2 is an on-disk
// store (one file per key, file content = record + '\n') that survives
// daemon restarts; a disk hit is validated by re-parsing the record with the
// strict JSON parser and checking that its embedded key fields match the
// request, so a corrupted or foreign file degrades to a miss instead of
// serving wrong results.  The disk tier can be capped (`max_disk_bytes`):
// when a store pushes the directory past the cap, the oldest records (by
// last write time) are evicted until it fits again, so a long-running
// daemon's cache directory stays bounded.
//
// The disk tier is safe to share between replicas (fleet.hpp): stores write
// a per-process-unique `.tmp` and rename under an advisory directory flock,
// eviction walks run under the same flock so two replicas never double-count
// bytes, startup reaping is mtime-gated so a peer's in-flight `.tmp` is
// never swept, and `try_acquire_lease` provides cross-process single-flight
// (one replica computes a cold key, the others wait for its record).

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "harness/experiments.hpp"
#include "service/counters.hpp"
#include "service/fleet.hpp"

namespace vlcsa::service {

/// Not a second key type: harness::RecordKey spelled with the eval path as
/// its wire string, which only perfbench's cache-layer timer builds.  It
/// converts implicitly to the RecordKey every ResultCache call takes.
struct CacheKey {
  std::string experiment;
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  std::string eval_path;  // "batched" / "scalar"; anything else throws on conversion
  std::string stream_version;

  operator harness::RecordKey() const;  // NOLINT(google-explicit-constructor)
};

/// Monotonic counters, exposed through the protocol's cache-stats request
/// and the metrics-prom exposition; kCacheStatsRows lists them.
struct CacheStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t coalesced_hits = 0;  // followers served by an in-flight leader
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_evictions = 0;  // record files removed by the byte cap
  std::uint64_t invalid_disk_records = 0;  // corrupt/mismatched files seen
  std::uint64_t lease_waits = 0;      // misses that waited on another replica's lease
  std::uint64_t lease_takeovers = 0;  // stale (crashed-holder) leases reaped
  std::uint64_t memory_entries = 0;  // current, not monotonic; by counters()/stats()
  std::uint64_t disk_bytes = 0;      // current on-disk record bytes; by stats()

  CacheStats& operator+=(const CacheStats& delta);

  /// Lookups that answered a run from the cache (memory, disk and coalesced
  /// hits), and `count` over every lookup that answered one (0 before any).
  [[nodiscard]] std::uint64_t hits() const { return memory_hits + disk_hits + coalesced_hits; }
  [[nodiscard]] double ratio(std::uint64_t count) const {
    const std::uint64_t lookups = hits() + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(lookups);
  }
};

/// CacheStats' counters in cache-stats reply order (the exposition's
/// vlcsa_cache_* families follow it too).
inline constexpr CounterRow<CacheStats> kCacheStatsRows[] = {
    {"memory_hits", "vlcsa_cache_hits_total", CounterType::kCounter, "Cache hits, by tier.",
     "tier=\"memory\"", &CacheStats::memory_hits},
    {"disk_hits", "vlcsa_cache_hits_total", CounterType::kCounter, "Cache hits, by tier.",
     "tier=\"disk\"", &CacheStats::disk_hits},
    {"coalesced_hits", "vlcsa_cache_hits_total", CounterType::kCounter, "Cache hits, by tier.",
     "tier=\"coalesced\"", &CacheStats::coalesced_hits},
    {"misses", "vlcsa_cache_misses_total", CounterType::kCounter,
     "Cache misses (leader lookups).", "", &CacheStats::misses},
    {"stores", "vlcsa_cache_stores_total", CounterType::kCounter, "Records stored.", "",
     &CacheStats::stores},
    {"evictions", "vlcsa_cache_evictions_total", CounterType::kCounter, "Evictions, by tier.",
     "tier=\"memory\"", &CacheStats::evictions},
    {"disk_evictions", "vlcsa_cache_evictions_total", CounterType::kCounter,
     "Evictions, by tier.", "tier=\"disk\"", &CacheStats::disk_evictions},
    {"invalid_disk_records", "vlcsa_cache_invalid_disk_records_total", CounterType::kCounter,
     "Corrupt or mismatched disk records seen.", "", &CacheStats::invalid_disk_records},
    {"lease_waits", "vlcsa_cache_lease_waits_total", CounterType::kCounter,
     "Misses that waited on another replica's compute lease.", "", &CacheStats::lease_waits},
    {"lease_takeovers", "vlcsa_cache_lease_takeovers_total", CounterType::kCounter,
     "Stale (crashed-holder) compute leases reaped.", "", &CacheStats::lease_takeovers},
    {"memory_entries", "vlcsa_cache_memory_entries", CounterType::kGauge,
     "Memory-tier entries.", "", &CacheStats::memory_entries},
    {"disk_bytes", "vlcsa_cache_disk_bytes", CounterType::kGauge, "Disk-tier record bytes.", "",
     &CacheStats::disk_bytes},
};

inline CacheStats& CacheStats::operator+=(const CacheStats& delta) {
  return add_rows(*this, delta, kCacheStatsRows);
}

class ResultCache {
 public:
  /// `disk_dir` empty disables the disk tier; otherwise the directory is
  /// created if absent.  `memory_capacity` 0 disables the memory tier.
  /// `max_disk_bytes` 0 leaves the disk tier unbounded; otherwise stores
  /// evict the oldest record files until total record bytes fit the cap.
  /// `lease_stale_ms` bounds how old a foreign `.tmp`/`.lease` file may be
  /// before it is presumed crashed and reaped (cross-replica staleness
  /// takeover); 0 disables takeover entirely.
  ResultCache(std::string disk_dir, std::size_t memory_capacity,
              std::uint64_t max_disk_bytes = 0, int lease_stale_ms = 30000);

  enum class Tier { kMemory, kDisk, kMiss };

  struct Lookup {
    Tier tier = Tier::kMiss;
    std::string record;  // set on hits, byte-identical to what put() stored
  };

  /// Looks `key` up memory-first; a disk hit is promoted into memory.
  [[nodiscard]] Lookup get(const harness::RecordKey& key);

  /// Stores `record` in both tiers (best effort on disk: an unwritable
  /// directory degrades the cache, never the result).
  void put(const harness::RecordKey& key, const std::string& record);

  /// The counters and memory_entries, with disk_bytes left 0: measuring it
  /// walks the disk directory, so only the replies that report it pay for
  /// that walk (through stats()).
  [[nodiscard]] CacheStats counters() const;

  /// counters() plus disk_bytes, the current on-disk record bytes.
  [[nodiscard]] CacheStats stats() const;

  /// Adds counts made outside the cache: coalesced hits (the single-flight
  /// map is service.cpp's run_one) and lease waits, so that cache-stats
  /// reports every tier together.
  void add(const CacheStats& delta);

  [[nodiscard]] const std::string& disk_dir() const { return disk_dir_; }
  [[nodiscard]] std::size_t memory_capacity() const { return memory_capacity_; }
  [[nodiscard]] std::uint64_t max_disk_bytes() const { return max_disk_bytes_; }

  /// The file a key is stored under: "<sanitized-key>-<fnv1a64>.json" inside
  /// disk_dir.  Exposed so tests and the CI smoke step can find records.
  [[nodiscard]] std::string file_path(const harness::RecordKey& key) const;

  /// The key's compute-lease file (file_path + ".lease") — what
  /// try_acquire_lease creates and waiters poll.
  [[nodiscard]] std::string lease_path(const harness::RecordKey& key) const;

  /// Cross-process single-flight: attempts the key's compute lease.
  /// kAcquired = we compute (release after put); kBusy = another replica is
  /// computing, wait on lease_path; kDisabled = no disk tier, just compute.
  /// Counts takeovers of stale leases into the stats.
  [[nodiscard]] fleet::ComputeLease try_acquire_lease(const harness::RecordKey& key);

  [[nodiscard]] int lease_stale_ms() const { return lease_stale_ms_; }

 private:
  void promote_locked(const std::string& map_key, const std::string& record);
  /// Sums the sizes of all ".json" record files in disk_dir_.
  [[nodiscard]] std::uint64_t disk_usage_bytes() const;
  /// One directory walk: removes `.tmp`/`.lease` scratch older than
  /// lease_stale_ms_ (crashed writers; fresh ones belong to a live peer and
  /// are kept), and with a cap deletes records oldest-first (by last write
  /// time) until the tier fits it.  Called with disk_mutex_ + the
  /// cross-process dir lock held, at startup and when a store crosses the cap.
  void tidy_disk_locked();
  /// The advisory cross-process lock file (".vlcsa.lock" inside disk_dir_).
  [[nodiscard]] std::string dir_lock_path() const;

  std::string disk_dir_;
  std::size_t memory_capacity_;
  std::uint64_t max_disk_bytes_;
  int lease_stale_ms_;

  // Serializes disk-tier writes and cap enforcement (separate from mutex_ so
  // slow filesystem work never blocks memory-tier lookups).
  std::mutex disk_mutex_;
  // Approximate record bytes on disk, guarded by disk_mutex_; resynced by
  // every enforcement walk.  Lets under-cap stores skip the directory scan.
  std::uint64_t disk_bytes_estimate_ = 0;

  mutable std::mutex mutex_;
  // LRU: most recent at the front; map values point into the list.
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, std::string>>::iterator>
      index_;
  CacheStats stats_;
};

}  // namespace vlcsa::service
