#include "service/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "service/fleet.hpp"

namespace vlcsa::service {

namespace {

/// FNV-1a over the canonical key encoding: stable across runs (unlike
/// std::hash), so file names are reproducible for the CI smoke step.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// Keeps [A-Za-z0-9.-] of an experiment name, maps everything else to '_',
/// so "table7.1/n64" files as "table7.1_n64-..." — readable in `ls`.
std::string sanitize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out += keep ? c : '_';
  }
  return out;
}

}  // namespace

CacheKey::operator harness::RecordKey() const {
  harness::EvalPath path = harness::EvalPath::kBatched;
  if (!harness::parse_eval_path(eval_path, path)) {
    throw std::invalid_argument("unknown eval_path '" + eval_path + "'");
  }
  return {experiment, samples, seed, path, stream_version};
}

ResultCache::ResultCache(std::string disk_dir, std::size_t memory_capacity,
                         std::uint64_t max_disk_bytes, int lease_stale_ms)
    : disk_dir_(std::move(disk_dir)),
      memory_capacity_(memory_capacity),
      max_disk_bytes_(max_disk_bytes),
      lease_stale_ms_(lease_stale_ms < 0 ? 0 : lease_stale_ms) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    // An uncreatable directory degrades every put/get to the memory tier;
    // reads/writes below handle the failure per file.
    const std::lock_guard<std::mutex> lock(disk_mutex_);
    fleet::DirLock dir_lock;
    [[maybe_unused]] const bool locked = dir_lock.acquire(dir_lock_path());
    // Crashed writers leave .tmp/.lease scratch behind, and a pre-populated
    // directory may already exceed the cap (e.g. after a restart with a
    // smaller --cache-max-bytes): one walk handles both.
    tidy_disk_locked();
  }
}

std::string ResultCache::dir_lock_path() const { return disk_dir_ + "/.vlcsa.lock"; }

std::uint64_t ResultCache::disk_usage_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(disk_dir_, ec)) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".json") continue;
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) total += static_cast<std::uint64_t>(size);
  }
  return total;
}

void ResultCache::tidy_disk_locked() {
  std::error_code ec;
  struct RecordFile {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::vector<RecordFile> records;
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(disk_dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string extension = entry.path().extension().string();
    if (extension == ".tmp" || extension == ".lease") {
      // Scratch from a crashed writer — but only provably-stale scratch: a
      // fresh .tmp/.lease may be another replica's store in flight (this
      // walk holds the dir flock, which writers take only around the final
      // rename, not around the slow record write).  lease_stale_ms_ == 0
      // disables takeover: foreign scratch is never touched.
      if (lease_stale_ms_ > 0 &&
          fleet::lease_age_ms(entry.path().string()) > lease_stale_ms_) {
        std::error_code remove_ec;
        std::filesystem::remove(entry.path(), remove_ec);
      }
      continue;
    }
    if (max_disk_bytes_ == 0 || extension != ".json") continue;
    // Per-field error codes: a failed mtime must not be masked by a
    // succeeding size query (or vice versa) — a record with indeterminate
    // age would sort as oldest and be evicted ahead of genuinely old ones.
    std::error_code mtime_ec, size_ec;
    RecordFile record{entry.path(), entry.last_write_time(mtime_ec),
                      static_cast<std::uint64_t>(entry.file_size(size_ec))};
    if (mtime_ec || size_ec) continue;
    total += record.size;
    records.push_back(std::move(record));
  }
  if (total <= max_disk_bytes_) {
    disk_bytes_estimate_ = total;
    return;
  }
  std::sort(records.begin(), records.end(),
            [](const RecordFile& a, const RecordFile& b) { return a.mtime < b.mtime; });
  std::uint64_t evicted = 0;
  for (const auto& record : records) {
    if (total <= max_disk_bytes_) break;
    std::filesystem::remove(record.path, ec);
    if (ec) continue;
    total -= record.size;
    ++evicted;
  }
  disk_bytes_estimate_ = total;
  if (evicted != 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.disk_evictions += evicted;
  }
}

std::string ResultCache::file_path(const harness::RecordKey& key) const {
  const std::string map_key = harness::encode_key(key, harness::KeyEncoding::kCache);
  return disk_dir_ + "/" + sanitize(key.experiment) + "-s" + std::to_string(key.samples) +
         "-seed" + std::to_string(key.seed) + "-" + to_string(key.path) + "-" +
         hex64(fnv1a64(map_key)) + ".json";
}

void ResultCache::promote_locked(const std::string& map_key, const std::string& record) {
  if (memory_capacity_ == 0) return;
  const auto it = index_.find(map_key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = record;
    return;
  }
  lru_.emplace_front(map_key, record);
  index_[map_key] = lru_.begin();
  if (lru_.size() > memory_capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ResultCache::Lookup ResultCache::get(const harness::RecordKey& key) {
  const std::string map_key = harness::encode_key(key, harness::KeyEncoding::kCache);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(map_key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.memory_hits;
      return {Tier::kMemory, it->second->second};
    }
  }
  if (!disk_dir_.empty()) {
    std::ifstream in(file_path(key), std::ios::binary);
    if (in) {
      std::ostringstream content;
      content << in.rdbuf();
      std::string record = content.str();
      // File content is record + '\n'; strip exactly the framing newline.
      if (!record.empty() && record.back() == '\n') record.pop_back();
      // Fault site: hand validation a half record, as if the read raced a
      // non-atomic writer — it must degrade to a miss, never a wrong hit.
      fleet::fault::maybe_tear("torn-read", record);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (harness::record_matches_key(record, key)) {
        promote_locked(map_key, record);
        ++stats_.disk_hits;
        return {Tier::kDisk, std::move(record)};
      }
      ++stats_.invalid_disk_records;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return {Tier::kMiss, {}};
}

void ResultCache::put(const harness::RecordKey& key, const std::string& record) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    promote_locked(harness::encode_key(key, harness::KeyEncoding::kCache), record);
    ++stats_.stores;
  }
  if (disk_dir_.empty()) return;
  // Write-then-rename so a concurrent reader (or a crash) never sees a
  // truncated record — it would be rejected by validation anyway, but a
  // rename keeps the disk tier hit rate clean.  The .tmp name carries the
  // writer's pid: two replicas storing the same key write disjoint scratch
  // files, and each rename is atomic (last one wins with byte-identical
  // content — records are pure functions of the key).
  const std::string path = file_path(key);
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  const std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  std::error_code ec;
  bool wrote = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable dir: memory tier still serves
    out << record << '\n';
    wrote = out.good();
  }
  if (!wrote) {
    // Don't strand a partial .tmp (it would never count against the byte
    // cap and never be evicted).
    std::filesystem::remove(tmp, ec);
    return;
  }
  // Fault sites for the fleet tests: dawdle with the .tmp written (so a
  // kill -9 lands mid-store) or crash outright before the rename.
  fleet::fault::maybe_sleep("slow-write", 1000);
  fleet::fault::maybe_crash("crash-before-rename");
  // The rename and any eviction walk run under the cross-process dir lock:
  // concurrent replicas never walk (and double-count evictions) at once,
  // and a walk never races a peer's rename.  An unlockable dir degrades to
  // the single-process guarantee (rename is atomic regardless).
  fleet::DirLock dir_lock;
  [[maybe_unused]] const bool locked = dir_lock.acquire(dir_lock_path());
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  if (max_disk_bytes_ != 0) {
    // Running estimate keeps the common under-cap store O(1); only when it
    // crosses the cap does a directory walk run (and resync the estimate,
    // so key overwrites or external deletions never cause drift to stick).
    disk_bytes_estimate_ += record.size() + 1;  // + framing '\n'
    if (disk_bytes_estimate_ > max_disk_bytes_) tidy_disk_locked();
  }
}

std::string ResultCache::lease_path(const harness::RecordKey& key) const {
  return file_path(key) + ".lease";
}

fleet::ComputeLease ResultCache::try_acquire_lease(const harness::RecordKey& key) {
  fleet::ComputeLease lease;
  if (disk_dir_.empty()) return lease;  // kDisabled: no shared tier to guard
  lease.try_acquire(lease_path(key), lease_stale_ms_);
  if (lease.took_over()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lease_takeovers;
  }
  return lease;
}

void ResultCache::add(const CacheStats& delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ += delta;
}

CacheStats ResultCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.memory_entries = lru_.size();
  return out;
}

CacheStats ResultCache::stats() const {
  CacheStats out = counters();
  if (!disk_dir_.empty()) out.disk_bytes = disk_usage_bytes();
  return out;
}

}  // namespace vlcsa::service
