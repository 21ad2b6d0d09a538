// Tests for the two-tier result cache (service/cache.hpp): LRU semantics,
// disk persistence across instances, validation of corrupt or mismatched
// disk records, fetch()'s single-flight latch and compute lease, and the
// stats counters the protocol's cache-stats request reports.

#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "service/fleet.hpp"
#include "service/trace.hpp"

namespace vlcsa::service {
namespace {

using harness::EvalPath;
using harness::KeyEncoding;
using harness::RecordKey;

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_cache_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// A minimal record carrying exactly the fields disk validation checks.
std::string record_for(const RecordKey& key, const std::string& payload = "x") {
  return "{\"experiment\": \"" + key.experiment +
         "\", \"samples\": " + std::to_string(key.samples) +
         ", \"seed\": " + std::to_string(key.seed) + ", \"eval_path\": \"" +
         to_string(key.path) + "\", \"payload\": \"" + payload + "\"}";
}

void backdate(const std::string& path, int seconds) {
  const auto stamp = std::filesystem::last_write_time(path);
  std::filesystem::last_write_time(path, stamp - std::chrono::seconds(seconds));
}

int count_with_extension(const std::string& dir, const std::string& extension) {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == extension) ++count;
  }
  return count;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// The summed size of the `.json` record files in `dir` — what disk_bytes
/// counts.
std::uint64_t json_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") total += entry.file_size();
  }
  return total;
}

/// A registry key fetch() can compute: a small error-rate run.
RecordKey registry_key(std::uint64_t seed = 1) {
  const harness::KeyResolution resolved = harness::record_key("fig7.1/n64-k6", 2000, seed);
  EXPECT_TRUE(resolved.ok());
  return resolved.key;
}

harness::RunOptions one_thread() {
  harness::RunOptions options;
  options.threads = 1;
  return options;
}

/// Waits (bounded) until `done` holds.
template <class Predicate>
void wait_until(Predicate done) {
  for (int i = 0; i < 20000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done());
}

/// Starts a fetch of `key` on its own thread and returns once it is parked
/// in its store — the slow-write fault holds it there for `park_ms` with
/// the `.tmp` written — so it has counted its lookup and still holds the
/// latch: a leader in flight for followers to coalesce onto.  The caller
/// joins it and clears the fault.
std::thread park_leader(ResultCache& cache, const RecordKey& key, int park_ms) {
  fleet::fault::configure_for_test("slow-write=" + std::to_string(park_ms));
  std::thread leader([&cache, key] {
    RequestTrace trace;
    EXPECT_EQ(cache.fetch(key, one_thread(), trace).tier, ResultCache::Tier::kMiss);
  });
  wait_until([&] { return count_with_extension(cache.disk_dir(), ".tmp") == 1; });
  return leader;
}

TEST(ResultCache, MissThenMemoryHit) {
  ResultCache cache("", 4);
  const RecordKey key{"table7.1/n64", 1000, 1, EvalPath::kBatched, ""};
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
  cache.put(key, record_for(key));
  const auto hit = cache.get(key);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kMemory);
  EXPECT_EQ(hit.record, record_for(key));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.memory_entries, 1u);
}

TEST(ResultCache, CoalescedHitsAreCountedAsTheirOwnTier) {
  // Two followers latch onto an in-flight leader: each answers the leader's
  // record as a coalesced hit, counted as its own tier — not a tier lookup.
  const std::string dir = temp_dir("coalesced");
  ResultCache cache(dir, 4);
  const RecordKey key = registry_key();
  EXPECT_EQ(cache.stats().coalesced_hits, 0u);
  std::thread leader = park_leader(cache, key, 1000);
  const CacheStats before = cache.stats();
  ResultCache::Lookup followed[2];
  std::thread followers[2];
  for (int i = 0; i < 2; ++i) {
    followers[i] = std::thread([&cache, &key, &followed, i] {
      RequestTrace trace;
      followed[i] = cache.fetch(key, one_thread(), trace);
    });
  }
  for (std::thread& follower : followers) follower.join();
  leader.join();
  fleet::fault::configure_for_test("");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced_hits - before.coalesced_hits, 2u);
  EXPECT_EQ(stats.memory_hits - before.memory_hits, 0u);  // a coalesced hit is not a tier lookup
  EXPECT_EQ(stats.misses - before.misses, 0u);
  for (const ResultCache::Lookup& lookup : followed) {
    EXPECT_EQ(lookup.tier, ResultCache::Tier::kCoalesced);
    EXPECT_EQ(lookup.record, cache.get(key).record);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, KeyComponentsAllDiscriminate) {
  ResultCache cache("", 8);
  const RecordKey key{"table7.1/n64", 1000, 1, EvalPath::kBatched, ""};
  cache.put(key, record_for(key));
  for (const RecordKey& other :
       {RecordKey{"table7.1/n128", 1000, 1, EvalPath::kBatched, ""},
        RecordKey{"table7.1/n64", 1001, 1, EvalPath::kBatched, ""},
        RecordKey{"table7.1/n64", 1000, 2, EvalPath::kBatched, ""},
        RecordKey{"table7.1/n64", 1000, 1, EvalPath::kScalar, ""}}) {
    EXPECT_EQ(cache.get(other).tier, ResultCache::Tier::kMiss)
        << encode_key(other, KeyEncoding::kCache);
  }
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  ResultCache cache("", 2);
  const RecordKey a{"a", 1, 1, EvalPath::kBatched, ""};
  const RecordKey b{"b", 1, 1, EvalPath::kBatched, ""};
  const RecordKey c{"c", 1, 1, EvalPath::kBatched, ""};
  cache.put(a, record_for(a));
  cache.put(b, record_for(b));
  EXPECT_EQ(cache.get(a).tier, ResultCache::Tier::kMemory);  // a is now most recent
  cache.put(c, record_for(c));                               // evicts b, not a
  EXPECT_EQ(cache.get(b).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.get(a).tier, ResultCache::Tier::kMemory);
  EXPECT_EQ(cache.get(c).tier, ResultCache::Tier::kMemory);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().memory_entries, 2u);
}

TEST(ResultCache, ZeroCapacityDisablesMemoryTier) {
  ResultCache cache("", 0);
  const RecordKey key{"a", 1, 1, EvalPath::kBatched, ""};
  cache.put(key, record_for(key));
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
}

TEST(ResultCache, DiskTierSurvivesInstances) {
  const std::string dir = temp_dir("persist");
  const RecordKey key{"table7.1/n64", 2000, 7, EvalPath::kScalar, ""};
  const std::string record = record_for(key, "persisted");
  {
    ResultCache writer(dir, 4);
    writer.put(key, record);
    ASSERT_TRUE(std::filesystem::exists(writer.file_path(key)));
  }
  ResultCache reader(dir, 4);
  const auto hit = reader.get(key);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(hit.record, record);  // byte-identical through the file round-trip
  // The disk hit was promoted: the second lookup is a memory hit.
  EXPECT_EQ(reader.get(key).tier, ResultCache::Tier::kMemory);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().memory_hits, 1u);
}

// disk_bytes is a running count, not a walk: stores add to it, a
// byte-identical re-put leaves it, and the startup and cap walks resync it.
TEST(ResultCache, DiskBytesTracksStoresWithoutAWalk) {
  const std::string dir = temp_dir("diskbytes");
  RecordKey keys[4] = {{"exp/a", 1, 1, EvalPath::kBatched, ""},
                       {"exp/b", 2, 1, EvalPath::kBatched, ""},
                       {"exp/c", 3, 1, EvalPath::kBatched, ""},
                       {"exp/d", 4, 1, EvalPath::kBatched, ""}};
  {
    ResultCache cache(dir, 4);
    EXPECT_EQ(cache.stats().disk_bytes, 0u);
    for (int i = 0; i < 3; ++i) cache.put(keys[i], record_for(keys[i]));
    EXPECT_EQ(cache.stats().disk_bytes, json_bytes(dir));
    cache.put(keys[1], record_for(keys[1]));  // byte-identical overwrite
    EXPECT_EQ(cache.stats().disk_bytes, json_bytes(dir));
    // A crash mid-write leaves a torn record behind.
    std::ofstream(cache.file_path(keys[2]), std::ios::trunc) << "{\"torn\n";
  }
  {
    ResultCache restarted(dir, 4);
    EXPECT_EQ(restarted.stats().disk_bytes, json_bytes(dir));
    restarted.put(keys[2], record_for(keys[2]));  // replaces the torn file
    EXPECT_EQ(restarted.stats().disk_bytes, json_bytes(dir));
  }
  // A cap two records wide: the startup walk evicts one, the next store
  // another.
  const std::uint64_t two_records = 2 * (record_for(keys[0]).size() + 1);
  ResultCache capped(dir, 4, two_records);
  EXPECT_EQ(capped.stats().disk_evictions, 1u);
  EXPECT_EQ(capped.stats().disk_bytes, json_bytes(dir));
  capped.put(keys[3], record_for(keys[3]));
  EXPECT_EQ(capped.stats().disk_evictions, 2u);
  EXPECT_EQ(capped.stats().disk_bytes, json_bytes(dir));

  // stats() never waits out a slow store.
  fleet::fault::configure_for_test("slow-write");  // 1000 ms
  const RecordKey slow{"exp/slow", 5, 1, EvalPath::kBatched, ""};
  std::thread writer([&] { capped.put(slow, record_for(slow)); });
  wait_until([&] { return count_with_extension(dir, ".tmp") == 1; });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(capped.stats().stores, 2u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(200));
  writer.join();
  fleet::fault::configure_for_test("");
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskFileIsAMiss) {
  const std::string dir = temp_dir("corrupt");
  ResultCache cache(dir, 0);  // memory off so every get goes to disk
  const RecordKey key{"table7.1/n64", 2000, 7, EvalPath::kBatched, ""};
  cache.put(key, record_for(key));
  {
    std::ofstream out(cache.file_path(key), std::ios::trunc);
    out << "{\"experiment\": \"table7.1/n64\", \"samples\": 2000, truncated";
  }
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.stats().invalid_disk_records, 1u);
}

TEST(ResultCache, MismatchedRecordIsAMiss) {
  const std::string dir = temp_dir("mismatch");
  ResultCache cache(dir, 0);
  const RecordKey key{"table7.1/n64", 2000, 7, EvalPath::kBatched, ""};
  const RecordKey other{"table7.1/n64", 2000, 8, EvalPath::kBatched, ""};  // different seed
  {
    std::ofstream out(cache.file_path(key), std::ios::trunc);
    out << record_for(other) << "\n";  // valid JSON, wrong key fields
  }
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.stats().invalid_disk_records, 1u);
}

TEST(ResultCache, StreamVersionedKeyRejectsUnversionedRecord) {
  // The stale-record guard for stream-versioned families (the crypto
  // chain-profile workloads after the BlockRng seeding consolidation): a
  // record written before the family carried a version has no
  // "stream_version" field and must read as a miss, never a stale hit —
  // while unversioned keys keep their historical map keys and file names.
  const std::string dir = temp_dir("stream_version");
  ResultCache cache(dir, 0);
  const RecordKey unversioned{"fig6.2/rsa-like", 4, 1, EvalPath::kScalar, ""};
  RecordKey versioned = unversioned;
  versioned.stream_version = "crypto-rng-v2";
  EXPECT_EQ(encode_key(unversioned, KeyEncoding::kCache), "fig6.2/rsa-like|4|1|scalar");
  EXPECT_EQ(encode_key(versioned, KeyEncoding::kCache),
            "fig6.2/rsa-like|4|1|scalar|crypto-rng-v2");
  EXPECT_NE(cache.file_path(unversioned), cache.file_path(versioned));

  // Pre-versioning record on disk under the *versioned* file name (the
  // pathological leftover): parse-validate must reject it.
  {
    std::ofstream out(cache.file_path(versioned), std::ios::trunc);
    out << record_for(unversioned) << "\n";  // valid JSON, no stream_version
  }
  EXPECT_EQ(cache.get(versioned).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.stats().invalid_disk_records, 1u);

  // A record carrying the matching version round-trips.
  const std::string record =
      "{\"experiment\": \"fig6.2/rsa-like\", \"samples\": 4, \"seed\": 1, "
      "\"eval_path\": \"scalar\", \"stream_version\": \"crypto-rng-v2\"}";
  EXPECT_TRUE(record_matches_key(record, versioned));
  cache.put(versioned, record);
  const auto hit = cache.get(versioned);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(hit.record, record);
  // The wrong version string is as dead as a missing one.
  RecordKey bumped = versioned;
  bumped.stream_version = "crypto-rng-v3";
  EXPECT_FALSE(record_matches_key(record, bumped));
}

TEST(ResultCache, RecordMatchesKeyPredicate) {
  const RecordKey key{"e/p", 10, 2, EvalPath::kBatched, ""};
  EXPECT_TRUE(record_matches_key(record_for(key), key));
  EXPECT_FALSE(record_matches_key("not json", key));
  EXPECT_FALSE(record_matches_key("[1, 2]", key));
  EXPECT_FALSE(record_matches_key("{\"experiment\": \"e/p\"}", key));  // fields missing
  RecordKey wrong = key;
  wrong.samples = 11;
  EXPECT_FALSE(record_matches_key(record_for(key), wrong));
}

TEST(ResultCache, DiskCapEvictsOldestRecords) {
  const std::string dir = temp_dir("cap");
  // Roomy cap first: three records persist.
  RecordKey keys[3] = {{"exp/a", 1, 1, EvalPath::kBatched, ""},
                       {"exp/b", 2, 1, EvalPath::kBatched, ""},
                       {"exp/c", 3, 1, EvalPath::kBatched, ""}};
  {
    ResultCache cache(dir, 0, 1 << 20);
    for (int i = 0; i < 3; ++i) {
      cache.put(keys[i], record_for(keys[i]));
      // Distinct mtimes, all in the past so later stores are newest, and
      // "oldest" is well defined even on coarse filesystem clocks.
      const auto stamp = std::filesystem::last_write_time(cache.file_path(keys[i]));
      std::filesystem::last_write_time(cache.file_path(keys[i]),
                                       stamp - std::chrono::seconds(30 - i));
    }
    EXPECT_EQ(cache.stats().disk_evictions, 0u);
    EXPECT_GT(cache.stats().disk_bytes, 0u);
  }
  // Tight cap on the pre-populated dir: the constructor enforces it, keeping
  // only the newest record.
  const std::uint64_t one_record =
      static_cast<std::uint64_t>(record_for(keys[2]).size()) + 1;  // + framing '\n'
  ResultCache cache(dir, 0, one_record);
  EXPECT_EQ(cache.stats().disk_evictions, 2u);
  EXPECT_LE(cache.stats().disk_bytes, one_record);
  EXPECT_EQ(cache.get(keys[0]).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.get(keys[1]).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.get(keys[2]).tier, ResultCache::Tier::kDisk);
  // A fresh store pushes past the cap again: the older survivor goes.
  const RecordKey fresh{"exp/d", 4, 1, EvalPath::kBatched, ""};
  cache.put(fresh, record_for(fresh));
  EXPECT_EQ(cache.get(fresh).tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(cache.get(keys[2]).tier, ResultCache::Tier::kMiss);
  EXPECT_GE(cache.stats().disk_evictions, 3u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, ZeroCapLeavesDiskUnbounded) {
  const std::string dir = temp_dir("nocap");
  ResultCache cache(dir, 0, 0);
  for (int i = 0; i < 8; ++i) {
    const RecordKey key{"exp/x" + std::to_string(i), static_cast<std::uint64_t>(i), 1,
                        EvalPath::kBatched, ""};
    cache.put(key, record_for(key));
  }
  EXPECT_EQ(cache.stats().disk_evictions, 0u);
  EXPECT_EQ(cache.max_disk_bytes(), 0u);
  int on_disk = 0;
  for (int i = 0; i < 8; ++i) {
    const RecordKey key{"exp/x" + std::to_string(i), static_cast<std::uint64_t>(i), 1,
                        EvalPath::kBatched, ""};
    if (cache.get(key).tier == ResultCache::Tier::kDisk) ++on_disk;
  }
  EXPECT_EQ(on_disk, 8);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, FilePathIsReadableAndKeyed) {
  ResultCache cache("/tmp/cache", 1);
  const RecordKey key{"table7.1/n64", 200000, 1, EvalPath::kBatched, ""};
  const std::string path = cache.file_path(key);
  EXPECT_NE(path.find("/tmp/cache/table7.1_n64-s200000-seed1-batched-"), std::string::npos)
      << path;
  EXPECT_EQ(path.substr(path.size() - 5), ".json");
  // Different keys map to different files.
  RecordKey other = key;
  other.seed = 2;
  EXPECT_NE(cache.file_path(other), path);

  // Full names of registry keys, as every existing cache directory holds
  // them (one unversioned, one gauss-rng-v2): a moved key encoding would
  // rename every record and silently turn those caches cold.
  EXPECT_EQ(cache.file_path(harness::record_key("fig6.3/uniform-twos-complement", 1000, 1).key),
            "/tmp/cache/fig6.3_uniform-twos-complement-s1000-seed1-scalar-5679b30cfbd23926.json");
  EXPECT_EQ(cache.file_path(harness::record_key("table7.1/n64", 1000, 1).key),
            "/tmp/cache/table7.1_n64-s1000-seed1-batched-34a9ff56ac793a11.json");
}

// ---------------------------------------------------------------------------
// Fleet-mode disk tier: crash recovery, scratch reaping, fault injection, and
// two replicas sharing one cache directory (fork-based — those tests start
// no threads, so forking is safe even under the sanitizers).

TEST(ResultCacheFleet, StartupReapsOnlyProvablyStaleScratch) {
  const std::string dir = temp_dir("reap");
  std::filesystem::create_directories(dir);
  const RecordKey key{"exp/reap", 10, 1, EvalPath::kBatched, ""};
  {
    ResultCache writer(dir, 0);
    writer.put(key, record_for(key));
  }
  const auto scratch = [&](const std::string& name) {
    std::ofstream out(dir + "/" + name);
    out << "scratch\n";
  };
  scratch("crashed.json.1234.tmp");
  scratch("crashed.json.lease");
  backdate(dir + "/crashed.json.1234.tmp", 60);
  backdate(dir + "/crashed.json.lease", 60);
  scratch("live-peer.json.5678.tmp");  // fresh: a live replica mid-store

  ResultCache cache(dir, 0, 0, /*lease_stale_ms=*/1000);
  EXPECT_FALSE(std::filesystem::exists(dir + "/crashed.json.1234.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/crashed.json.lease"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/live-peer.json.5678.tmp"))
      << "fresh foreign scratch must survive startup reaping";
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kDisk);  // records untouched

  // lease_stale_ms 0 disables takeover: even ancient scratch is never swept.
  scratch("ancient.json.9.tmp");
  backdate(dir + "/ancient.json.9.tmp", 3600);
  ResultCache frozen(dir, 0, 0, /*lease_stale_ms=*/0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/ancient.json.9.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheFleet, TruncatedRecordAndLeftoverTmpRecoverOnRestart) {
  // The crash the write-then-rename scheme defends against, seen at startup:
  // a torn record file (e.g. torn by the filesystem, not the protocol) plus
  // a dead writer's .tmp.  The restarted daemon must serve a miss, reap the
  // scratch, and recover by recomputing.
  const std::string dir = temp_dir("restart");
  const RecordKey key{"exp/restart", 10, 1, EvalPath::kBatched, ""};
  const std::string record = record_for(key, "recovered");
  std::string path;
  {
    ResultCache writer(dir, 0);
    writer.put(key, record);
    path = writer.file_path(key);
  }
  const std::string full = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() / 2);
  }
  {
    std::ofstream out(path + ".4242.tmp");
    out << full.substr(0, 3);
  }
  backdate(path + ".4242.tmp", 60);

  ResultCache cache(dir, 0, 0, /*lease_stale_ms=*/1000);
  EXPECT_EQ(count_with_extension(dir, ".tmp"), 0);
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.stats().invalid_disk_records, 1u);
  cache.put(key, record);
  const auto hit = cache.get(key);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(hit.record, record);
  EXPECT_EQ(read_file(path), record + "\n");
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheFleet, TornReadFaultDegradesToMissNeverWrongHit) {
  const std::string dir = temp_dir("torn");
  ResultCache cache(dir, 0);
  const RecordKey key{"exp/torn", 10, 1, EvalPath::kBatched, ""};
  const std::string record = record_for(key, "whole");
  cache.put(key, record);

  fleet::fault::configure_for_test("torn-read");
  EXPECT_EQ(cache.get(key).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.stats().invalid_disk_records, 1u);

  // The fault tears the in-memory read, not the file: healthy reads hit.
  fleet::fault::configure_for_test("");
  const auto hit = cache.get(key);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(hit.record, record);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheFleet, CrashBeforeRenameLeavesScratchNotARecord) {
  const std::string dir = temp_dir("crash");
  const RecordKey key{"exp/crash", 10, 1, EvalPath::kBatched, ""};
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child replica: dies at the injected fault site mid-store.  No gtest
    // in the child — it reports through its exit status alone.
    fleet::fault::configure_for_test("crash-before-rename");
    ResultCache dying(dir, 0);
    dying.put(key, record_for(key));
    _exit(0);  // unreachable: the fault site _exits with kExitCode first
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fleet::fault::kExitCode);

  // The kill landed between write and rename: scratch exists, the record
  // does not, and a surviving replica sees a plain miss (the fresh .tmp is
  // kept — it cannot be told apart from a live peer's in-flight store).
  ResultCache survivor(dir, 0);
  EXPECT_FALSE(std::filesystem::exists(survivor.file_path(key)));
  EXPECT_EQ(count_with_extension(dir, ".tmp"), 1);
  EXPECT_EQ(survivor.get(key).tier, ResultCache::Tier::kMiss);

  // Once the scratch ages past the staleness bound, a restart reaps it and
  // the key recovers through a normal recompute-and-store.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") backdate(entry.path().string(), 60);
  }
  ResultCache reaper(dir, 0, 0, /*lease_stale_ms=*/1000);
  EXPECT_EQ(count_with_extension(dir, ".tmp"), 0);
  reaper.put(key, record_for(key));
  EXPECT_EQ(reaper.get(key).tier, ResultCache::Tier::kDisk);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheFleet, TwoProcessConcurrentStoreIsByteIdentical) {
  // Two replicas store the same key into one directory at once — the
  // determinism contract makes their records byte-identical, and the
  // pid-suffixed tmp + dir-locked rename make the overlap harmless: one
  // record file, exact bytes, no scratch left behind.
  const std::string dir = temp_dir("twoproc");
  const RecordKey key{"exp/shared", 20, 3, EvalPath::kBatched, ""};
  const std::string record = record_for(key, "identical-bytes");
  ResultCache mine(dir, 0);  // created before the fork so both see the dir

  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Dawdle with the .tmp written so the stores genuinely overlap.
    fleet::fault::configure_for_test("slow-write=50");
    ResultCache peer(dir, 0);
    peer.put(key, record);
    _exit(std::filesystem::exists(peer.file_path(key)) ? 0 : 1);
  }
  mine.put(key, record);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(count_with_extension(dir, ".json"), 1);
  EXPECT_EQ(count_with_extension(dir, ".tmp"), 0);
  EXPECT_EQ(read_file(mine.file_path(key)), record + "\n");
  const auto hit = mine.get(key);
  EXPECT_EQ(hit.tier, ResultCache::Tier::kDisk);
  EXPECT_EQ(hit.record, record);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheFleet, LeaseCountersFlowThroughStats) {
  const std::string dir = temp_dir("leasestats");
  ResultCache cache(dir, 0);
  const RecordKey waited = registry_key(1);
  const RecordKey taken = registry_key(2);

  // Another "replica" holds the first key's lease: fetch waits on it (one
  // lease wait), and computes once the lease is released.
  {
    std::ofstream out(cache.lease_path(waited));
    out << "424242\n";
  }
  ResultCache::Lookup lookup;
  std::thread runner([&] {
    RequestTrace trace;
    lookup = cache.fetch(waited, one_thread(), trace);
  });
  wait_until([&] { return cache.stats().lease_waits == 1; });
  std::filesystem::remove(cache.lease_path(waited));
  runner.join();
  EXPECT_EQ(lookup.tier, ResultCache::Tier::kMiss);

  // A crashed replica's stale lease on the second key is taken over.
  {
    std::ofstream out(cache.lease_path(taken));
    out << "424242\n";
  }
  backdate(cache.lease_path(taken), 60);
  RequestTrace trace;
  EXPECT_EQ(cache.fetch(taken, one_thread(), trace).tier, ResultCache::Tier::kMiss);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lease_takeovers, 1u);
  EXPECT_EQ(stats.lease_waits, 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.lease_path(taken)));  // released after the store

  // No disk tier: no lease to wait on, fetch just computes.
  ResultCache memory_only("", 4);
  EXPECT_EQ(memory_only.fetch(waited, one_thread(), trace).tier, ResultCache::Tier::kMiss);
  EXPECT_EQ(memory_only.stats().lease_waits, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vlcsa::service
