// Tests for the fleet-mode primitives (service/fleet.hpp): the advisory
// directory lock, the cross-process compute lease with staleness takeover,
// the graceful-drain run counter and sticky stop flag, the retry backoff
// schedule, and the VLCSA_FAULT injection hook the fleet scenarios are built
// on.

#include "service/fleet.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace vlcsa::service::fleet {
namespace {

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_fleet_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void backdate(const std::string& path, int seconds) {
  const auto stamp = std::filesystem::last_write_time(path);
  std::filesystem::last_write_time(path, stamp - std::chrono::seconds(seconds));
}

TEST(DirLock, AcquireCreatesFileAndReleaseKeepsIt) {
  const std::string dir = temp_dir("dirlock");
  const std::string lock_path = dir + "/.vlcsa.lock";
  DirLock lock;
  EXPECT_FALSE(lock.held());
  ASSERT_TRUE(lock.acquire(lock_path));
  EXPECT_TRUE(lock.held());
  EXPECT_TRUE(std::filesystem::exists(lock_path));
  lock.release();
  EXPECT_FALSE(lock.held());
  // The lock file is shared state between replicas, never deleted.
  EXPECT_TRUE(std::filesystem::exists(lock_path));
}

TEST(DirLock, UnwritableDirectoryDegradesToUnlocked) {
  DirLock lock;
  EXPECT_FALSE(lock.acquire("/nonexistent-vlcsa/dir/.lock"));
  EXPECT_FALSE(lock.held());
}

TEST(ComputeLease, AcquireBusyRelease) {
  const std::string dir = temp_dir("lease");
  const std::string lease_path = dir + "/key.json.lease";

  ComputeLease first;
  EXPECT_EQ(first.try_acquire(lease_path, /*stale_ms=*/30000), ComputeLease::State::kAcquired);
  EXPECT_FALSE(first.took_over());
  EXPECT_TRUE(std::filesystem::exists(lease_path));
  EXPECT_GE(lease_age_ms(lease_path), 0);

  // A second contender sees a fresh lease: busy, and nothing is disturbed.
  ComputeLease second;
  EXPECT_EQ(second.try_acquire(lease_path, /*stale_ms=*/30000), ComputeLease::State::kBusy);
  EXPECT_TRUE(std::filesystem::exists(lease_path));

  first.release();
  EXPECT_FALSE(std::filesystem::exists(lease_path));
  EXPECT_EQ(lease_age_ms(lease_path), -1);

  // Released: the second contender can now acquire.
  EXPECT_EQ(second.try_acquire(lease_path, /*stale_ms=*/30000), ComputeLease::State::kAcquired);
}

TEST(ComputeLease, StaleLeaseIsTakenOver) {
  const std::string dir = temp_dir("stale");
  const std::string lease_path = dir + "/key.json.lease";
  {
    std::ofstream out(lease_path);
    out << "99999\n";  // a crashed holder's pid
  }
  backdate(lease_path, 60);

  ComputeLease lease;
  EXPECT_EQ(lease.try_acquire(lease_path, /*stale_ms=*/1000), ComputeLease::State::kAcquired);
  EXPECT_TRUE(lease.took_over());
}

TEST(ComputeLease, ZeroStaleMsNeverTakesOver) {
  const std::string dir = temp_dir("nostale");
  const std::string lease_path = dir + "/key.json.lease";
  {
    std::ofstream out(lease_path);
    out << "99999\n";
  }
  backdate(lease_path, 3600);

  ComputeLease lease;
  EXPECT_EQ(lease.try_acquire(lease_path, /*stale_ms=*/0), ComputeLease::State::kBusy);
  EXPECT_FALSE(lease.took_over());
  EXPECT_TRUE(std::filesystem::exists(lease_path));
}

TEST(ComputeLease, DestructionReleases) {
  const std::string dir = temp_dir("raii");
  const std::string lease_path = dir + "/key.json.lease";
  {
    ComputeLease lease;
    ASSERT_EQ(lease.try_acquire(lease_path, 30000), ComputeLease::State::kAcquired);
  }
  EXPECT_FALSE(std::filesystem::exists(lease_path));
}

TEST(ComputeLease, MoveTransfersOwnership) {
  const std::string dir = temp_dir("move");
  const std::string lease_path = dir + "/key.json.lease";
  ComputeLease source;
  ASSERT_EQ(source.try_acquire(lease_path, 30000), ComputeLease::State::kAcquired);
  {
    const ComputeLease sink = std::move(source);
    EXPECT_EQ(sink.state(), ComputeLease::State::kAcquired);
    EXPECT_EQ(source.state(), ComputeLease::State::kDisabled);
    EXPECT_TRUE(std::filesystem::exists(lease_path));
  }
  EXPECT_FALSE(std::filesystem::exists(lease_path));
}

TEST(WaitForLeaseRelease, SeesReleaseStalenessAndCancellation) {
  const std::string dir = temp_dir("wait");
  const std::string lease_path = dir + "/key.json.lease";
  const harness::RunStop never{};

  // Absent lease: released immediately.
  EXPECT_EQ(wait_for_lease_release(lease_path, 30000, never), LeaseWaitResult::kReleased);

  // A lease older than the bound reports stale.
  {
    std::ofstream out(lease_path);
    out << "1\n";
  }
  backdate(lease_path, 60);
  EXPECT_EQ(wait_for_lease_release(lease_path, 1000, never), LeaseWaitResult::kStale);

  // A fresh lease parks the waiter until its stop's flag flips.
  std::filesystem::remove(lease_path);
  {
    std::ofstream out(lease_path);
    out << "1\n";
  }
  std::atomic<bool> flag{false};
  harness::RunStop stop;
  stop.flag = &flag;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    flag.store(true);
  });
  EXPECT_EQ(wait_for_lease_release(lease_path, 0, stop), LeaseWaitResult::kCancelled);
  canceller.join();

  // ... or until its stop's deadline passes, with no flag at all.
  harness::RunStop deadline_only;
  deadline_only.deadline = harness::RunStop::Clock::now() + std::chrono::milliseconds(30);
  EXPECT_EQ(wait_for_lease_release(lease_path, 0, deadline_only), LeaseWaitResult::kCancelled);
  EXPECT_GE(harness::RunStop::Clock::now(), deadline_only.deadline);

  // ... and until the holder releases.
  flag.store(false);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::filesystem::remove(lease_path);
  });
  EXPECT_EQ(wait_for_lease_release(lease_path, 0, stop), LeaseWaitResult::kReleased);
  releaser.join();
}

TEST(DrainState, RegistersAndCancelsActiveRuns) {
  DrainState drain;
  EXPECT_FALSE(drain.draining());
  EXPECT_EQ(drain.active_runs(), 0u);

  harness::RunStop before;
  before.flag = drain.stop_flag();
  EXPECT_FALSE(before.reached());
  {
    const DrainState::RunScope scope_a(drain);
    EXPECT_EQ(drain.active_runs(), 1u);
    {
      const DrainState::RunScope scope_b(drain);
      EXPECT_EQ(drain.active_runs(), 2u);
      drain.begin();
      drain.begin();  // idempotent
      EXPECT_TRUE(drain.draining());
      EXPECT_FALSE(before.reached());  // draining alone stops nothing
      drain.cancel_active_runs();
      EXPECT_TRUE(before.reached());
    }
    EXPECT_EQ(drain.active_runs(), 1u);
  }
  EXPECT_EQ(drain.active_runs(), 0u);

  // Sticky: a run whose stop is built after the deadline fired stops too —
  // a handler that had not yet started its run when the drain deadline
  // fired cannot outlive it.
  harness::RunStop after;
  after.flag = drain.stop_flag();
  EXPECT_TRUE(after.reached());
}

TEST(BackoffSchedule, DeterministicSeedGivesBoundedDoublingDelays) {
  RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 1000;
  policy.jitter_seed = 7;

  BackoffSchedule a(policy);
  BackoffSchedule b(policy);
  int previous_cap = 0;
  for (int retry = 1; retry <= 8; ++retry) {
    const int delay = a.next_delay_ms();
    EXPECT_EQ(delay, b.next_delay_ms());  // same seed, same schedule
    // Exponential envelope: base*2^(retry-1) capped at max, jittered into
    // [0.5, 1.0] of that.
    const int cap = static_cast<int>(
        std::min<long long>(1000, 100LL << (retry - 1)));
    EXPECT_GE(delay, cap / 2) << "retry " << retry;
    EXPECT_LE(delay, cap) << "retry " << retry;
    EXPECT_GE(cap, previous_cap);
    previous_cap = cap;
  }
}

TEST(BackoffSchedule, DegenerateBoundsAreClamped) {
  RetryPolicy policy;
  policy.base_ms = 0;   // clamped to 1
  policy.max_ms = -5;   // clamped up to base
  policy.jitter_seed = 1;
  BackoffSchedule schedule(policy);
  for (int i = 0; i < 4; ++i) {
    const int delay = schedule.next_delay_ms();
    EXPECT_GE(delay, 1);
    EXPECT_LE(delay, 1);
  }
}

TEST(FaultSpec, ParsesSitesAndParameters) {
  fault::configure_for_test("crash-before-rename,slow-write=250");
  EXPECT_TRUE(fault::enabled("crash-before-rename"));
  EXPECT_TRUE(fault::enabled("slow-write"));
  EXPECT_FALSE(fault::enabled("torn-read"));
  EXPECT_EQ(fault::param_ms("slow-write", 1000), 250);
  EXPECT_EQ(fault::param_ms("crash-before-rename", 1000), 1000);  // no =ms given

  std::string record = "0123456789";
  fault::maybe_tear("torn-read", record);
  EXPECT_EQ(record, "0123456789");  // site off: untouched

  fault::configure_for_test("torn-read");
  fault::maybe_tear("torn-read", record);
  EXPECT_EQ(record, "01234");  // truncated to half

  fault::configure_for_test("");
  EXPECT_FALSE(fault::enabled("crash-before-rename"));
  EXPECT_FALSE(fault::enabled("slow-write"));
}

}  // namespace
}  // namespace vlcsa::service::fleet
