// Plane-kernel layer tests: every available backend (scalar always; AVX2 /
// AVX-512 when the host supports them) must compute bit-identical results to
// the scalar oracle on every kernel, including ragged tails and the
// shape-sensitive Kogge-Stone / shifted-and kernels.  Also covers the
// dispatch surface: backend naming, availability, the set_backend contract
// and VLCSA_FORCE_BACKEND resolution.

#include "arith/planeops.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

namespace vlcsa::arith::planeops {
namespace {

/// Restores whatever backend was active when the test started (so a process
/// pinned via VLCSA_FORCE_BACKEND stays pinned for the tests that follow).
class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_backend(prev_); }

 private:
  Backend prev_;
};

/// Every Backend enum value — keep in sync with planeops.hpp (the exhaustive
/// round-trip test below fails to compile a new value into coverage, but a
/// value missing from this list would silently skip it).
const Backend kAllBackends[] = {Backend::kScalar, Backend::kAvx2, Backend::kAvx512};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : kAllBackends) {
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

PlaneVec random_words(std::mt19937_64& rng, std::size_t m) {
  PlaneVec out(m);
  for (auto& word : out) word = rng();
  return out;
}

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 257};

TEST(PlaneOpsDispatchTest, ScalarAlwaysAvailableAndNamed) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  EXPECT_STREQ(to_string(Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Backend::kAvx2), "avx2");
  EXPECT_STREQ(to_string(Backend::kAvx512), "avx512");
}

// Exhaustive enum <-> name round trip: every Backend value must parse back
// from its to_string name.  On hosts without the ISA the named switch must be
// *rejected cleanly* — returning false with dispatch untouched — never
// silently mapped to auto/scalar (the env-var path's fallback is a separate,
// deliberately loud behavior).
TEST(PlaneOpsDispatchTest, EveryBackendNameRoundTripsOrIsRejectedCleanly) {
  BackendGuard guard;
  for (const Backend b : kAllBackends) {
    const std::string_view name = to_string(b);
    EXPECT_NE(name, "?") << static_cast<int>(b);
    if (backend_available(b)) {
      ASSERT_TRUE(set_backend(name)) << name;
      EXPECT_EQ(active_backend(), b) << name;
      ASSERT_TRUE(set_backend(b)) << name;
      EXPECT_EQ(active_backend(), b) << name;
    } else {
      ASSERT_TRUE(set_backend(Backend::kScalar));
      EXPECT_FALSE(set_backend(name)) << name << " must be rejected, not mapped to auto";
      EXPECT_EQ(active_backend(), Backend::kScalar) << name;
      EXPECT_FALSE(set_backend(b)) << name;
      EXPECT_EQ(active_backend(), Backend::kScalar) << name;
    }
  }
}

TEST(PlaneOpsDispatchTest, SetBackendRoundTripsAndRejectsUnknown) {
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(set_backend(b)) << to_string(b);
    EXPECT_EQ(active_backend(), b);
    ASSERT_TRUE(set_backend(std::string_view(to_string(b)))) << to_string(b);
    EXPECT_EQ(active_backend(), b);
  }
  const Backend before = active_backend();
  EXPECT_FALSE(set_backend("sse9000"));
  EXPECT_EQ(active_backend(), before);  // failed switches leave dispatch alone
  EXPECT_TRUE(set_backend("auto"));
}

TEST(PlaneOpsDispatchTest, UnavailableBackendIsRejected) {
  BackendGuard guard;
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (!backend_available(b)) {
      const Backend before = active_backend();
      EXPECT_FALSE(set_backend(b)) << to_string(b);
      EXPECT_EQ(active_backend(), before);
    }
  }
}

// The backend the process started on follows VLCSA_FORCE_BACKEND: unset,
// "auto" or an unknown name give the best available backend, a supported
// name gives that backend, an unsupported one gives scalar.  Run per value
// by the ForcedBackend ctest entries; other tests restore the backend they
// found, so the check also holds inside a full run of this binary.
TEST(PlaneOpsDispatchTest, ForcedBackendEnvResolvesAsDocumented) {
  const char* forced = std::getenv("VLCSA_FORCE_BACKEND");
  const std::string_view name = forced == nullptr ? "auto" : forced;
  Backend expected = backend_available(Backend::kAvx512) ? Backend::kAvx512
                     : backend_available(Backend::kAvx2) ? Backend::kAvx2
                                                         : Backend::kScalar;
  for (const Backend b : kAllBackends) {
    if (name == to_string(b)) expected = backend_available(b) ? b : Backend::kScalar;
  }
  EXPECT_EQ(active_backend(), expected) << "VLCSA_FORCE_BACKEND=" << name;
}

class PlaneOpsBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << to_string(GetParam()) << " backend not supported on this host";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(prev_); }

 private:
  Backend prev_ = active_backend();  // captured before SetUp switches
};

TEST_P(PlaneOpsBackendTest, BulkOpsMatchScalarSemantics) {
  std::mt19937_64 rng(1);
  for (const std::size_t m : kSizes) {
    const PlaneVec x = random_words(rng, m);
    const PlaneVec y = random_words(rng, m);
    PlaneVec g(m, 0), p(m, 0);
    bulk_gp(x.data(), y.data(), g.data(), p.data(), m);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(g[i], x[i] & y[i]) << "gp/g @" << i;
      ASSERT_EQ(p[i], x[i] ^ y[i]) << "gp/p @" << i;
    }
  }
}

TEST_P(PlaneOpsBackendTest, KoggeStoneMatchesSequentialCarryChain) {
  std::mt19937_64 rng(3);
  for (const int n : {1, 2, 3, 5, 8, 17, 64, 130}) {
    for (const int lane_words : {1, 2, 3, 4, 8, 16}) {
      const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
      const PlaneVec a = random_words(rng, m);
      const PlaneVec b = random_words(rng, m);
      PlaneVec g(m), p(m), carry(m), pp(m);
      bulk_gp(a.data(), b.data(), g.data(), p.data(), m);
      kogge_stone(g.data(), p.data(), n, lane_words, carry.data(), pp.data());
      // Reference: the sequential carry recurrence per lane word.
      PlaneVec expected(m);
      for (int w = 0; w < lane_words; ++w) {
        std::uint64_t c = 0;
        for (int i = 0; i < n; ++i) {
          const std::size_t idx =
              static_cast<std::size_t>(i) * static_cast<std::size_t>(lane_words) +
              static_cast<std::size_t>(w);
          c = g[idx] | (p[idx] & c);
          expected[idx] = c;
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(carry[i], expected[i]) << "n=" << n << " W=" << lane_words << " @" << i;
      }
    }
  }
}

TEST_P(PlaneOpsBackendTest, ShiftedSelfAndMatchesScalarSweep) {
  std::mt19937_64 rng(4);
  for (const int n : {1, 2, 5, 16, 64, 130}) {
    for (const int lane_words : {1, 2, 4, 8, 16}) {
      for (const int step : {1, 2, 3, n}) {
        if (step > n) continue;
        const std::size_t m =
            static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
        PlaneVec x = random_words(rng, m);
        PlaneVec expected = x;
        const std::size_t off =
            static_cast<std::size_t>(step) * static_cast<std::size_t>(lane_words);
        for (std::size_t i = m; i-- > off;) expected[i] &= expected[i - off];
        for (std::size_t i = 0; i < off; ++i) expected[i] = 0;
        shifted_self_and(x.data(), n, lane_words, step);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_EQ(x[i], expected[i])
              << "n=" << n << " W=" << lane_words << " step=" << step << " @" << i;
        }
      }
    }
  }
}

TEST_P(PlaneOpsBackendTest, TransposeMatchesNaiveBitGather) {
  std::mt19937_64 rng(5);
  alignas(kPlaneAlignment) std::uint64_t block[64];
  for (auto& row : block) row = rng();
  std::uint64_t expected[64] = {};
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      expected[c] |= ((block[r] >> c) & 1) << r;
    }
  }
  transpose_64x64(block);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], expected[i]) << "row " << i;
  // Involution.
  transpose_64x64(block);
  std::mt19937_64 rng2(5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], rng2()) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(Backends, PlaneOpsBackendTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(PlaneVecTest, StorageIsCacheLineAligned) {
  for (const std::size_t m : {1u, 3u, 64u, 1000u}) {
    const PlaneVec v(m, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kPlaneAlignment, 0u) << m;
  }
}

}  // namespace
}  // namespace vlcsa::arith::planeops
