// Plane-kernel layer tests: every available backend (scalar always; AVX2 /
// AVX-512 when the host supports them) must compute bit-identical results to
// the scalar oracle on every kernel: the SCSA / VLSA carry-chain sweeps over
// every column-chunk shape, the transpose, the MT19937-64 twist/temper and
// the ziggurat fast path (the Gaussian group encode is pinned against
// next() by distributions_test's GaussianEncodeTest; the sweeps' scalar
// rows are pinned to the models' scalar evaluate() by
// speculative/batch_test.cpp).  Also
// covers the dispatch surface: backend naming, availability, the
// set_backend contract and VLCSA_FORCE_BACKEND resolution.

#include "arith/planeops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

/// Runs `body` with the scalar backend, then restores the test's backend.
template <typename Body>
void on_scalar(Body body) {
  const Backend backend = active_backend();
  ASSERT_TRUE(set_backend(Backend::kScalar));
  body();
  ASSERT_TRUE(set_backend(backend));
}

/// Operand planes with long propagate runs: a random, b = ~a ^ sparse, where
/// each bit of `sparse` is set with probability 2^-sparse_log2 (1 gives
/// uniform operands; 8 gives runs of hundreds of propagate bits).
void run_planes(std::mt19937_64& rng, std::size_t m, int sparse_log2, PlaneVec& a,
                PlaneVec& b) {
  a = random_words(rng, m);
  b.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::uint64_t sparse = ~std::uint64_t{0};
    for (int t = 0; t < sparse_log2; ++t) sparse &= rng();
    b[i] = ~a[i] ^ sparse;
  }
}

const int kSweepWidths[] = {1, 2, 17, 64, 130, 512};
const int kSweepLaneWords[] = {1, 2, 3, 4, 8, 16};
const int kSparseLog2[] = {1, 4, 8};

// Window layouts as the SCSA model builds them (the remainder window at the
// bottom) for window sizes from 1 to 63, so windows straddle 64-bit limbs.
TEST_P(PlaneOpsBackendTest, ScsaWindowSweepMatchesScalar) {
  std::mt19937_64 rng(3);
  for (const int n : kSweepWidths) {
    for (const int lane_words : kSweepLaneWords) {
      const std::size_t lw = static_cast<std::size_t>(lane_words);
      const std::size_t m = static_cast<std::size_t>(n) * lw;
      for (const int window : {1, 3, 17, 63}) {
        const int k = std::min(window, n);
        const int count = (n + k - 1) / k;
        std::vector<int> sizes(static_cast<std::size_t>(count), k);
        sizes[0] = n - k * (count - 1);
        for (const int sparse_log2 : kSparseLog2) {
          PlaneVec a, b;
          run_planes(rng, m, sparse_log2, a, b);
          std::vector<PlaneVec> want(4, PlaneVec(lw)), got(4, PlaneVec(lw));
          const auto sweep = [&](std::vector<PlaneVec>& out) {
            scsa_window_sweep(a.data(), b.data(), lane_words, sizes.data(), count,
                              {out[0].data(), out[1].data(), out[2].data(), out[3].data()});
          };
          on_scalar([&] { sweep(want); });
          sweep(got);
          for (std::size_t mask = 0; mask < 4; ++mask) {
            ASSERT_EQ(got[mask], want[mask]) << "n=" << n << " W=" << lane_words << " k=" << k
                                             << " sparse=2^-" << sparse_log2 << " mask "
                                             << mask;
          }
        }
      }
    }
  }
}

// Chain lengths where the run counter gains a plane (15/16, 31/32) and the
// whole width, at every chunk shape.
TEST_P(PlaneOpsBackendTest, VlsaRunSweepMatchesScalar) {
  std::mt19937_64 rng(4);
  for (const int n : kSweepWidths) {
    for (const int lane_words : kSweepLaneWords) {
      const std::size_t lw = static_cast<std::size_t>(lane_words);
      const std::size_t m = static_cast<std::size_t>(n) * lw;
      for (const int chain : {1, 2, 15, 16, 17, 31, 32, 33, n}) {
        if (chain > n) continue;
        for (const int sparse_log2 : kSparseLog2) {
          PlaneVec a, b;
          run_planes(rng, m, sparse_log2, a, b);
          PlaneVec want_wrong(lw), want_err(lw), got_wrong(lw), got_err(lw);
          on_scalar([&] {
            vlsa_run_sweep(a.data(), b.data(), n, lane_words, chain, want_wrong.data(),
                           want_err.data());
          });
          vlsa_run_sweep(a.data(), b.data(), n, lane_words, chain, got_wrong.data(),
                         got_err.data());
          ASSERT_EQ(got_wrong, want_wrong)
              << "n=" << n << " W=" << lane_words << " l=" << chain << " sparse=2^-"
              << sparse_log2;
          ASSERT_EQ(got_err, want_err) << "n=" << n << " W=" << lane_words << " l=" << chain
                                       << " sparse=2^-" << sparse_log2;
        }
      }
    }
  }
}

// Lanes never interact: a sweep over W lane words gives, in word w, what a
// one-word sweep of word w's column gives.  Checked on each backend without
// the scalar oracle, at widths that mix vector chunks with a remainder.
TEST_P(PlaneOpsBackendTest, SweepsKeepLaneWordsIndependent) {
  std::mt19937_64 rng(6);
  for (const int n : {17, 64, 130}) {
    for (const int lane_words : {3, 5, 8, 13, 16}) {
      const std::size_t lw = static_cast<std::size_t>(lane_words);
      const std::size_t nn = static_cast<std::size_t>(n);
      PlaneVec a, b;
      run_planes(rng, nn * lw, 4, a, b);
      const int count = (n + 16) / 17;
      std::vector<int> sizes(static_cast<std::size_t>(count), 17);
      sizes[0] = n - 17 * (count - 1);
      const int chain = std::min(n, 16);
      std::vector<PlaneVec> scsa(4, PlaneVec(lw));
      scsa_window_sweep(a.data(), b.data(), lane_words, sizes.data(), count,
                        {scsa[0].data(), scsa[1].data(), scsa[2].data(), scsa[3].data()});
      PlaneVec vlsa_wrong(lw), vlsa_err(lw);
      vlsa_run_sweep(a.data(), b.data(), n, lane_words, chain, vlsa_wrong.data(),
                     vlsa_err.data());
      for (std::size_t w = 0; w < lw; ++w) {
        PlaneVec col_a(nn), col_b(nn);
        for (std::size_t i = 0; i < nn; ++i) {
          col_a[i] = a[i * lw + w];
          col_b[i] = b[i * lw + w];
        }
        std::uint64_t one[4] = {}, wrong = 0, err = 0;
        scsa_window_sweep(col_a.data(), col_b.data(), 1, sizes.data(), count,
                          {&one[0], &one[1], &one[2], &one[3]});
        vlsa_run_sweep(col_a.data(), col_b.data(), n, 1, chain, &wrong, &err);
        for (std::size_t mask = 0; mask < 4; ++mask) {
          ASSERT_EQ(scsa[mask][w], one[mask])
              << "n=" << n << " W=" << lane_words << " word " << w << " mask " << mask;
        }
        ASSERT_EQ(vlsa_wrong[w], wrong) << "n=" << n << " W=" << lane_words << " word " << w;
        ASSERT_EQ(vlsa_err[w], err) << "n=" << n << " W=" << lane_words << " word " << w;
      }
    }
  }
}

// Random 312-word states (so every lane of every chunk and both scalar
// tails see arbitrary words): a bare twist, then three blocks twisted and
// tempered in one mt_regenerate — every backend against the scalar oracle,
// state and tempered words alike.
TEST_P(PlaneOpsBackendTest, MtTwistAndRegenerateMatchScalar) {
  constexpr std::size_t kBlocks = 3;
  std::mt19937_64 rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint64_t> want(kMtStateWords);
    for (auto& word : want) word = rng();
    std::vector<std::uint64_t> got = want;
    std::vector<std::uint64_t> want_out(kBlocks * kMtStateWords);
    std::vector<std::uint64_t> got_out(kBlocks * kMtStateWords);
    on_scalar([&] {
      mt_twist(want.data());
      mt_regenerate(want.data(), want_out.data(), kBlocks);
    });
    mt_twist(got.data());
    mt_regenerate(got.data(), got_out.data(), kBlocks);
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(got_out, want_out) << "trial " << trial;
  }
}

// zig_accept on crafted words: accepted words (|hz| < kn[iz]) everywhere
// before position r and a rejected one at r, for every r in [0, m], so the
// first rejection lands on each lane 0..7 of a vector chunk and in the
// scalar remainder.  Words after r are random (accepted or not).  The
// result must be r (m when nothing is rejected), dst[0, r) the fast-path
// variates, and dst[r, m) untouched — on every backend, bit for bit the
// scalar oracle.
TEST_P(PlaneOpsBackendTest, ZigAcceptStopsAtTheFirstRejectedWord) {
  constexpr std::int64_t kHzLimit = std::int64_t{1} << 54;  // |hz| <= 2^54
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> kn(256);
  std::vector<double> wn(256);
  for (int iz = 0; iz < 256; ++iz) {
    kn[iz] = 1 + rng() % static_cast<std::uint64_t>(kHzLimit);
    wn[iz] = std::ldexp(1.0 + static_cast<double>(iz) / 256.0, -54);
  }
  const auto word = [](std::int64_t hz, std::uint64_t iz) {
    return (static_cast<std::uint64_t>(hz) << 9) | iz;
  };
  // hz uniform in (-limit, limit), i.e. |hz| < limit.
  const auto hz_below = [&](std::uint64_t limit) {
    const auto mag = static_cast<std::int64_t>(rng() % limit);
    return (rng() & 1) != 0 ? -mag : mag;
  };
  constexpr double kSentinel = -12345.0;
  for (const std::size_t m : {0, 1, 7, 8, 9, 17}) {
    for (std::size_t r = 0; r <= m; ++r) {
      std::vector<std::uint64_t> words(m);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t iz = rng() & 0xFF;
        if (i < r) {
          words[i] = word(hz_below(kn[iz]), iz);
        } else if (i == r) {
          // Rejected: |hz| in [kn[iz], 2^54], the edges included.
          const std::uint64_t span = static_cast<std::uint64_t>(kHzLimit) - kn[iz] + 1;
          const std::uint64_t mag = r % 3 == 0   ? kn[iz]
                                    : r % 3 == 1 ? static_cast<std::uint64_t>(kHzLimit)
                                                 : kn[iz] + rng() % span;
          const auto hz = static_cast<std::int64_t>(mag);
          words[i] = word((rng() & 1) != 0 ? -hz : hz, iz);
        } else {
          words[i] = rng();
        }
      }
      std::vector<double> want(m, kSentinel), got(m, kSentinel);
      std::size_t want_taken = 0;
      on_scalar([&] {
        want_taken = zig_accept(words.data(), m, kn.data(), wn.data(), want.data());
      });
      const std::size_t taken = zig_accept(words.data(), m, kn.data(), wn.data(), got.data());
      ASSERT_EQ(want_taken, r) << "m=" << m << " r=" << r;
      ASSERT_EQ(taken, r) << "m=" << m << " r=" << r;
      for (std::size_t i = 0; i < m; ++i) {
        double x = 0.0;
        if (i < r) {
          ASSERT_TRUE(zig_fast(words[i], kn.data(), wn.data(), x)) << i;
        } else {
          x = kSentinel;
        }
        ASSERT_EQ(want[i], x) << "m=" << m << " r=" << r << " @" << i;
        ASSERT_EQ(got[i], x) << "m=" << m << " r=" << r << " @" << i;
      }
    }
  }
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
