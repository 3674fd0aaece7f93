// Vectorized kernels (DESIGN.md §11, §16): the dispatchers must agree with
// a plain sequential combine loop — bit-identically for the integer and
// selective (min/max) kernels, and within an accumulated-rounding ULP bound
// for floating-point sums, whose SIMD lanes reassociate the addition. Sizes
// straddle kSimdThreshold and every vector width's remainder handling, and
// each differential check runs once per compiled dispatch level (scalar
// plus whatever of AVX2/AVX-512/NEON the host supports), so the scalar
// kernels double as the oracle for every wide variant in one process.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "ops/arith.h"
#include "ops/kernels.h"
#include "ops/minmax.h"
#include "ops/scan_kernels.h"
#include "ops/string_ops.h"
#include "ops/traits.h"
#include "util/rng.h"

namespace slick::ops {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 7, 15, 16, 17, 64, 255, 1000};

// Runs `f(level)` once per dispatch level the host can execute, with the
// active level pinned for the duration. Restores the detected best after.
template <typename F>
void ForEachCompiledLevel(F&& f) {
  const auto best = static_cast<uint8_t>(kernels::DetectSimdLevel());
  for (uint8_t l = 0; l <= best; ++l) {
    const auto level = static_cast<kernels::SimdLevel>(l);
    kernels::SetSimdLevel(level);
    if (kernels::ActiveSimdLevel() != level) continue;  // not a real level
    f(level);
  }
  kernels::SetSimdLevel(kernels::DetectSimdLevel());
}

std::vector<int64_t> RandomInts(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng.NextBounded(1u << 20)) - (1 << 19);
  }
  return v;
}

std::vector<double> RandomDoubles(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = (rng.NextDouble() - 0.5) * 1e6;
  return v;
}

TEST(KernelsTest, FoldAddInt64MatchesLoopExactly) {
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 17 + n);
    int64_t expect = 0;
    for (int64_t x : v) expect += x;
    EXPECT_EQ(kernels::FoldAdd(v.data(), n), expect) << "n=" << n;
  }
}

TEST(KernelsTest, FoldMaxInt64MatchesLoopExactly) {
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 23 + n);
    int64_t expect = MaxInt::identity();
    for (int64_t x : v) expect = MaxInt::combine(expect, x);
    EXPECT_EQ(kernels::FoldMax(v.data(), n), expect) << "n=" << n;
  }
}

TEST(KernelsTest, FoldAddDoubleWithinReassociationBound) {
  for (std::size_t n : kSizes) {
    const std::vector<double> v = RandomDoubles(n, 29 + n);
    double expect = 0.0, abs_sum = 0.0;
    for (double x : v) {
      expect += x;
      abs_sum += std::abs(x);
    }
    EXPECT_NEAR(kernels::FoldAdd(v.data(), n), expect, 1e-12 * abs_sum)
        << "n=" << n;
  }
}

TEST(KernelsTest, FoldMaxMinDoubleBitIdentical) {
  // Selective kernels never create new values: SIMD max/min must return
  // exactly what the sequential loop returns.
  for (std::size_t n : kSizes) {
    const std::vector<double> v = RandomDoubles(n, 31 + n);
    double emax = Max::identity(), emin = Min::identity();
    for (double x : v) {
      emax = Max::combine(emax, x);
      emin = Min::combine(emin, x);
    }
    EXPECT_EQ(kernels::FoldMax(v.data(), n), emax) << "n=" << n;
    EXPECT_EQ(kernels::FoldMin(v.data(), n), emin) << "n=" << n;
  }
}

TEST(KernelsTest, FoldValuesUsesKernelForKernelOps) {
  const std::vector<int64_t> v = RandomInts(100, 37);
  int64_t sum = 0, max = MaxInt::identity();
  for (int64_t x : v) {
    sum += x;
    max = MaxInt::combine(max, x);
  }
  EXPECT_EQ(FoldValues<SumInt>(v.data(), v.size()), sum);
  EXPECT_EQ(FoldValues<MaxInt>(v.data(), v.size()), max);
}

TEST(KernelsTest, FoldValuesGenericLoopPreservesOrder) {
  // Concat has no kernel: FoldValues must fall back to the in-order combine
  // loop, and the non-commutative result proves the order.
  const std::vector<std::string> v = {"a", "b", "c", "d"};
  EXPECT_EQ(FoldValues<Concat>(v.data(), v.size()), "abcd");
  EXPECT_EQ(FoldValues<Concat>(v.data(), 0), "");
}

TEST(KernelsTest, FoldDispatchersAgreeAcrossLevels) {
  // Every compiled fold variant against the sequential loop: exact for
  // int64 and min/max, reassociation-bounded for the double sum.
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> iv = RandomInts(n, 41 + n);
    const std::vector<double> dv = RandomDoubles(n, 43 + n);
    int64_t isum = 0, imax = MaxInt::identity(), imin = MinInt::identity();
    double dsum = 0.0, dabs = 0.0, dmax = Max::identity(),
           dmin = Min::identity();
    for (int64_t x : iv) {
      isum += x;
      imax = MaxInt::combine(imax, x);
      imin = MinInt::combine(imin, x);
    }
    for (double x : dv) {
      dsum += x;
      dabs += std::abs(x);
      dmax = Max::combine(dmax, x);
      dmin = Min::combine(dmin, x);
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(kernels::FoldAdd(iv.data(), n), isum);
      EXPECT_EQ(kernels::FoldMax(iv.data(), n), imax);
      EXPECT_EQ(kernels::FoldMin(iv.data(), n), imin);
      EXPECT_EQ(kernels::FoldMax(dv.data(), n), dmax);
      EXPECT_EQ(kernels::FoldMin(dv.data(), n), dmin);
      EXPECT_NEAR(kernels::FoldAdd(dv.data(), n), dsum, 1e-12 * dabs);
    });
  }
}

// ------------------------------------------------------------------
// Structural scan kernels (ops/scan_kernels.h).
// ------------------------------------------------------------------

TEST(ScanKernelsTest, SuffixPrefixScanInt64ExactAcrossLevels) {
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 51 + n);
    const int64_t carry_add = 1234567;
    // Sequential recurrences, each seeded with a non-identity carry so the
    // carry plumbing is exercised too.
    std::vector<int64_t> suf_add(n), suf_max(n), suf_min(n);
    std::vector<int64_t> pre_add(n), pre_max(n), pre_min(n);
    {
      int64_t ca = carry_add, cx = 42, cn = -42;
      for (std::size_t i = n; i-- > 0;) {
        ca = v[i] + ca;
        cx = MaxInt::combine(v[i], cx);
        cn = MinInt::combine(v[i], cn);
        suf_add[i] = ca;
        suf_max[i] = cx;
        suf_min[i] = cn;
      }
      ca = carry_add;
      cx = 42;
      cn = -42;
      for (std::size_t i = 0; i < n; ++i) {
        ca = ca + v[i];
        cx = MaxInt::combine(cx, v[i]);
        cn = MinInt::combine(cn, v[i]);
        pre_add[i] = ca;
        pre_max[i] = cx;
        pre_min[i] = cn;
      }
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<int64_t> out(n);
      kernels::SuffixAdd(v.data(), out.data(), n, carry_add);
      EXPECT_EQ(out, suf_add);
      kernels::SuffixMax(v.data(), out.data(), n, int64_t{42});
      EXPECT_EQ(out, suf_max);
      kernels::SuffixMin(v.data(), out.data(), n, int64_t{-42});
      EXPECT_EQ(out, suf_min);
      kernels::PrefixAdd(v.data(), out.data(), n, carry_add);
      EXPECT_EQ(out, pre_add);
      kernels::PrefixMax(v.data(), out.data(), n, int64_t{42});
      EXPECT_EQ(out, pre_max);
      kernels::PrefixMin(v.data(), out.data(), n, int64_t{-42});
      EXPECT_EQ(out, pre_min);
    });
  }
}

TEST(ScanKernelsTest, SuffixPrefixScanDoubleAcrossLevels) {
  // min/max scans are bit-identical; the double-sum scan reassociates
  // within a block, so every element is compared under an accumulated
  // bound instead.
  for (std::size_t n : kSizes) {
    const std::vector<double> v = RandomDoubles(n, 53 + n);
    std::vector<double> suf_max(n), suf_min(n), suf_add(n), abs_suf(n);
    {
      double cx = Max::identity(), cn = Min::identity(), ca = 0.0, aa = 0.0;
      for (std::size_t i = n; i-- > 0;) {
        cx = Max::combine(v[i], cx);
        cn = Min::combine(v[i], cn);
        ca = v[i] + ca;
        aa += std::abs(v[i]);
        suf_max[i] = cx;
        suf_min[i] = cn;
        suf_add[i] = ca;
        abs_suf[i] = aa;
      }
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<double> out(n);
      kernels::SuffixMax(v.data(), out.data(), n, Max::identity());
      EXPECT_EQ(out, suf_max);
      kernels::SuffixMin(v.data(), out.data(), n, Min::identity());
      EXPECT_EQ(out, suf_min);
      kernels::SuffixAdd(v.data(), out.data(), n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], suf_add[i], 1e-12 * abs_suf[i]) << "i=" << i;
      }
    });
  }
}

TEST(ScanKernelsTest, InPlaceSuffixScanAllowed) {
  // The contract allows out == v exactly (the ring flip's in-place mode):
  // each block is loaded before its slot is stored.
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 57 + n);
    std::vector<int64_t> expect(n);
    int64_t c = MaxInt::identity();
    for (std::size_t i = n; i-- > 0;) {
      c = MaxInt::combine(v[i], c);
      expect[i] = c;
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<int64_t> buf = v;
      kernels::SuffixMax(buf.data(), buf.data(), n, MaxInt::identity());
      EXPECT_EQ(buf, expect);
    });
  }
}

// Scalar survivor-staircase reference: bit k set iff element k strictly
// dominates the aggregate of everything after it (no later element absorbs
// it) — the condition SlickDeque (Non-Inv)'s bulk insert keeps a node for.
template <typename Op>
std::vector<uint64_t> ReferenceSurvivors(
    const std::vector<typename Op::value_type>& v,
    typename Op::value_type* total) {
  const std::size_t n = v.size();
  std::vector<uint64_t> mask((n + 63) / 64, 0);
  typename Op::value_type suffix = Op::identity();
  for (std::size_t k = n; k-- > 0;) {
    if (!Absorbs<Op>(suffix, v[k])) {
      mask[k >> 6] |= uint64_t{1} << (k & 63);
    }
    suffix = Op::combine(v[k], suffix);
  }
  *total = suffix;
  return mask;
}

TEST(ScanKernelsTest, SurvivorMasksMatchScalarStaircase) {
  // Duplicate-heavy input stresses the tie edges (ties never survive: the
  // absorbs tests are non-strict). Also covers values equal to ⊕'s
  // identity and an all-equal run.
  for (std::size_t n : kSizes) {
    if (n == 0) continue;  // the deque's bulk path never passes m == 0
    util::SplitMix64 rng(61 + n);
    std::vector<int64_t> iv(n);
    std::vector<double> dv(n);
    for (std::size_t i = 0; i < n; ++i) {
      iv[i] = static_cast<int64_t>(rng.NextBounded(8)) - 4;
      dv[i] = static_cast<double>(static_cast<int64_t>(rng.NextBounded(8))) -
              4.0;
    }
    if (n >= 3) {
      iv[n / 2] = MaxInt::identity();  // INT64_MIN payload
      dv[n / 3] = Min::identity();     // +inf payload
    }
    int64_t iexp_max = 0, iexp_min = 0;
    double dexp_max = 0.0, dexp_min = 0.0;
    const auto imask_max = ReferenceSurvivors<MaxInt>(iv, &iexp_max);
    const auto imask_min = ReferenceSurvivors<MinInt>(iv, &iexp_min);
    const auto dmask_max = ReferenceSurvivors<Max>(dv, &dexp_max);
    const auto dmask_min = ReferenceSurvivors<Min>(dv, &dexp_min);
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<uint64_t> mask((n + 63) / 64);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MaxSurvivors(iv.data(), n, mask.data()), iexp_max);
      EXPECT_EQ(mask, imask_max);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MinSurvivors(iv.data(), n, mask.data()), iexp_min);
      EXPECT_EQ(mask, imask_min);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MaxSurvivors(dv.data(), n, mask.data()), dexp_max);
      EXPECT_EQ(mask, dmask_max);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MinSurvivors(dv.data(), n, mask.data()), dexp_min);
      EXPECT_EQ(mask, dmask_min);
    });
  }
  // All-equal batch: only the newest element survives. Its own bit IS set
  // by the kernel (its suffix is empty, and 7 strictly dominates the
  // identity seed); every earlier element ties with the suffix aggregate
  // and strict dominance rejects it.
  const std::vector<int64_t> same(100, 7);
  ForEachCompiledLevel([&](kernels::SimdLevel level) {
    SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level));
    std::vector<uint64_t> mask(2, 0);
    EXPECT_EQ(kernels::MaxSurvivors(same.data(), same.size(), mask.data()),
              7);
    EXPECT_EQ(mask[0], 0u);
    EXPECT_EQ(mask[1], uint64_t{1} << 35);  // bit 99 = newest
  });
}

TEST(ScanKernelsTest, PrefixCountGreaterMatchesScalar) {
  for (std::size_t n : kSizes) {
    util::SplitMix64 rng(67 + n);
    std::vector<std::size_t> ranges(n);
    for (auto& r : ranges) r = 1 + rng.NextBounded(1 << 14);
    std::sort(ranges.rbegin(), ranges.rend());
    for (const std::size_t bound :
         {std::size_t{0}, std::size_t{1}, std::size_t{100},
          std::size_t{1} << 13, std::size_t{1} << 20}) {
      std::size_t expect = 0;
      while (expect < n && ranges[expect] > bound) ++expect;
      ForEachCompiledLevel([&](kernels::SimdLevel level) {
        SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                     " n=" + std::to_string(n) + " bound=" +
                     std::to_string(bound));
        EXPECT_EQ(kernels::PrefixCountGreater(ranges.data(), n, bound),
                  expect);
      });
    }
  }
}

TEST(ScanKernelsTest, SubtractArraysMatchesScalar) {
  for (std::size_t n : kSizes) {
    const std::vector<double> a = RandomDoubles(n, 71 + n);
    const std::vector<double> b = RandomDoubles(n, 73 + n);
    std::vector<double> expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = a[i] - b[i];
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<double> out(n);
      kernels::SubtractArrays(a.data(), b.data(), out.data(), n);
      EXPECT_EQ(out, expect);
    });
  }
}

TEST(ScanKernelsTest, GenericScanWrappersFallBackInOrder) {
  // Concat has no scan kernel: SuffixScanValues/PrefixScanValues must run
  // the exact in-order combine recurrence.
  const std::vector<std::string> v = {"a", "b", "c", "d", "e"};
  std::vector<std::string> out(v.size());
  SuffixScanValues<Concat>(v.data(), out.data(), v.size(), std::string{});
  EXPECT_EQ(out.front(), "abcde");
  EXPECT_EQ(out.back(), "e");
  PrefixScanValues<Concat>(v.data(), out.data(), v.size(), std::string{"X"});
  EXPECT_EQ(out.front(), "Xa");
  EXPECT_EQ(out.back(), "Xabcde");
}

TEST(ScanKernelsTest, SetSimdLevelClampsToDetected) {
  const kernels::SimdLevel best = kernels::DetectSimdLevel();
  kernels::SetSimdLevel(kernels::SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(kernels::ActiveSimdLevel()),
            static_cast<int>(best));
  const kernels::SimdLevel prev =
      kernels::SetSimdLevel(kernels::SimdLevel::kScalar);
  EXPECT_EQ(kernels::ActiveSimdLevel(), kernels::SimdLevel::kScalar);
  EXPECT_LE(static_cast<int>(prev), static_cast<int>(best));
  kernels::SetSimdLevel(best);
}

// ------------------------------------------------------------------
// Golden digests. The differential checks above compare double sums only
// within a rounding bound, which cannot see a changed lane count or
// horizontal-reduction tree. These FNV-1a digests pin the exact output bits
// of every kernel x element type at every x86 dispatch level, over
// fixed-seed inputs, so any rewrite of the wide variants must reproduce the
// scalar, AVX2 and AVX-512 answers bit for bit.
// ------------------------------------------------------------------

uint64_t Mix(uint64_t h, const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
uint64_t Mix(uint64_t h, const std::vector<T>& v) {
  return Mix(h, v.data(), v.size() * sizeof(T));
}

template <typename T>
uint64_t MixValue(uint64_t h, T x) {
  return Mix(h, &x, sizeof(x));
}

// Every length 0..130 (all remainders of every lane width around the
// dispatch threshold) plus two long batches.
std::vector<std::size_t> GoldenSizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  sizes.push_back(4096);
  return sizes;
}

std::vector<int64_t> GoldenInts(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 40)) -
        (int64_t{1} << 39);
  }
  return v;
}

// Magnitudes spread over 2^0..2^39, so any regrouping of a sum moves low
// bits of the result.
std::vector<double> GoldenDoubles(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    const int e = static_cast<int>(rng.NextBounded(40));
    x = std::ldexp(rng.NextDouble() - 0.5, e);
  }
  return v;
}

// Eight distinct values: ties everywhere, for the survivor masks.
template <typename T>
std::vector<T> GoldenDuplicates(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    x = static_cast<T>(static_cast<int>(rng.NextBounded(8)) - 4);
  }
  return v;
}

// Suffix and prefix scans with two carries each (the op identity and a
// non-identity value), out of place and in place (out == v).
template <typename T, typename Scan>
uint64_t DigestScan(uint64_t h, const std::vector<T>& v, Scan scan,
                    T identity, T carry) {
  for (const T c : {identity, carry}) {
    std::vector<T> out(v.size());
    scan(v.data(), out.data(), v.size(), c);
    h = Mix(h, out);
    std::vector<T> buf = v;
    scan(buf.data(), buf.data(), buf.size(), c);
    h = Mix(h, buf);
  }
  return h;
}

template <typename T, typename Survivors>
uint64_t DigestSurvivors(uint64_t h, const std::vector<T>& v,
                         Survivors survivors) {
  std::vector<uint64_t> mask(v.size() / 64 + 1, 0);
  h = MixValue(h, survivors(v.data(), v.size(), mask.data()));
  return Mix(h, mask);
}

using Digests = std::map<std::string, uint64_t>;

// One digest per kernel x element type over every golden size, computed
// through the public dispatchers at the currently active level.
Digests ComputeGoldenDigests() {
  constexpr uint64_t kBasis = 0xcbf29ce484222325ULL;
  Digests d;
  auto mix = [&](const std::string& key, auto&& f) {
    auto [it, inserted] = d.try_emplace(key, kBasis);
    it->second = f(it->second);
  };
  for (const std::size_t n : GoldenSizes()) {
    const std::vector<int64_t> iv = GoldenInts(n, 1000 + n);
    const std::vector<double> dv = GoldenDoubles(n, 2000 + n);
    const std::vector<int64_t> idup = GoldenDuplicates<int64_t>(n, 3000 + n);
    const std::vector<double> ddup = GoldenDuplicates<double>(n, 4000 + n);

    mix("FoldAdd/int64_t", [&](uint64_t h) {
      return MixValue(h, kernels::FoldAdd(iv.data(), n));
    });
    mix("FoldAdd/double", [&](uint64_t h) {
      return MixValue(h, kernels::FoldAdd(dv.data(), n));
    });
    mix("FoldMax/int64_t", [&](uint64_t h) {
      return MixValue(h, kernels::FoldMax(iv.data(), n));
    });
    mix("FoldMax/double", [&](uint64_t h) {
      return MixValue(h, kernels::FoldMax(dv.data(), n));
    });
    mix("FoldMin/int64_t", [&](uint64_t h) {
      return MixValue(h, kernels::FoldMin(iv.data(), n));
    });
    mix("FoldMin/double", [&](uint64_t h) {
      return MixValue(h, kernels::FoldMin(dv.data(), n));
    });

    // The scan kernels are overloaded on element type; the lambdas pick one.
#define SLICK_GOLDEN_SCAN(NAME, T, VALUES, IDENTITY, CARRY)                \
  mix(#NAME "/" #T, [&](uint64_t h) {                                       \
    return DigestScan<T>(                                                   \
        h, VALUES,                                                          \
        [](const T* v, T* out, std::size_t m, T c) {                        \
          kernels::NAME(v, out, m, c);                                      \
        },                                                                  \
        IDENTITY, CARRY);                                                   \
  });
    SLICK_GOLDEN_SCAN(SuffixAdd, int64_t, iv, int64_t{0}, int64_t{1234567})
    SLICK_GOLDEN_SCAN(SuffixAdd, double, dv, 0.0, 0.3125)
    SLICK_GOLDEN_SCAN(SuffixMax, int64_t, iv, MaxInt::identity(), int64_t{42})
    SLICK_GOLDEN_SCAN(SuffixMax, double, dv, Max::identity(), 42.5)
    SLICK_GOLDEN_SCAN(SuffixMin, int64_t, iv, MinInt::identity(), int64_t{-42})
    SLICK_GOLDEN_SCAN(SuffixMin, double, dv, Min::identity(), -42.5)
    SLICK_GOLDEN_SCAN(PrefixAdd, int64_t, iv, int64_t{0}, int64_t{1234567})
    SLICK_GOLDEN_SCAN(PrefixAdd, double, dv, 0.0, 0.3125)
    SLICK_GOLDEN_SCAN(PrefixMax, int64_t, iv, MaxInt::identity(), int64_t{42})
    SLICK_GOLDEN_SCAN(PrefixMax, double, dv, Max::identity(), 42.5)
    SLICK_GOLDEN_SCAN(PrefixMin, int64_t, iv, MinInt::identity(), int64_t{-42})
    SLICK_GOLDEN_SCAN(PrefixMin, double, dv, Min::identity(), -42.5)
#undef SLICK_GOLDEN_SCAN

#define SLICK_GOLDEN_SURVIVORS(NAME, T, VALUES, DUPS)                       \
  mix(#NAME "/" #T, [&](uint64_t h) {                                       \
    auto fn = [](const T* v, std::size_t m, uint64_t* mask) {               \
      return kernels::NAME(v, m, mask);                                     \
    };                                                                      \
    return DigestSurvivors(DigestSurvivors(h, VALUES, fn), DUPS, fn);       \
  });
    SLICK_GOLDEN_SURVIVORS(MaxSurvivors, int64_t, iv, idup)
    SLICK_GOLDEN_SURVIVORS(MaxSurvivors, double, dv, ddup)
    SLICK_GOLDEN_SURVIVORS(MinSurvivors, int64_t, iv, idup)
    SLICK_GOLDEN_SURVIVORS(MinSurvivors, double, dv, ddup)
#undef SLICK_GOLDEN_SURVIVORS

    mix("PrefixCountGreater/size_t", [&](uint64_t h) {
      util::SplitMix64 rng(5000 + n);
      std::vector<std::size_t> ranges(n);
      for (auto& r : ranges) r = 1 + rng.NextBounded(1 << 14);
      std::sort(ranges.rbegin(), ranges.rend());
      for (const std::size_t bound :
           {std::size_t{0}, std::size_t{1}, std::size_t{1} << 13,
            std::size_t{1} << 20, ~std::size_t{0} - 1}) {
        h = MixValue(h, kernels::PrefixCountGreater(ranges.data(), n, bound));
      }
      // Values with the top bit set: the count must order them unsigned.
      for (auto& r : ranges) r |= std::size_t{1} << 63;
      return MixValue(h, kernels::PrefixCountGreater(ranges.data(), n,
                                                     std::size_t{1} << 62));
    });
    mix("SubtractArrays/double", [&](uint64_t h) {
      const std::vector<double> b = GoldenDoubles(n, 6000 + n);
      std::vector<double> out(n);
      kernels::SubtractArrays(dv.data(), b.data(), out.data(), n);
      return Mix(h, out);
    });
  }
  return d;
}

struct GoldenRow {
  const char* kernel;
  uint64_t scalar, avx2, avx512;
};

// Produced by the hand-written per-ISA kernels that preceded the
// generic-vector bodies; the bodies reproduce every one of them.
constexpr GoldenRow kGolden[] = {
    {"FoldAdd/double", 0xe780facc5f9f8080, 0x6ad008966c10d035,
     0xabce2586bca188d3},
    {"FoldAdd/int64_t", 0xdb94ad9163822158, 0xdb94ad9163822158,
     0xdb94ad9163822158},
    {"FoldMax/double", 0x16649836004cc458, 0x16649836004cc458,
     0x16649836004cc458},
    {"FoldMax/int64_t", 0x747489ec9a387d88, 0x747489ec9a387d88,
     0x747489ec9a387d88},
    {"FoldMin/double", 0xba5e492cd831f370, 0xba5e492cd831f370,
     0xba5e492cd831f370},
    {"FoldMin/int64_t", 0xb4078ba9dbc1f0bb, 0xb4078ba9dbc1f0bb,
     0xb4078ba9dbc1f0bb},
    {"MaxSurvivors/double", 0xcff450618a990c8e, 0xcff450618a990c8e,
     0xcff450618a990c8e},
    {"MaxSurvivors/int64_t", 0x9fa8f401c4cf2bf4, 0x9fa8f401c4cf2bf4,
     0x9fa8f401c4cf2bf4},
    {"MinSurvivors/double", 0x0108521861b8f1c4, 0x0108521861b8f1c4,
     0x0108521861b8f1c4},
    {"MinSurvivors/int64_t", 0x5e57014f39e19611, 0x5e57014f39e19611,
     0x5e57014f39e19611},
    {"PrefixAdd/double", 0xeff441cd182c9579, 0x85a88135e8ea1c7d,
     0x494b6186d7cc9df9},
    {"PrefixAdd/int64_t", 0x1ddf2e4428553ef5, 0x1ddf2e4428553ef5,
     0x1ddf2e4428553ef5},
    {"PrefixCountGreater/size_t", 0x6ae2d03c56c369db, 0x6ae2d03c56c369db,
     0x6ae2d03c56c369db},
    {"PrefixMax/double", 0x6c3cc76e6898b491, 0x6c3cc76e6898b491,
     0x6c3cc76e6898b491},
    {"PrefixMax/int64_t", 0x14ee048354b35355, 0x14ee048354b35355,
     0x14ee048354b35355},
    {"PrefixMin/double", 0xe4b9105a5212dcb1, 0xe4b9105a5212dcb1,
     0xe4b9105a5212dcb1},
    {"PrefixMin/int64_t", 0xc572daa34dd37449, 0xc572daa34dd37449,
     0xc572daa34dd37449},
    {"SubtractArrays/double", 0xf65dc529a4f74541, 0xf65dc529a4f74541,
     0xf65dc529a4f74541},
    {"SuffixAdd/double", 0xa1c163f49694b67d, 0x9ab7b2b82fd0b519,
     0x0a9248e2d9a1e065},
    {"SuffixAdd/int64_t", 0xf215bf75822fbeb9, 0xf215bf75822fbeb9,
     0xf215bf75822fbeb9},
    {"SuffixMax/double", 0xca5adf88545ae5b9, 0xca5adf88545ae5b9,
     0xca5adf88545ae5b9},
    {"SuffixMax/int64_t", 0x8684e32b8a81f3a5, 0x8684e32b8a81f3a5,
     0x8684e32b8a81f3a5},
    {"SuffixMin/double", 0x19344db48315aaad, 0x19344db48315aaad,
     0x19344db48315aaad},
    {"SuffixMin/int64_t", 0x28d1074044a8c965, 0x28d1074044a8c965,
     0x28d1074044a8c965},
};

TEST(KernelsGoldenTest, OutputsMatchPinnedDigestsAtEveryLevel) {
  ForEachCompiledLevel([&](kernels::SimdLevel level) {
    // aarch64 has no pinned column: the W=2 leg below runs its kernel
    // bodies against the scalar oracle instead.
    if (level == kernels::SimdLevel::kNeon) return;
    SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level));
    const Digests d = ComputeGoldenDigests();
    EXPECT_EQ(d.size(), std::size(kGolden));
    for (const GoldenRow& row : kGolden) {
      const uint64_t want = level == kernels::SimdLevel::kAvx512 ? row.avx512
                            : level == kernels::SimdLevel::kAvx2 ? row.avx2
                                                                 : row.scalar;
      const auto it = d.find(row.kernel);
      if (it == d.end()) {
        ADD_FAILURE() << "no digest for " << row.kernel;
      } else {
        EXPECT_EQ(it->second, want) << row.kernel;
      }
    }
    if (::testing::Test::HasFailure()) {  // the actual column, for review
      for (const auto& [kernel, digest] : d) {
        std::printf("  %s %s 0x%016llx\n", kernels::SimdLevelName(level),
                    kernel.c_str(), static_cast<unsigned long long>(digest));
      }
    }
  });
}

// ------------------------------------------------------------------
// The W=2 leg. aarch64's kNeon level runs each generic-vector body at two
// lanes with no target attribute, so the very same instantiation runs on
// any host: drive it directly (not through dispatch) against the scalar
// forms, exactly except for double sums, which reassociate.
// ------------------------------------------------------------------

namespace detail = kernels::detail;

template <typename Op, typename T>
void ExpectW2Matches(const std::vector<T>& got, const std::vector<T>& want,
                     double tol) {
  if constexpr (std::is_same_v<Op, detail::AddOp> &&
                std::is_floating_point_v<T>) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], tol) << "i=" << i;
    }
  } else {
    EXPECT_EQ(got, want);
  }
}

// Fold, then suffix and prefix scans with the identity and `carry`, out of
// place and in place.
template <typename Op, typename T>
void CheckW2Folds(const std::vector<T>& v, T carry) {
  const std::size_t n = v.size();
  double abs_sum = std::abs(static_cast<double>(carry));
  for (const T x : v) abs_sum += std::abs(static_cast<double>(x));
  const double tol = 1e-12 * abs_sum;
  using Fold = detail::Fold<Op, T>;
  ExpectW2Matches<Op, T>({Fold::template Vector<2>(v.data(), n)},
                         {Fold::Scalar(v.data(), n)}, tol);
  auto check_scan = [&](auto kernel, T c) {
    using K = decltype(kernel);
    std::vector<T> got(n), want(n);
    K::template Vector<2>(v.data(), got.data(), n, c);
    K::Scalar(v.data(), want.data(), n, c);
    ExpectW2Matches<Op, T>(got, want, tol);
    got = v;
    K::template Vector<2>(got.data(), got.data(), n, c);
    ExpectW2Matches<Op, T>(got, want, tol);
  };
  for (const T c : {Op::template kIdentity<T>, carry}) {
    check_scan(detail::SuffixScan<Op, T>{}, c);
    check_scan(detail::PrefixScan<Op, T>{}, c);
  }
}

template <typename Op, typename T>
void CheckW2Survivors(const std::vector<T>& v) {
  using K = detail::Survivors<Op, T>;
  std::vector<uint64_t> got(v.size() / 64 + 1, 0), want = got;
  EXPECT_EQ(K::template Vector<2>(v.data(), v.size(), got.data()),
            K::Scalar(v.data(), v.size(), want.data()));
  EXPECT_EQ(got, want);
}

TEST(KernelsW2Test, NeonBodiesMatchScalarOracleOnAnyHost) {
  for (const std::size_t n : GoldenSizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<int64_t> iv = GoldenInts(n, 1000 + n);
    const std::vector<double> dv = GoldenDoubles(n, 2000 + n);
    CheckW2Folds<detail::AddOp>(iv, int64_t{1234567});
    CheckW2Folds<detail::MaxOp>(iv, int64_t{42});
    CheckW2Folds<detail::MinOp>(iv, int64_t{-42});
    CheckW2Folds<detail::AddOp>(dv, 0.3125);
    CheckW2Folds<detail::MaxOp>(dv, 42.5);
    CheckW2Folds<detail::MinOp>(dv, -42.5);
    for (const auto& ints : {iv, GoldenDuplicates<int64_t>(n, 3000 + n)}) {
      CheckW2Survivors<detail::MaxOp>(ints);
      CheckW2Survivors<detail::MinOp>(ints);
    }
    for (const auto& dbls : {dv, GoldenDuplicates<double>(n, 4000 + n)}) {
      CheckW2Survivors<detail::MaxOp>(dbls);
      CheckW2Survivors<detail::MinOp>(dbls);
    }

    util::SplitMix64 rng(5000 + n);
    std::vector<std::size_t> ranges(n);
    for (auto& r : ranges) r = 1 + rng.NextBounded(1 << 14);
    std::sort(ranges.rbegin(), ranges.rend());
    for (const std::size_t bound :
         {std::size_t{0}, std::size_t{1}, std::size_t{1} << 13,
          std::size_t{1} << 20}) {
      EXPECT_EQ(detail::CountGreater::Vector<2>(ranges.data(), n, bound),
                detail::CountGreater::Scalar(ranges.data(), n, bound));
    }
    for (auto& r : ranges) r |= std::size_t{1} << 63;  // unsigned order
    EXPECT_EQ(
        detail::CountGreater::Vector<2>(ranges.data(), n, std::size_t{1} << 62),
        n);

    const std::vector<double> b = GoldenDoubles(n, 6000 + n);
    std::vector<double> got(n), want(n);
    detail::Subtract::Vector<2>(dv.data(), b.data(), got.data(), n);
    detail::Subtract::Scalar(dv.data(), b.data(), want.data(), n);
    EXPECT_EQ(got, want);
  }
}

// Compile-time wiring of the batch traits.
static_assert(has_bulk_kernel<Sum>);
static_assert(has_bulk_kernel<SumInt>);
static_assert(has_bulk_kernel<SumOfSquares>);
static_assert(has_bulk_kernel<Count>);
static_assert(has_bulk_kernel<Max>);
static_assert(has_bulk_kernel<MaxInt>);
static_assert(has_bulk_kernel<Min>);
static_assert(has_bulk_kernel<MinInt>);
static_assert(!has_bulk_kernel<Concat>);
static_assert(!has_bulk_kernel<ArgMax>);
static_assert(!has_bulk_kernel<AlphaMax>);

// Scan kernels: registered for every fold-kernel op; everything else takes
// the generic in-order recurrence.
static_assert(has_scan_kernel<Sum>);
static_assert(has_scan_kernel<SumInt>);
static_assert(has_scan_kernel<SumOfSquares>);
static_assert(has_scan_kernel<Count>);
static_assert(has_scan_kernel<Max>);
static_assert(has_scan_kernel<MaxInt>);
static_assert(has_scan_kernel<Min>);
static_assert(has_scan_kernel<MinInt>);
static_assert(!has_scan_kernel<Concat>);
static_assert(!has_scan_kernel<ArgMax>);
static_assert(!has_scan_kernel<First>);

// Survivor-mask kernels: total-order min/max only — ArgMax/ArgMin keep the
// exact scalar staircase (their absorbs is strict on keys, not values).
static_assert(has_survivor_kernel<Max>);
static_assert(has_survivor_kernel<MaxInt>);
static_assert(has_survivor_kernel<Min>);
static_assert(has_survivor_kernel<MinInt>);
static_assert(!has_survivor_kernel<ArgMax>);
static_assert(!has_survivor_kernel<ArgMin>);
static_assert(!has_survivor_kernel<AlphaMax>);

static_assert(TotalOrderSelectiveOp<Max>);
static_assert(TotalOrderSelectiveOp<Min>);
static_assert(TotalOrderSelectiveOp<MaxInt>);
static_assert(TotalOrderSelectiveOp<ArgMax>);
static_assert(TotalOrderSelectiveOp<ArgMin>);
static_assert(TotalOrderSelectiveOp<AlphaMax>);
static_assert(!TotalOrderSelectiveOp<First>);
static_assert(!TotalOrderSelectiveOp<SumInt>);
static_assert(!TotalOrderSelectiveOp<Concat>);

}  // namespace
}  // namespace slick::ops
