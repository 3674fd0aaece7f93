#pragma once

// Generic-vector layer of the SIMD kernels (ops/kernels.h,
// ops/scan_kernels.h; DESIGN.md §16).
//
// Each kernel is one struct with two forms: Scalar(), the exact sequential
// recurrence (the fallback and the tests' oracle), and Vector<W>(), one
// body over GCC/Clang generic vectors `T __attribute__((vector_size(W *
// sizeof(T))))`. Dispatch<K>() instantiates the body per level: W=4 under
// target("avx2") and W=8 under target("avx512f") on x86-64, W=2 on
// aarch64 (NEON, mandatory there, so no attribute).
//
// Rules the bodies keep (DESIGN.md §16.3):
//  * Vectors cross helper boundaries by reference only. A 32- or 64-byte
//    vector passed or returned by value changes the psABI outside the
//    wrapper's target, and GCC rejects that under -Werror (-Wpsabi).
//  * The level wrappers are gnu::flatten, so the body and every helper
//    below inline into one function compiled for that ISA; only the two
//    intrinsic helpers carry a target attribute of their own.
//  * Each ⊕ keeps its op's combine() comparison shape lane by lane, and each
//    level has a fixed lane width, block order and horizontal-reduction
//    tree (DESIGN.md §16.1), so its outputs are deterministic bit for bit;
//    KernelsGoldenTest pins them per level.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "ops/simd_dispatch.h"
#include "util/annotations.h"

namespace slick::ops::kernels::detail {

template <typename T, int W>
struct VecOf {
  typedef T type __attribute__((vector_size(W * sizeof(T))));
};

/// W lanes of T.
template <typename T, int W>
using Vec = typename VecOf<T, W>::type;

template <typename V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(V{}[0]);

template <typename V, typename T>
inline void Splat(V& out, T x) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    out = V{((void)J, x)...};
  }(std::make_index_sequence<kLanes<V>>{});
}

template <typename V, typename T>
inline void Load(V& out, const T* p) {
  __builtin_memcpy(&out, p, sizeof(V));
}

template <typename T, typename V>
inline void Store(T* p, const V& x) {
  __builtin_memcpy(p, &x, sizeof(V));
}

/// out[j] = x[j + K], with `fill` shifted in above the top lane.
template <std::size_t K, typename V>
inline void ShiftDown(V& out, const V& x, const V& fill) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    out = __builtin_shufflevector(x, fill, (J + K)...);
  }(std::make_index_sequence<kLanes<V>>{});
}

/// out[j] = x[j - K], with `fill` shifted in below lane K.
template <std::size_t K, typename V>
inline void ShiftUp(V& out, const V& x, const V& fill) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    out = __builtin_shufflevector(fill, x, (J + kLanes<V> - K)...);
  }(std::make_index_sequence<kLanes<V>>{});
}

/// Every lane of `out` = x[L].
template <std::size_t L, typename V>
inline void Broadcast(V& out, const V& x) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    out = __builtin_shufflevector(x, x, (J * 0 + L)...);
  }(std::make_index_sequence<kLanes<V>>{});
}

/// Bit j set iff a[j] < b[j] (the portable form: W=2 and the test leg).
template <typename V>
inline uint64_t LessBits(const V& a, const V& b) {
  const auto less = a < b;
  uint64_t bits = 0;
  for (std::size_t j = 0; j < kLanes<V>; ++j) {
    bits |= static_cast<uint64_t>(less[j] & 1) << j;
  }
  return bits;
}

#if defined(SLICK_SIMD_X86)
// Generic vectors have no compare-to-bitmask; vmovmskpd is one instruction.
template <typename V>
  requires(sizeof(V) == 32)
[[gnu::target("avx2")]] inline uint64_t LessBits(const V& a, const V& b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(__builtin_bit_cast(__m256d, a < b)));
}

// AVX-512 compares write a k-mask directly; a generic compare would widen
// it to a vector and need a second instruction to narrow it back.
template <typename V>
  requires(sizeof(V) == 64)
[[gnu::target("avx512f")]] inline uint64_t LessBits(const V& a, const V& b) {
  using T = std::remove_cvref_t<decltype(a[0])>;
  const __m512i x = __builtin_bit_cast(__m512i, a);
  const __m512i y = __builtin_bit_cast(__m512i, b);
  if constexpr (std::is_floating_point_v<T>) {
    return _mm512_cmp_pd_mask(_mm512_castsi512_pd(x), _mm512_castsi512_pd(y),
                              _CMP_LT_OQ);
  } else if constexpr (std::is_signed_v<T>) {
    return _mm512_cmplt_epi64_mask(x, y);
  } else {
    return _mm512_cmplt_epu64_mask(x, y);
  }
}
#endif  // SLICK_SIMD_X86

// ------------------------------------------------------------------
// The three ⊕ shapes, each written once for scalars and vectors alike.
// Into(a, b) is a = a ⊕ b with exactly the comparison of the op's
// combine(a, b), so a tie or a NaN keeps `a`. Beats/BeatBits are the
// survivor test: x strictly beats `agg`, the aggregate of everything
// after it.
// ------------------------------------------------------------------

struct AddOp {
  template <typename T>
  static constexpr T kIdentity = T{0};
  template <typename X>
  static void Into(X& a, const X& b) {
    a = a + b;
  }
};

struct MaxOp {
  template <typename T>
  static constexpr T kIdentity = std::numeric_limits<T>::has_infinity
                                     ? -std::numeric_limits<T>::infinity()
                                     : std::numeric_limits<T>::min();
  template <typename X>
  static void Into(X& a, const X& b) {
    a = a < b ? b : a;
  }
  template <typename T>
  static bool Beats(T x, T agg) {
    return agg < x;
  }
  template <typename V>
  static uint64_t BeatBits(const V& x, const V& agg) {
    return LessBits(agg, x);
  }
};

struct MinOp {
  template <typename T>
  static constexpr T kIdentity = std::numeric_limits<T>::has_infinity
                                     ? std::numeric_limits<T>::infinity()
                                     : std::numeric_limits<T>::max();
  template <typename X>
  static void Into(X& a, const X& b) {
    a = b < a ? b : a;
  }
  template <typename T>
  static bool Beats(T x, T agg) {
    return x < agg;
  }
  template <typename V>
  static uint64_t BeatBits(const V& x, const V& agg) {
    return LessBits(x, agg);
  }
};

/// In-block inclusive suffix ⊕ in log2(W) steps: lane j ends as
/// x[j] ⊕ x[j+1] ⊕ … ⊕ x[W-1], with the identity `fill` shifted in.
template <typename Op, std::size_t K = 1, typename V>
inline void ScanDown(V& x, const V& fill) {
  if constexpr (K < kLanes<V>) {
    V shifted{};
    ShiftDown<K>(shifted, x, fill);
    Op::Into(x, shifted);
    ScanDown<Op, 2 * K>(x, fill);
  }
}

/// In-block inclusive prefix ⊕: lane j ends as x[0] ⊕ … ⊕ x[j].
template <typename Op, std::size_t K = 1, typename V>
inline void ScanUp(V& x, const V& fill) {
  if constexpr (K < kLanes<V>) {
    V shifted{};
    ShiftUp<K>(shifted, x, fill);
    Op::Into(shifted, x);
    x = shifted;
    ScanUp<Op, 2 * K>(x, fill);
  }
}

/// Horizontal ⊕ of the lanes. Sums keep each level's tree: AVX-512 (W=8)
/// folds the high half onto the low half twice, the order of
/// _mm512_reduce_add_pd; AVX2 (W=4) adds adjacent pairs; NEON (W=2) is
/// l0 + l1. Min/max fold the lanes in order from the identity.
template <typename Op, typename T, typename V>
inline T Reduce(const V& a) {
  if constexpr (std::is_same_v<Op, AddOp> && kLanes<V> == 8) {
    const Vec<T, 4> quad = __builtin_shufflevector(a, a, 4, 5, 6, 7) +
                           __builtin_shufflevector(a, a, 0, 1, 2, 3);
    const Vec<T, 2> pair = __builtin_shufflevector(quad, quad, 2, 3) +
                           __builtin_shufflevector(quad, quad, 0, 1);
    return pair[0] + pair[1];
  } else if constexpr (std::is_same_v<Op, AddOp> && kLanes<V> == 4) {
    return (a[0] + a[1]) + (a[2] + a[3]);
  } else if constexpr (std::is_same_v<Op, AddOp>) {
    return a[0] + a[1];
  } else {
    T r = Op::template kIdentity<T>;
    for (std::size_t j = 0; j < kLanes<V>; ++j) Op::Into(r, a[j]);
    return r;
  }
}

#if defined(SLICK_SIMD_X86)
// One wrapper per level: flatten inlines the kernel body and every helper
// into a function compiled for that ISA.
template <typename K, typename... A>
[[gnu::target("avx2"), gnu::flatten]] inline auto RunAvx2(A... a) {
  return K::template Vector<4>(a...);
}

template <typename K, typename... A>
[[gnu::target("avx512f"), gnu::flatten]] inline auto RunAvx512(A... a) {
  return K::template Vector<8>(a...);
}
#endif  // SLICK_SIMD_X86

/// Element types the wide kernels cover.
template <typename T>
concept Lane = std::is_same_v<T, double> || std::is_same_v<T, int64_t>;

/// Runs kernel K at the widest variant the active level (simd_dispatch.h)
/// allows once `n` reaches kSimdThreshold; K::Scalar otherwise.
template <typename K, typename... A>
SLICK_REALTIME inline auto Dispatch([[maybe_unused]] std::size_t n, A... a) {
#if defined(SLICK_SIMD_X86)
  if (n >= kSimdThreshold) {
    const SimdLevel level = ActiveSimdLevel();
    if (level >= SimdLevel::kAvx512) return RunAvx512<K>(a...);
    if (level >= SimdLevel::kAvx2) return RunAvx2<K>(a...);
  }
#elif defined(SLICK_SIMD_NEON)
  if (n >= kSimdThreshold && ActiveSimdLevel() >= SimdLevel::kNeon) {
    return K::template Vector<2>(a...);
  }
#endif
  return K::Scalar(a...);
}

}  // namespace slick::ops::kernels::detail
