#pragma once

// Structural scan kernels (DESIGN.md §16): the SIMD layer behind the
// TwoStacks flip, SlickDeque (Non-Inv)'s staircase reduction, and the
// shared multi-query answer walk.
//
//  * SuffixAdd/SuffixMax/SuffixMin — out[i] = v[i] ⊕ out[i+1], seeded
//    out[n-1] = v[n-1] ⊕ carry. This is the flip: it turns a region of
//    values into its suffix-aggregate array in one reverse pass, with a
//    carried lane prefix across blocks (and across a ring wrap, via the
//    carry argument). `out` may be disjoint from `v` or exactly equal to
//    it; partial overlap is not allowed.
//  * PrefixAdd/PrefixMax/PrefixMin — out[i] = out[i-1] ⊕ v[i], seeded
//    out[0] = carry ⊕ v[0]: the bulk-insert prefix-aggregate chain.
//  * MaxSurvivors/MinSurvivors — the staircase reduction: one reverse
//    pass that sets mask bit k iff v[k] strictly dominates the aggregate
//    of v[k+1..n) (i.e. survives the batch), and returns the whole-batch
//    aggregate. Callers must zero the mask words first.
//  * PrefixCountGreater — length of the maximal leading run of a
//    descending-sorted array strictly greater than a bound: one node of
//    the multi-query walk answers exactly that many ranges.
//  * SubtractArrays — out[i] = a[i] - b[i], the Range = Max - Min
//    projection over a batch of due answers.
//
// Exactness contract (same shape as ops/kernels.h): integer scans and all
// min/max scans and survivor masks are bit-identical to the sequential
// combine recurrence regardless of dispatch level — blocked evaluation
// only regroups the chain, association order within the sequence is
// preserved, and left-biased selection is associative. Floating-point
// *sum* scans reassociate (in-register log-step scan), so they are
// ULP-bounded, not bit-equal. The min/max kernels assume NaN-free input:
// a NaN breaks the total order that kAbsorbsTotal (and the blocked
// regrouping) relies on; NaN-laden streams take the generic scalar paths
// by using ops without registered kernels.
//
// Each kernel is a struct with a Scalar form — the always-available
// fallback and the differential oracle — and one Vector<W> body over
// generic vectors that ops/simd_vec.h instantiates per ISA level behind
// ops/simd_dispatch.h's cached one-time level resolution
// (tests/kernels_test.cc drives every level, and the W=2 NEON body on any
// host, against the scalar forms).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/simd_dispatch.h"
#include "ops/simd_vec.h"
#include "ops/traits.h"
#include "util/annotations.h"

namespace slick::ops {
namespace kernels {
namespace detail {

/// out[i] = v[i] ⊕ out[i+1], seeded out[n-1] = v[n-1] ⊕ carry.
template <typename Op, typename T>
struct SuffixScan {
  SLICK_REALTIME static void Scalar(const T* v, T* out, std::size_t n,
                                    T carry) {
    for (std::size_t i = n; i-- > 0;) {
      T x = v[i];
      Op::Into(x, carry);
      out[i] = carry = x;
    }
  }

  // The n % W newest elements go scalar first. Then each block, newest to
  // oldest, is scanned in-register and ⊕ the carried aggregate of
  // everything newer; only a lane-0 broadcast ⊕ stays on the block-to-block
  // critical path. Each block is loaded before its slot is stored, so
  // out == v works.
  template <int W>
  static void Vector(const T* v, T* out, std::size_t n, T carry) {
    std::size_t i = n - n % W;
    Scalar(v + i, out + i, n - i, carry);
    if (i != n) carry = out[i];
    Vec<T, W> fill{}, c{}, x{}, y{};
    Splat(fill, Op::template kIdentity<T>);
    Splat(c, carry);
    for (; i != 0; i -= W) {
      Load(x, v + i - W);
      ScanDown<Op>(x, fill);
      y = x;
      Op::Into(y, c);
      Store(out + i - W, y);
      Broadcast<0>(y, x);
      Op::Into(y, c);
      c = y;
    }
  }
};

/// out[i] = out[i-1] ⊕ v[i], seeded out[0] = carry ⊕ v[0].
template <typename Op, typename T>
struct PrefixScan {
  SLICK_REALTIME static void Scalar(const T* v, T* out, std::size_t n,
                                    T carry) {
    for (std::size_t i = 0; i < n; ++i) {
      Op::Into(carry, v[i]);
      out[i] = carry;
    }
  }

  // Mirror of SuffixScan::Vector: blocks oldest to newest, the tail last.
  template <int W>
  static void Vector(const T* v, T* out, std::size_t n, T carry) {
    Vec<T, W> fill{}, c{}, x{}, y{};
    Splat(fill, Op::template kIdentity<T>);
    Splat(c, carry);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      Load(x, v + i);
      ScanUp<Op>(x, fill);
      y = c;
      Op::Into(y, x);
      Store(out + i, y);
      Broadcast<W - 1>(y, x);
      Op::Into(c, y);
    }
    Scalar(v + i, out + i, n - i, c[0]);
  }
};

/// Staircase survivor mask: sets bit k iff v[k] strictly beats the
/// aggregate of v[k+1..n) — !Absorbs(suffix, v[k]) for the order-induced
/// absorbs of Max/Min — and returns the whole-batch aggregate. Mask words
/// must arrive zeroed; the newest element gets the identity as its suffix,
/// so callers that must keep it unconditionally (SlickDeque) force its bit.
template <typename Op, typename T>
struct Survivors {
  static void Step(const T* v, std::size_t i, T& carry, uint64_t* mask) {
    if (Op::Beats(v[i], carry)) mask[i >> 6] |= uint64_t{1} << (i & 63);
    Op::Into(carry, v[i]);
  }

  SLICK_REALTIME static T Scalar(const T* v, std::size_t n, uint64_t* mask) {
    T carry = Op::template kIdentity<T>;
    for (std::size_t i = n; i-- > 0;) Step(v, i, carry, mask);
    return carry;
  }

  // The in-block exclusive suffix is the inclusive scan shifted down one
  // lane and ⊕ the carry, so one packed compare yields W survivor bits (W
  // divides 64 and blocks start at multiples of W: never across a word).
  template <int W>
  static T Vector(const T* v, std::size_t n, uint64_t* mask) {
    T carry = Op::template kIdentity<T>;
    std::size_t i = n;
    while (i % W != 0) Step(v, --i, carry, mask);
    Vec<T, W> fill{}, c{}, x{}, incl{}, excl{};
    Splat(fill, Op::template kIdentity<T>);
    Splat(c, carry);
    for (; i != 0; i -= W) {
      Load(x, v + i - W);
      incl = x;
      ScanDown<Op>(incl, fill);
      ShiftDown<1>(excl, incl, fill);
      Op::Into(excl, c);
      mask[(i - W) >> 6] |= Op::BeatBits(x, excl) << ((i - W) & 63);
      Broadcast<0>(excl, incl);
      Op::Into(excl, c);
      c = excl;
    }
    return c[0];
  }
};

/// Length of the maximal leading run of `v` (sorted descending) with
/// v[j] > bound. With a descending array this is also the count of all
/// elements > bound, which is what the multi-query walk needs: the
/// current deque node answers exactly the ranges still above its age.
struct CountGreater {
  SLICK_REALTIME static std::size_t Scalar(const std::size_t* v,
                                           std::size_t n, std::size_t bound) {
    std::size_t i = 0;
    while (i < n && v[i] > bound) ++i;
    return i;
  }

  template <int W>
  static std::size_t Vector(const std::size_t* v, std::size_t n,
                            std::size_t bound) {
    Vec<std::size_t, W> b{}, x{};
    Splat(b, bound);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      Load(x, v + i);
      const uint64_t above = LessBits(b, x);
      if (above != (uint64_t{1} << W) - 1) {
        return i + static_cast<std::size_t>(std::countr_one(above));
      }
    }
    return i + Scalar(v + i, n - i, bound);
  }
};

/// out[i] = a[i] - b[i]: the Range = Max - Min projection over a batch of
/// due answers.
struct Subtract {
  SLICK_REALTIME static void Scalar(const double* SLICK_RESTRICT a,
                                    const double* SLICK_RESTRICT b,
                                    double* SLICK_RESTRICT out,
                                    std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
  }

  template <int W>
  static void Vector(const double* SLICK_RESTRICT a,
                     const double* SLICK_RESTRICT b,
                     double* SLICK_RESTRICT out, std::size_t n) {
    Vec<double, W> x{}, y{};
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      Load(x, a + i);
      Load(y, b + i);
      x -= y;
      Store(out + i, x);
    }
    Scalar(a + i, b + i, out + i, n - i);
  }
};

}  // namespace detail

template <detail::Lane T>
SLICK_REALTIME inline void SuffixAdd(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::SuffixScan<detail::AddOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline void SuffixMax(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::SuffixScan<detail::MaxOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline void SuffixMin(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::SuffixScan<detail::MinOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline void PrefixAdd(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::PrefixScan<detail::AddOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline void PrefixMax(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::PrefixScan<detail::MaxOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline void PrefixMin(const T* v, T* out, std::size_t n,
                                     std::type_identity_t<T> carry) {
  detail::Dispatch<detail::PrefixScan<detail::MinOp, T>>(n, v, out, n, carry);
}

template <detail::Lane T>
SLICK_REALTIME inline T MaxSurvivors(const T* v, std::size_t n,
                                     uint64_t* mask) {
  return detail::Dispatch<detail::Survivors<detail::MaxOp, T>>(n, v, n, mask);
}

template <detail::Lane T>
SLICK_REALTIME inline T MinSurvivors(const T* v, std::size_t n,
                                     uint64_t* mask) {
  return detail::Dispatch<detail::Survivors<detail::MinOp, T>>(n, v, n, mask);
}

SLICK_REALTIME inline std::size_t PrefixCountGreater(const std::size_t* v,
                                                     std::size_t n,
                                                     std::size_t bound) {
  return detail::Dispatch<detail::CountGreater>(n, v, n, bound);
}

SLICK_REALTIME inline void SubtractArrays(const double* SLICK_RESTRICT a,
                                          const double* SLICK_RESTRICT b,
                                          double* SLICK_RESTRICT out,
                                          std::size_t n) {
  detail::Dispatch<detail::Subtract>(n, a, b, out, n);
}

}  // namespace kernels

// ------------------------------------------------------------------
// Kernel registrations (the ScanKernel/SurvivorKernel customization
// points declared in ops/traits.h). Same qualification rule as
// BulkKernel: the op's ⊕ must be one of the scan shapes above and an
// identity carry must be ⊕-neutral.
// ------------------------------------------------------------------

#define SLICK_REGISTER_SCAN_KERNEL(OP, TYPE, SUFFIX_FN, PREFIX_FN)          \
  template <>                                                               \
  struct ScanKernel<OP> {                                                   \
    static void Suffix(const TYPE* v, TYPE* out, std::size_t n,             \
                       TYPE carry) {                                        \
      kernels::SUFFIX_FN(v, out, n, carry);                                 \
    }                                                                       \
    static void Prefix(const TYPE* v, TYPE* out, std::size_t n,             \
                       TYPE carry) {                                        \
      kernels::PREFIX_FN(v, out, n, carry);                                 \
    }                                                                       \
  };

SLICK_REGISTER_SCAN_KERNEL(Sum, double, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(SumInt, int64_t, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(SumOfSquares, double, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(Count, int64_t, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(Max, double, SuffixMax, PrefixMax)
SLICK_REGISTER_SCAN_KERNEL(MaxInt, int64_t, SuffixMax, PrefixMax)
SLICK_REGISTER_SCAN_KERNEL(Min, double, SuffixMin, PrefixMin)
SLICK_REGISTER_SCAN_KERNEL(MinInt, int64_t, SuffixMin, PrefixMin)

#undef SLICK_REGISTER_SCAN_KERNEL

#define SLICK_REGISTER_SURVIVOR_KERNEL(OP, TYPE, FN)                        \
  template <>                                                               \
  struct SurvivorKernel<OP> {                                               \
    static TYPE Mask(const TYPE* v, std::size_t n, uint64_t* mask) {        \
      return kernels::FN(v, n, mask);                                       \
    }                                                                       \
  };

SLICK_REGISTER_SURVIVOR_KERNEL(Max, double, MaxSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(MaxInt, int64_t, MaxSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(Min, double, MinSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(MinInt, int64_t, MinSurvivors)

#undef SLICK_REGISTER_SURVIVOR_KERNEL

/// Suffix scan of `n` contiguous values under Op, seeded with `carry`:
/// out[i] = v[i] ⊕ out[i+1], out[n-1] = v[n-1] ⊕ carry. Uses the op's
/// registered scan kernel when one exists; the fallback is the exact
/// sequential recurrence (preserving per-combine order for
/// non-commutative ops). `out` may equal `v` exactly or be disjoint.
template <AggregateOp Op>
SLICK_REALTIME void SuffixScanValues(const typename Op::value_type* v,
                                     typename Op::value_type* out,
                                     std::size_t n,
                                     typename Op::value_type carry) {
  if constexpr (HasScanKernel<Op>) {
    ScanKernel<Op>::Suffix(v, out, n, std::move(carry));
  } else {
    for (std::size_t i = n; i-- > 0;) {
      carry = Op::combine(v[i], carry);
      out[i] = carry;
    }
  }
}

/// Prefix scan: out[i] = out[i-1] ⊕ v[i], out[0] = carry ⊕ v[0].
template <AggregateOp Op>
SLICK_REALTIME void PrefixScanValues(const typename Op::value_type* v,
                                     typename Op::value_type* out,
                                     std::size_t n,
                                     typename Op::value_type carry) {
  if constexpr (HasScanKernel<Op>) {
    ScanKernel<Op>::Prefix(v, out, n, std::move(carry));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      carry = Op::combine(carry, v[i]);
      out[i] = carry;
    }
  }
}

}  // namespace slick::ops
