#pragma once

// Contiguous fold kernels for the batch ingestion path (DESIGN.md §11).
//
// Each kernel computes an identity-seeded fold of a contiguous value array
// under one ⊕. The scalar form is a restrict-qualified loop the compiler
// can auto-vectorize; behind SLICK_SIMD, the one generic-vector body in
// Fold::Vector is also instantiated per ISA level (ops/simd_vec.h) and
// selected through the cached runtime dispatch in ops/simd_dispatch.h, so
// one binary runs everywhere and uses the widest path the host has.
//
// Exactness contract: the integer kernels (FoldAdd/FoldMax/FoldMin over
// int64) and the min/max kernels are bit-identical to the sequential
// combine fold regardless of dispatch — addition on int64 wraps
// associatively and min/max are idempotent-associative. The
// floating-point *sum* kernels reassociate (lane-parallel partial sums),
// so their results are ULP-bounded relative to the sequential fold, not
// bit-equal; within one level they are deterministic and pinned bit for
// bit (kernels_test.cc pins all three guarantees).
//
// BulkKernel<Op> (declared in ops/traits.h) maps ops onto kernels; the
// generic FoldValues<Op> falls back to a plain combine loop for everything
// without a registered kernel, so counting wrappers and holistic ops keep
// their exact per-combine semantics. The structural scan kernels (flip,
// staircase, multi-query walk) live in ops/scan_kernels.h.

#include <cstddef>
#include <cstdint>

#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/simd_dispatch.h"
#include "ops/simd_vec.h"
#include "ops/traits.h"
#include "util/annotations.h"

namespace slick::ops {
namespace kernels {
namespace detail {

/// Identity-seeded fold acc = acc ⊕ v[i] over a contiguous batch.
template <typename Op, typename T>
struct Fold {
  // SLICK_RESTRICT promises the input does not alias any store the caller
  // makes, which is what lets -O2 unroll and vectorize this loop even
  // without the explicit wide variant.
  SLICK_REALTIME static T Scalar(const T* SLICK_RESTRICT v, std::size_t n) {
    T acc = Op::template kIdentity<T>;
    for (std::size_t i = 0; i < n; ++i) Op::Into(acc, v[i]);
    return acc;
  }

  // W lane accumulators over the whole blocks, one horizontal reduction,
  // then the tail folded in order.
  template <int W>
  static T Vector(const T* SLICK_RESTRICT v, std::size_t n) {
    Vec<T, W> acc{}, x{};
    Splat(acc, Op::template kIdentity<T>);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      Load(x, v + i);
      Op::Into(acc, x);
    }
    T r = Reduce<Op, T>(acc);
    for (; i < n; ++i) Op::Into(r, v[i]);
    return r;
  }
};

}  // namespace detail

template <detail::Lane T>
SLICK_REALTIME inline T FoldAdd(const T* SLICK_RESTRICT v, std::size_t n) {
  return detail::Dispatch<detail::Fold<detail::AddOp, T>>(n, v, n);
}

template <detail::Lane T>
SLICK_REALTIME inline T FoldMax(const T* SLICK_RESTRICT v, std::size_t n) {
  return detail::Dispatch<detail::Fold<detail::MaxOp, T>>(n, v, n);
}

template <detail::Lane T>
SLICK_REALTIME inline T FoldMin(const T* SLICK_RESTRICT v, std::size_t n) {
  return detail::Dispatch<detail::Fold<detail::MinOp, T>>(n, v, n);
}

}  // namespace kernels

// ------------------------------------------------------------------
// Kernel registrations. An op qualifies when its ⊕ over value_type is one
// of the fold shapes above AND an identity-seeded fold equals the kernel's
// result (true for these: + seeded with 0, min/max seeded with ±∞/INT_MIN).
// ------------------------------------------------------------------

template <>
struct BulkKernel<Sum> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<SumInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<SumOfSquares> {
  // value_type carries already-lifted squares, so the fold is a plain add.
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<Count> {
  // Partials are lifted 1s (or merged counts); still an integer sum.
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<Max> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldMax(v, n);
  }
};

template <>
struct BulkKernel<MaxInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldMax(v, n);
  }
};

template <>
struct BulkKernel<Min> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldMin(v, n);
  }
};

template <>
struct BulkKernel<MinInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldMin(v, n);
  }
};

/// Identity-seeded fold of `n` contiguous partials under Op: the op's
/// registered vector kernel when one exists, a plain combine loop
/// otherwise. n == 0 yields Op::identity(). This is the single entry point
/// the aggregators' batch fast paths fold through.
template <AggregateOp Op>
typename Op::value_type FoldValues(const typename Op::value_type* v,
                                   std::size_t n) {
  if constexpr (HasBulkKernel<Op>) {
    return BulkKernel<Op>::Fold(v, n);
  } else {
    typename Op::value_type acc = Op::identity();
    for (std::size_t i = 0; i < n; ++i) acc = Op::combine(acc, v[i]);
    return acc;
  }
}

}  // namespace slick::ops
