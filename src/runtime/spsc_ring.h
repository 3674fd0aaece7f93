#pragma once

#include "runtime/ring.h"

namespace slick::runtime {

/// Bounded lock-free single-producer/single-consumer ring — the inter-thread
/// channel of the parallel sharded runtime (router thread → shard worker).
/// The ring core (runtime/ring.h) over the Cursor publish protocol: one
/// release store of the tail cursor publishes a whole batch, and each side
/// keeps a cached copy of the other side's cursor, so the hot path usually
/// runs on thread-local state. Exactly one producer thread at a time.
/// A named class rather than an alias, so diagnostics and test names
/// print `SpscRing<T>` instead of the core's policy spelling.
template <typename T>
class SpscRing : public RingCore<T, CursorPublish> {
 public:
  using RingCore<T, CursorPublish>::RingCore;
};

}  // namespace slick::runtime
