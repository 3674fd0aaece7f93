#pragma once

#include "runtime/ring.h"

namespace slick::runtime {

/// Bounded lock-free multi-producer ring — the ingress channel that lets N
/// producer threads (or the TCP front door's event loops) feed a shard
/// directly, with no router hop. The ring core (runtime/ring.h) over the
/// Seq publish protocol: producers CAS the shared tail to reserve a span,
/// write it, then publish each slot with a release store of its sequence
/// word, so concurrent claims publish independently and in any order.
/// A named class rather than an alias, so diagnostics and test names
/// print `MpmcRing<T>` instead of the core's policy spelling.
template <typename T>
class MpmcRing : public RingCore<T, SeqPublish> {
 public:
  using RingCore<T, SeqPublish>::RingCore;
};

}  // namespace slick::runtime
