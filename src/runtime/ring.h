#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "runtime/fault.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/math.h"

namespace slick::runtime {

/// The one parking primitive of every ring (DESIGN.md §7.3): an eventcount
/// over a raw *shared* futex word. Shared, not FUTEX_PRIVATE_FLAG, because
/// ShmRing's peers live in other processes, and a private futex is scoped
/// to one mm; in-process rings use the same call unchanged. Every wait is
/// bounded (50ms), so a wake lost to a crashed peer self-heals into a
/// recheck instead of a hang — parking is an idle-path optimization, never
/// a correctness dependency.
namespace eventcount {

inline constexpr long kWaitBoundNs = 50'000'000;  // self-healing recheck

SLICK_REALTIME_ALLOW(
    "idle-only parking: bounded futex wait, entered only when the ring has "
    "no work for this side — never on the per-tuple path")
inline void WaitBounded(std::atomic<uint32_t>* word, uint32_t expected,
                        std::atomic<uint32_t>* waiters) {
  const timespec ts{.tv_sec = 0, .tv_nsec = kWaitBoundNs};
  // Advertise BEFORE sleeping, seq_cst: pairs with WakeAll's RMW on the
  // same word. Either the waker's RMW comes first and synchronizes with
  // ours, so its event bump precedes the kernel's word==expected check (we
  // don't sleep), or ours comes first and the waker reads it (it issues the
  // wake). A waiter that dies here leaves the count stuck high — that only
  // costs the fast-path skip, never a hang.
  waiters->fetch_add(1, std::memory_order_seq_cst);
  // FUTEX_WAIT without FUTEX_PRIVATE_FLAG: shared across processes.
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
  // relaxed: the decrement publishes nothing — a waker that misses it
  // merely issues one spurious FUTEX_WAKE on an empty queue.
  waiters->fetch_sub(1, std::memory_order_relaxed);
}

SLICK_REALTIME_ALLOW(
    "eventcount wake: the common nobody-parked case is one RMW on the event "
    "word's own line; the futex syscall fires only for real sleepers")
inline void WakeAll(std::atomic<uint32_t>* word,
                    std::atomic<uint32_t>* waiters) {
  // Read the sleeper count with a seq_cst RMW, not a plain load: RMWs on one
  // word are totally ordered, which supplies the StoreLoad edge between the
  // caller's event bump and this read (see WaitBounded) — the edge a
  // release bump followed by a load does not grant, and unlike a fence the
  // thread sanitizer models it. Even a lost race costs at most one
  // kWaitBoundNs recheck, by design.
  if (waiters->fetch_add(0, std::memory_order_seq_cst) == 0) return;
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}

}  // namespace eventcount

/// The cursor/eventcount block every ring shares. In-process rings
/// heap-allocate it; ShmRing places it in its segment (inside ShmControl),
/// so both processes address the one copy. Invariant: head <= claim <= tail
/// (all free-running 64-bit positions), tail - head <= capacity.
struct RingControl {
  /// Release cursor: slots at [0, head) are reusable by producers.
  alignas(64) std::atomic<uint64_t> head;
  /// Producer cursor — published (Cursor protocol) or reserved (Seq/SeqCas).
  alignas(64) std::atomic<uint64_t> tail;
  /// Consumer claim cursor: [head, claim) is claimed but unreleased.
  alignas(64) std::atomic<uint64_t> claim;
  /// Eventcounts for parking (bumped per batch and by close()), each
  /// sharing its cache line with the count of sleepers on it: the waker
  /// reads both together, and the nobody-parked steady state skips the
  /// futex syscall entirely.
  alignas(64) std::atomic<uint32_t> tail_event;
  std::atomic<uint32_t> tail_waiters;  // slick-lint: allow(atomic-alignas)
  alignas(64) std::atomic<uint32_t> head_event;
  std::atomic<uint32_t> head_waiters;  // slick-lint: allow(atomic-alignas)
  /// Written once at shutdown but polled by all sides.
  alignas(64) std::atomic<uint32_t> closed;
  /// Occupancy high-water (telemetry; CAS-max, publishes may race).
  alignas(64) std::atomic<uint64_t> highwater;
};

/// Dead-slot marker of the SeqCas protocol, ORed into a slot's seq word when
/// the slot is sequenced by tombstone repair instead of a producer publish.
/// Folding the mark into the seq word makes the seq CAS the ONE arbitration
/// point for a slot's fate: whoever sequences the slot decides — atomically
/// — whether it is live (pos + 1) or dead ((pos + 1) | kSeqDead). Positions
/// cannot plausibly reach 2^62, so the top bit is free.
inline constexpr uint64_t kSeqDead = uint64_t{1} << 63;

/// Publish protocols (DESIGN.md §7.1). Each is the cheapest one a workload
/// needs; which one runs is chosen only by the ring type instantiated.
///
/// Cursor — one producer: the producer writes slots, then a release store of
/// `tail` publishes them all. Each side caches the peer's cursor, so the hot
/// path touches the shared counter only when the cached view says full
/// (producer) or empty (consumer). No seq array.
struct CursorPublish {
  static constexpr bool kMultiProducer = false;
  static constexpr bool kSeqWords = false;
  static constexpr bool kDeadSlots = false;
  /// Producer-private view of head (only the producer touches it).
  alignas(64) uint64_t head_cache = 0;
  /// Consumer-private view of tail (only the consumer touches it).
  alignas(64) uint64_t tail_cache = 0;
};

/// Seq — any number of producers: a tail CAS reserves a span, and a release
/// store of each slot's seq word (seq[pos & mask] = pos + 1) publishes it,
/// so concurrent reservations publish independently and in any order.
struct SeqPublish {
  static constexpr bool kMultiProducer = true;
  static constexpr bool kSeqWords = true;
  static constexpr bool kDeadSlots = false;
};

/// SeqCas — Seq that survives a producer dying mid-claim: the seq word moves
/// from its previous-lap value by CAS, from exactly one of two writers (the
/// producer publishing pos + 1, or tombstone repair writing
/// (pos + 1) | kSeqDead); the consumer skips dead runs and folds them into
/// its release accounting.
struct SeqCasPublish {
  static constexpr bool kMultiProducer = true;
  static constexpr bool kSeqWords = true;
  static constexpr bool kDeadSlots = true;
  /// Claim-order skip accounting (consumer-private): each entry is either a
  /// run of live claimed slots awaiting release ({0, n}) or a run of
  /// tombstoned slots the claim cursor skipped ({n, 0}). A dead run is
  /// queued only while a live run precedes it unreleased (otherwise head
  /// advances at once), so draining releases retires every entry.
  struct Pending {
    std::size_t dead;
    std::size_t live;
  };
  alignas(64) std::deque<Pending> pending;
};

/// Bounded lock-free ring over a power-of-two slot array indexed by
/// free-running 64-bit cursors (slick_queue lineage; the reserve/publish
/// split is Vyukov's bounded MPMC queue). Everything but the publish step
/// is written once here: capacity rounding, the reserve loop, the consumer
/// claim/release/ResetClaims, the backlog gauges, close-and-settle, the
/// eventcount parking, high-water and fault hooks. SpscRing, MpmcRing and
/// ShmRing are this template over CursorPublish, SeqPublish and
/// SeqCasPublish (tests/ring_conformance_test.cc pins the shared contract).
///
///  * Producer: TryClaimPush(max, *count) hands out a contiguous span
///    (capped at the array wrap); PublishPush(span, count) publishes it —
///    the span pointer names the claim, since with concurrent producers a
///    bare count cannot. Every reserved slot MUST eventually be published
///    (piecewise is fine under Seq/SeqCas); an abandoned reservation wedges
///    the consumer at that position, except under SeqCas, whose lease
///    reaper tombstones it.
///  * Consumer: TryClaimPop hands out [claim, claim + n) and advances claim
///    at once, so sequential claims are disjoint even before any release.
///    ReleasePop advances head, oldest first, and may lag and batch several
///    claims: [head, claim) is the crash replay log, and ResetClaims (at
///    quiescence only) rewinds claim to head to replay it. One releaser.
///  * close() wakes everyone; ClaimPop returns nullptr only once the ring is
///    closed AND settled (every reserved slot published and claimed).
template <typename T, typename Publish>
class RingCore {
 public:
  /// Trait the engine keys producer-handle support on.
  static constexpr bool kMultiProducer = Publish::kMultiProducer;

  /// Heap-backed ring; capacity is rounded up to a power of two.
  explicit RingCore(std::size_t min_capacity)
      : owned_ctl_(std::make_unique<RingControl>()),
        owned_slots_(std::make_unique<T[]>(RoundCapacity(min_capacity))) {
    const std::size_t cap = RoundCapacity(min_capacity);
    if constexpr (kSeqWords) {
      // Value-initialized (all zero) seq words are correct as-is: the
      // published test is the exact equality seq == pos + 1, and zero never
      // matches any pos + 1 a consumer can be waiting on.
      owned_seq_ = std::make_unique<std::atomic<uint64_t>[]>(cap);
    }
    Bind(owned_ctl_.get(), owned_seq_.get(), owned_slots_.get(), cap);
  }

  RingCore(const RingCore&) = delete;
  RingCore& operator=(const RingCore&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Reserved (published or in flight) minus released. Exact only at
  /// quiescence; a concurrent read may overshoot, never wrap.
  std::size_t size() const { return Gap(ctl_->head, ctl_->tail); }
  bool empty() const { return size() == 0; }
  /// Reserved but not yet claimed — the backlog still to aggregate.
  std::size_t unconsumed() const { return Gap(ctl_->claim, ctl_->tail); }
  /// Claimed but not yet released — the replay span a recovery re-drains.
  std::size_t unreleased() const { return Gap(ctl_->head, ctl_->claim); }

  /// Highest occupancy observed at any publish point (an upper bound: it is
  /// measured against the producer's possibly stale view of head).
  std::size_t occupancy_highwater() const {
    // relaxed: monotonic telemetry gauge, no data published through it.
    return static_cast<std::size_t>(
        ctl_->highwater.load(std::memory_order_relaxed));
  }

  // ------------------------------------------------------------------
  // Producer side.
  // ------------------------------------------------------------------

  /// Reserves a contiguous span of up to `max` free slots for in-place
  /// writing, without blocking: returns the span start and sets *count to
  /// its length (capped at the array wrap, so a full claim may take two
  /// calls). Returns nullptr with *count == 0 when the ring is full or
  /// closed. Nothing is visible to the consumer until PublishPush.
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPush(std::size_t max,
                                                 std::size_t* count) {
    *count = 0;
    // relaxed: closed is a monotonic go/no-go flag here — a stale `false`
    // only admits one more span a consumer still drains after close()
    // (ClaimPop settles reservations). Promptness, not correctness.
    if (ctl_->closed.load(std::memory_order_relaxed) != 0) return nullptr;
    // Chaos hook (no-op unless SLICK_FAULT_INJECTION): a spurious "full"
    // exercises every caller's full-ring handling on an arbitrary claim.
    if (fault::Fire(fault::Point::kRingSpuriousFull, fault_lane_)) {
      return nullptr;
    }
    uint64_t pos = 0;
    *count = Reserve(max, &pos, [](uint64_t, std::size_t) { return true; });
    return *count == 0 ? nullptr : slots_ + (pos & mask_);
  }

  /// Publishes `count` slots starting at `span`, a claim (or a piece of one,
  /// in order under Cursor, any order under Seq/SeqCas) that TryClaimPush
  /// returned. One event bump per batch.
  SLICK_REALTIME void PublishPush(T* span, std::size_t count) {
    if (count == 0) return;
    // Chaos hook (no-op unless SLICK_FAULT_INJECTION): stall the publish to
    // widen the claimed-but-unpublished window.
    if (fault::Fire(fault::Point::kPublishDelay, fault_lane_)) {
      fault::InjectDelay();
    }
    const auto idx = static_cast<std::size_t>(span - slots_);
    SLICK_DCHECK(idx <= mask_, "publish span outside the slot array");
    // Recover the free-running position from the slot index: every live
    // reservation lies within one lap of head (the claim bound), and head
    // cannot pass an unpublished reservation, so the position is the unique
    // value in [head, head + capacity) congruent to idx.
    uint64_t head = 0;
    if constexpr (kMultiProducer) {
      // relaxed: any head value between claim time and now yields the same
      // position (lap uniqueness above); no data rides on it.
      head = ctl_->head.load(std::memory_order_relaxed);
    } else {
      head = proto_.head_cache;  // producer-private, <= the true head
    }
    const uint64_t pos = head + ((static_cast<uint64_t>(idx) - head) & mask_);
    UpdateHighwater(pos + count - head);
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (kDeadSlots) {
        // A lease-less publish can only lose to a reaper repairing an
        // overlapping kIntent span (DESIGN.md §17.2); nothing to undo.
        (void)PublishSlot(pos + i);
      } else if constexpr (kSeqWords) {
        // release: publishes the slot's contents; pairs with the consumer's
        // acquire load of the same seq word in TryClaimPop.
        seq_[(pos + i) & mask_].store(pos + i + 1, std::memory_order_release);
      }
    }
    if constexpr (!kSeqWords) {
      // relaxed: the sole producer's own cursor — the publish must start
      // where the last one ended.
      SLICK_DCHECK(pos == ctl_->tail.load(std::memory_order_relaxed),
                   "span-addressed publish must start at the claim cursor");
      // release: publishes the slots' contents; pairs with the consumer's
      // acquire refresh of tail in TryClaimPop.
      ctl_->tail.store(pos + count, std::memory_order_release);
    }
    WakeConsumers();
  }

  /// Copies up to `n` elements from `src` into the ring without blocking.
  /// Returns the number accepted (0 when full or closed) — at most two
  /// claims when the span wraps.
  SLICK_NODISCARD SLICK_REALTIME std::size_t try_push_n(const T* src,
                                                        std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      std::size_t k = 0;
      T* span = TryClaimPush(n - done, &k);
      if (span == nullptr) break;
      for (std::size_t i = 0; i < k; ++i) span[i] = src[done + i];
      PublishPush(span, k);
      done += k;
      // A claim is capped at the array wrap; continue only when this one
      // ended exactly there (a second segment may be free at the front).
      if (span + k != slots_ + capacity()) break;
    }
    return done;
  }

  SLICK_NODISCARD SLICK_REALTIME bool try_push(const T& v) {
    return try_push_n(&v, 1) == 1;
  }

  /// Blocking push: copies all `n` elements, parking when the ring is full
  /// (the runtime's backpressure). Returns the number accepted, which is
  /// `n` unless the ring is closed mid-wait.
  std::size_t push_n(const T* src, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      const std::size_t k = try_push_n(src + done, n - done);
      done += k;
      if (done == n) break;
      if (k == 0) {
        // relaxed: only decides when to give up; WaitForSpace re-checks
        // closed with acquire before parking and close() bumps head_event,
        // so a stale `false` costs one loop, never a missed shutdown.
        if (ctl_->closed.load(std::memory_order_relaxed) != 0) break;
        WaitForSpace();
      }
    }
    return done;
  }

  /// Producers are done: wakes everyone; consumers settle outstanding
  /// reservations, drain, then see ClaimPop return nullptr. Idempotent;
  /// callable from any side during shutdown.
  void close() {
    ctl_->closed.store(1, std::memory_order_release);
    WakeConsumers();
    WakeProducers();
  }

  bool closed() const {
    return ctl_->closed.load(std::memory_order_acquire) != 0;
  }

  /// Names this ring's lane for the fault-injection schedule (the owning
  /// shard index). Set before threads start.
  void set_fault_lane(std::size_t lane) { fault_lane_ = lane; }

  /// Introspection for the deterministic model checker (tests/model/): the
  /// eventcount words the wait paths snapshot, and (below) the exact wake
  /// predicates they recheck before parking, so the step machines replay
  /// the snapshot/recheck/park protocol without approximating it.
  uint32_t tail_event_word() const {
    return ctl_->tail_event.load(std::memory_order_acquire);
  }
  uint32_t head_event_word() const {
    return ctl_->head_event.load(std::memory_order_acquire);
  }

  /// Consumer wake condition: the slot at claim is published (under SeqCas,
  /// live OR dead — either way TryClaimPop progresses), or shutdown has
  /// settled. "Closed with reservations in flight" deliberately does NOT
  /// wake: the waiter stays parked until the in-flight publish bumps
  /// tail_event — the condition ClaimPop's settle check mirrors.
  bool pop_ready_or_settled() const {
    // relaxed: effectively the consumer's own cursor; a stale value only
    // makes the wake conservative by one slot.
    const uint64_t claim = ctl_->claim.load(std::memory_order_relaxed);
    if constexpr (kSeqWords) {
      // acquire: pairs with the publish/tombstone seq release.
      uint64_t seq = seq_[static_cast<std::size_t>(claim) & mask_].load(
          std::memory_order_acquire);
      if constexpr (kDeadSlots) seq &= ~kSeqDead;
      if (seq == claim + 1) return true;
    } else if (ctl_->tail.load(std::memory_order_acquire) != claim) {
      return true;
    }
    if (!closed()) return false;
    return ctl_->tail.load(std::memory_order_acquire) == claim;
  }

  /// Producer wake condition: a free slot exists, or the ring is closed.
  bool push_space_or_closed() const {
    const uint64_t head = ctl_->head.load(std::memory_order_acquire);
    // relaxed: tail here only gates a retry; the reserve loop re-validates
    // it, so a stale read costs one loop, nothing more.
    const uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    return tail - head < capacity() || closed();
  }

  // ------------------------------------------------------------------
  // Consumer side (one logical consumer: the shard worker).
  // ------------------------------------------------------------------

  /// Claims a contiguous span of up to `max` published elements for
  /// in-place reading, without blocking: returns the span start and sets
  /// *count (capped at the array wrap and, under Seq/SeqCas, at the first
  /// unpublished slot). Returns nullptr with *count == 0 when nothing
  /// unclaimed is ready. SeqCas first skips a leading run of dead slots.
  SLICK_NODISCARD SLICK_REALTIME T* TryClaimPop(std::size_t max,
                                                std::size_t* count) {
    *count = 0;
    for (;;) {
      // relaxed: effectively the consumer's own cursor; data visibility
      // rides on the tail/seq acquires in ReadyRun.
      uint64_t claim = ctl_->claim.load(std::memory_order_relaxed);
      std::size_t skip = 0;
      if constexpr (kDeadSlots) {
        // acquire: pairs with the publish/tombstone CAS release stores.
        while (skip < capacity() &&
               seq_[(claim + skip) & mask_].load(std::memory_order_acquire) ==
                   ((claim + skip + 1) | kSeqDead)) {
          ++skip;
        }
        if (skip > 0) {
          if (!AdvanceClaim(claim, skip)) continue;  // lost — rescan
          AccountTombstones(skip);
          claim += skip;
        }
      }
      const std::size_t n = ReadyRun(claim, max);
      if (n == 0) {
        if (skip > 0) continue;  // progressed past a dead run — rescan
        return nullptr;
      }
      if (!AdvanceClaim(claim, n)) continue;  // another claimer won
      if constexpr (kDeadSlots) proto_.pending.push_back({0, n});
      *count = n;
      return slots_ + (claim & mask_);
    }
  }

  /// Returns `count` claimed slots to the producers, oldest first. Releases
  /// may lag claims and may batch several claimed spans into one call.
  /// Under SeqCas, tombstoned positions the claim cursor skipped are folded
  /// in once every live slot claimed before them is released.
  SLICK_REALTIME void ReleasePop(std::size_t count) {
    uint64_t advance = count;
    if constexpr (kDeadSlots) {
      advance = 0;
      auto& pending = proto_.pending;
      while (!pending.empty()) {
        auto& front = pending.front();
        if (front.live == 0) {  // dead run: absorb into the head advance
          advance += front.dead;
          pending.pop_front();
          continue;
        }
        if (count == 0) break;
        const std::size_t take = count < front.live ? count : front.live;
        front.live -= take;
        count -= take;
        advance += take;
        if (front.live != 0) break;
        pending.pop_front();  // the loop absorbs a trailing dead run
      }
      SLICK_DCHECK(count == 0, "ReleasePop past the claimed span");
      advance += count;  // defensive: keep cursors consistent anyway
    }
    if (advance != 0) AdvanceHead(advance);
  }

  /// Rewinds the claim cursor to the release cursor, so every unreleased
  /// element is claimable again — the recovery primitive: the supervisor
  /// restores the aggregator from its last checkpoint (covering [0, head))
  /// and replays [head, tail). Seq words survive releases, so the replay
  /// re-reads published slots (and re-skips dead ones). MUST only run with
  /// no consumer thread live (after join, before respawn).
  void ResetClaims() {
    if constexpr (kDeadSlots) proto_.pending.clear();
    // relaxed: the caller owns the consumer role here, and thread
    // join/spawn order this store against both consumers' accesses.
    ctl_->claim.store(ctl_->head.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }

  /// Blocking claim: returns a non-empty span unless the ring is closed AND
  /// settled, in which case it returns nullptr — the consumer's shutdown
  /// signal. A reservation in flight at close() is waited for (its
  /// publisher bumps the event momentarily, or under SeqCas the reaper
  /// repairs it), never stranded.
  SLICK_NODISCARD T* ClaimPop(std::size_t max, std::size_t* count) {
    while (true) {
      T* span = TryClaimPop(max, count);
      if (span != nullptr) return span;
      if (closed()) {
        // Re-check: elements published before close() must still drain.
        span = TryClaimPop(max, count);
        if (span != nullptr) return span;
        const uint64_t t = ctl_->tail.load(std::memory_order_acquire);
        // relaxed: own cursor (single logical consumer).
        if (t == ctl_->claim.load(std::memory_order_relaxed)) return nullptr;
      }
      WaitForData();
    }
  }

  /// Moves up to `max` elements into `dst` without blocking. Returns the
  /// number popped — at most two claims when the span wraps.
  SLICK_NODISCARD SLICK_REALTIME std::size_t try_pop_n(T* dst,
                                                       std::size_t max) {
    std::size_t done = 0;
    while (done < max) {
      std::size_t k = 0;
      T* span = TryClaimPop(max - done, &k);
      if (span == nullptr) break;
      for (std::size_t i = 0; i < k; ++i) dst[done + i] = std::move(span[i]);
      ReleasePop(k);
      done += k;
      // A claim is capped at the array wrap; continue only when this one
      // ended exactly there (a second segment may be ready at the front).
      if (span + k != slots_ + capacity()) break;
    }
    return done;
  }

  /// Blocking pop: returns at least one element unless the ring is closed
  /// and settled, in which case it returns 0.
  std::size_t pop_n(T* dst, std::size_t max) {
    std::size_t k = 0;
    T* span = ClaimPop(max, &k);
    if (span == nullptr) return 0;
    for (std::size_t i = 0; i < k; ++i) dst[i] = std::move(span[i]);
    ReleasePop(k);
    return k;
  }

 protected:
  static constexpr bool kSeqWords = Publish::kSeqWords;
  static constexpr bool kDeadSlots = Publish::kDeadSlots;

  static std::size_t RoundCapacity(std::size_t min_capacity) {
    return std::size_t{1} << util::CeilLog2(min_capacity < 2 ? 2
                                                             : min_capacity);
  }

  /// Unbound ring for ShmRing, which Binds pointers into its segment.
  RingCore() = default;

  void Bind(RingControl* ctl, std::atomic<uint64_t>* seq, T* slots,
            std::size_t capacity) {
    ctl_ = ctl;
    seq_ = seq;
    slots_ = slots;
    mask_ = capacity - 1;
  }

  /// The reserve loop every producer runs: bound check against head, wrap
  /// cap, stale-tail re-read, then (multi-producer) the tail CAS. Returns
  /// the span length with its position in *pos, or 0 when full or when
  /// `pre(tail, n)` vetoes — the hook runs before each commit attempt
  /// (LeaseProducer records its intent there).
  template <typename PreCommit>
  SLICK_REALTIME std::size_t Reserve(std::size_t max, uint64_t* pos,
                                     PreCommit&& pre) {
    // relaxed: a first guess the CAS re-validates (Cursor: the sole
    // producer's own cursor). A stale value costs one retry.
    uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t used = tail - ProducerHeadView(tail, max);
      if (used >= capacity()) {
        // Full — unless our tail view is stale (another producer moved it
        // past the head we just read, so `used` overshoots). Re-read once:
        // a genuinely full ring shows a stable tail.
        // relaxed: same as the first guess — the CAS re-validates.
        const uint64_t fresh = ctl_->tail.load(std::memory_order_relaxed);
        if (fresh == tail) return 0;
        tail = fresh;
        continue;
      }
      const std::size_t n =
          SpanLength(tail, max, capacity() - static_cast<std::size_t>(used));
      if (!pre(tail, n)) return 0;
      if constexpr (kMultiProducer) {
        // relaxed: the reservation carries no payload — overwrite safety
        // came from the head acquire (sequenced before every later slot
        // store), and publication is the per-slot seq release. Failure
        // reloads tail for the retry.
        if (!ctl_->tail.compare_exchange_weak(tail, tail + n,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed)) {
          continue;
        }
      }
      *pos = tail;
      return n;
    }
  }

  /// SeqCas slot sequencing: CAS the seq word from its previous-lap value
  /// (pos + 1 - capacity, possibly dead-marked, or 0 on the first lap) to
  /// `desired`. Exactly one of {producer publishing pos + 1, repair writing
  /// (pos + 1) | kSeqDead} wins each slot; returns whether WE did.
  SLICK_REALTIME bool SequenceSlot(uint64_t pos, uint64_t desired) {
    static_assert(kDeadSlots, "slot CAS sequencing is the SeqCas protocol");
    const std::size_t idx = static_cast<std::size_t>(pos) & mask_;
    uint64_t expected = pos >= capacity() ? pos + 1 - capacity() : 0;
    // release on success: publishes the slot's contents (or the dead
    // verdict); pairs with the consumer's seq acquire. acquire on failure:
    // see who beat us (for a producer, the failure proves the fence: the
    // repair CAS release-published the epoch bump before it).
    if (seq_[idx].compare_exchange_strong(expected, desired,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
      return true;
    }
    // The previous lap may have ended tombstoned: its seq value then
    // carries the dead mark. Retry against that variant once.
    if (pos < capacity() ||
        expected != ((pos + 1 - capacity()) | kSeqDead)) {
      return false;
    }
    return seq_[idx].compare_exchange_strong(expected, desired,
                                             std::memory_order_release,
                                             std::memory_order_acquire);
  }

  SLICK_REALTIME bool PublishSlot(uint64_t pos) {
    return SequenceSlot(pos, pos + 1);
  }

  SLICK_REALTIME void UpdateHighwater(uint64_t occupancy) {
    // relaxed CAS-max: monotonic gauge, reporting only.
    uint64_t hw = ctl_->highwater.load(std::memory_order_relaxed);
    while (occupancy > hw &&
           !ctl_->highwater.compare_exchange_weak(hw, occupancy,
                                                  std::memory_order_relaxed,
                                                  std::memory_order_relaxed)) {
    }
  }

  /// Bumps the data-arrived eventcount (release: orders the preceding
  /// cursor/seq stores before the bump a waiter snapshots) and wakes any
  /// parked consumer.
  SLICK_REALTIME void WakeConsumers() {
    ctl_->tail_event.fetch_add(1, std::memory_order_release);
    eventcount::WakeAll(&ctl_->tail_event, &ctl_->tail_waiters);
  }

  /// Bumps the space-freed eventcount and wakes any parked producer.
  SLICK_REALTIME void WakeProducers() {
    ctl_->head_event.fetch_add(1, std::memory_order_release);
    eventcount::WakeAll(&ctl_->head_event, &ctl_->head_waiters);
  }

  // Read-only once bound: the shared block, the per-slot publication words
  // (Seq/SeqCas; null under Cursor) and the slots. The seq words are
  // deliberately dense, not one per cache line: padding would multiply the
  // footprint 8x, and neighbouring-slot sharing only costs on adjacent
  // publishes.
  RingControl* ctl_ = nullptr;
  std::atomic<uint64_t>* seq_ = nullptr;  // slick-lint: allow(atomic-alignas)
  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  // Fault-injection lane id (shard index); written once before threads
  // start, read only inside fault::Fire hooks.
  std::size_t fault_lane_ = 0;
  // Protocol-private state (Cursor's cached peer cursors, SeqCas's skip
  // accounting), on its own cache lines.
  Publish proto_;

 private:
  /// b - a for two cursors with a <= b, reading the trailing cursor `a`
  /// FIRST: the acquire keeps the second load from being hoisted above it,
  /// so a cursor advancing between the loads can only make the difference
  /// read high. Leading-first lets the trailing cursor pass the stale
  /// leading value and wraps the unsigned subtraction to ~2^64.
  static std::size_t Gap(const std::atomic<uint64_t>& a,
                         const std::atomic<uint64_t>& b) {
    const uint64_t lo = a.load(std::memory_order_acquire);
    const uint64_t hi = b.load(std::memory_order_acquire);
    return static_cast<std::size_t>(hi - lo);
  }

  /// min(max, avail), capped at the array wrap from `pos`.
  std::size_t SpanLength(uint64_t pos, std::size_t max,
                         std::size_t avail) const {
    const std::size_t n = max < avail ? max : avail;
    const std::size_t to_wrap =
        capacity() - (static_cast<std::size_t>(pos) & mask_);
    return n < to_wrap ? n : to_wrap;
  }

  /// The head a producer bounds its reservation by. acquire: pairs with
  /// AdvanceHead's release store, so released slots are safe to overwrite.
  /// Cursor refreshes its cached copy only when the cache says too full.
  uint64_t ProducerHeadView(uint64_t tail, std::size_t max) {
    if constexpr (kMultiProducer) {
      return ctl_->head.load(std::memory_order_acquire);
    } else {
      if (capacity() - static_cast<std::size_t>(tail - proto_.head_cache) <
          max) {
        proto_.head_cache = ctl_->head.load(std::memory_order_acquire);
      }
      return proto_.head_cache;
    }
  }

  /// Length of the claimable run at `claim` (capped at max and the wrap).
  std::size_t ReadyRun(uint64_t claim, std::size_t max) {
    if constexpr (!kSeqWords) {
      if (proto_.tail_cache == claim) {
        // acquire: pairs with PublishPush's tail release store, so the
        // published slots' contents are visible before we read them.
        proto_.tail_cache = ctl_->tail.load(std::memory_order_acquire);
      }
      return SpanLength(claim, max,
                        static_cast<std::size_t>(proto_.tail_cache - claim));
    } else {
      const std::size_t idx = static_cast<std::size_t>(claim) & mask_;
      const std::size_t limit = SpanLength(claim, max, capacity());
      std::size_t n = 0;
      // Walk the published prefix. acquire: pairs with the publisher's seq
      // release, making the slot's contents visible before we hand it out.
      // A dead-marked slot fails the equality too, ending the run there.
      while (n < limit &&
             seq_[idx + n].load(std::memory_order_acquire) == claim + n + 1) {
        ++n;
      }
      return n;
    }
  }

  /// Moves the claim cursor from `claim` past `n` slots; false when another
  /// claimer moved it first. release: orders the tail/seq reads that
  /// bounded this claim before it, so a gauge that acquires claim never
  /// sees a tail older than the claim (the no-wrap argument of Gap).
  bool AdvanceClaim(uint64_t claim, std::size_t n) {
    if constexpr (kMultiProducer) {
      // relaxed failure: nothing was handed out; the caller rescans.
      return ctl_->claim.compare_exchange_strong(claim, claim + n,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed);
    } else {
      ctl_->claim.store(claim + n, std::memory_order_release);
      return true;
    }
  }

  /// Releases `advance` slots: hands them back to the producers and wakes
  /// any producer parked on a full ring.
  SLICK_REALTIME void AdvanceHead(uint64_t advance) {
    // relaxed: head is the releaser's own cursor (single releaser).
    const uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    // relaxed: own-side cursor, DCHECK only — never release past a claim.
    SLICK_DCHECK(head + advance <= ctl_->claim.load(std::memory_order_relaxed),
                 "ReleasePop past the claim cursor");
    // release: pairs with the producers' head acquire in the reserve loop,
    // so no producer overwrites a slot the consumer is still reading.
    ctl_->head.store(head + advance, std::memory_order_release);
    WakeProducers();
  }

  /// The claim cursor moved past `skip` tombstoned slots: advance head at
  /// once when nothing live awaits release (the common caught-up case), or
  /// queue the skip behind the unreleased live runs so the eventual release
  /// folds it in, in claim order.
  SLICK_REALTIME void AccountTombstones(std::size_t skip) {
    auto& pending = proto_.pending;
    if (pending.empty()) {
      AdvanceHead(skip);
    } else if (pending.back().live == 0) {
      pending.back().dead += skip;
    } else {
      pending.push_back({skip, 0});
    }
  }

  // Briefly spin/yield, then park on the eventcount. The snapshot/recheck
  // ordering makes the park race-free: if the peer makes progress after our
  // recheck, its event bump differs from `e` and the wait returns at once.
  template <typename Ready>
  SLICK_REALTIME_ALLOW(
      "idle-only parking: spin-then-eventcount wait, entered only when the "
      "ring has nothing for this side — never on the per-tuple path")
  void Park(Ready ready, std::atomic<uint32_t>* event,
            std::atomic<uint32_t>* waiters) const {
    for (int i = 0; i < kSpinYields; ++i) {
      if (ready()) return;
      std::this_thread::yield();
    }
    const uint32_t e = event->load(std::memory_order_acquire);
    if (ready()) return;
    eventcount::WaitBounded(event, e, waiters);
  }

  void WaitForData() {
    Park([this] { return pop_ready_or_settled(); }, &ctl_->tail_event,
         &ctl_->tail_waiters);
  }

  void WaitForSpace() {
    Park([this] { return push_space_or_closed(); }, &ctl_->head_event,
         &ctl_->head_waiters);
  }

  // On an oversubscribed host a yield hands the core to the peer almost for
  // free, so only a few attempts before parking.
  static constexpr int kSpinYields = 4;

  // Heap storage of in-process rings (all null when ShmRing binds its
  // segment); ctl_/seq_/slots_ point into it either way.
  std::unique_ptr<RingControl> owned_ctl_;
  std::unique_ptr<std::atomic<uint64_t>[]> owned_seq_;
  std::unique_ptr<T[]> owned_slots_;
};

}  // namespace slick::runtime
