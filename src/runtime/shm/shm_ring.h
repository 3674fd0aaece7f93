#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/fault.h"
#include "runtime/ring.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/serde.h"
#include "util/shm.h"

namespace slick::runtime {

/// In-flight claim state a lease record advertises (DESIGN.md §17 lease
/// state machine). The distinction carries *crash attribution*: kOwned
/// means the producer's tail CAS landed, so the recorded span is certainly
/// and exclusively its property and the reaper may repair it immediately;
/// kIntent means the producer recorded the span it was *about* to CAS for
/// — the CAS may have lost (the span could belong to someone else) or
/// never executed, so the reaper grants a grace period and skips positions
/// claimed by other live leases before repairing.
enum class LeaseSpan : uint64_t {
  kIdle = 0,    ///< no claim in flight
  kIntent = 1,  ///< span recorded, tail CAS outcome unknown
  kOwned = 2,   ///< tail CAS landed: span is exclusively this lease's
};

/// One producer's lease record, resident in the shared segment. pid == 0
/// means the row is free. The epoch counter is the fence: a producer
/// caches it at attach and re-validates before every publish CAS; the
/// reaper bumps it before repairing, so a zombie resuming after a reap
/// observes the mismatch and stands down (and its per-slot publish CASes
/// lose to the reaper's tombstone sequencing even inside the re-validation
/// window). Heartbeats are CLOCK_MONOTONIC nanoseconds — comparable
/// system-wide across processes, immune to wall-clock steps.
struct alignas(64) ShmLease {
  std::atomic<uint64_t> pid;           ///< 0 = free row
  std::atomic<uint64_t> epoch;         ///< fence counter; bumped at reap
  std::atomic<uint64_t> heartbeat_ns;  ///< last refresh (monotonic ns)
  std::atomic<uint64_t> span_begin;    ///< in-flight claim [begin, end)
  std::atomic<uint64_t> span_end;
  std::atomic<uint64_t> span_state;    ///< LeaseSpan
  std::atomic<uint64_t> fenced_at_ns;  ///< 0 = not fenced; set by reaper
};
static_assert(sizeof(ShmLease) == 64, "one lease per cache line");

/// The segment's shared control block: the ring core's cursor/eventcount
/// block, followed by the reaper telemetry trio — reaper-written,
/// snapshot-read; they share one padded line because only the (rare) reap
/// path writes them.
struct ShmControl {
  RingControl ring;
  alignas(64) std::atomic<uint64_t> leases_reclaimed;
  std::atomic<uint64_t> slots_tombstoned;  // slick-lint: allow(atomic-alignas)
  std::atomic<uint64_t> zombie_fences;     // slick-lint: allow(atomic-alignas)
};

/// Versioned, CRC'd segment header. layout_hash folds in every quantity
/// the compiled-in ring geometry depends on (slot size/alignment, struct
/// sizes, counts), so an attacher built against a different slot type or
/// struct revision is rejected instead of silently reinterpreting memory.
struct ShmHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t layout_hash;
  uint64_t capacity;
  uint64_t max_producers;
  uint64_t slot_size;
  uint64_t slot_align;
  uint64_t total_bytes;
  uint32_t header_crc;  ///< CRC-32 over the fields above, in order
  /// 0 while the creator initializes; 1 (release) once every cursor, seq
  /// word and lease row is constructed. Attachers acquire-spin on it.
  std::atomic<uint32_t> ready;  // slick-lint: allow(atomic-alignas)
};

inline constexpr uint32_t kShmMagic = 0x4D485353u;  // "SSHM"
inline constexpr uint32_t kShmVersion = 2;

/// Byte offsets of the segment's regions. Header, control and lease
/// offsets are independent of the slot type, which is what lets the
/// non-template InspectShmSegment() read cursors and leases from any
/// slick segment without knowing T.
struct ShmLayout {
  std::size_t control_off;
  std::size_t lease_off;
  std::size_t seq_off;
  std::size_t slot_off;
  std::size_t total_bytes;
};

inline constexpr std::size_t ShmAlignUp(std::size_t x, std::size_t a) {
  return (x + a - 1) & ~(a - 1);
}

inline constexpr ShmLayout ComputeShmLayout(std::size_t capacity,
                                            std::size_t max_producers,
                                            std::size_t slot_size,
                                            std::size_t slot_align) {
  ShmLayout l{};
  l.control_off = ShmAlignUp(sizeof(ShmHeader), 64);
  l.lease_off = ShmAlignUp(l.control_off + sizeof(ShmControl), 64);
  l.seq_off =
      ShmAlignUp(l.lease_off + max_producers * sizeof(ShmLease), 64);
  l.slot_off = ShmAlignUp(
      l.seq_off + capacity * sizeof(std::atomic<uint64_t>),
      slot_align > 64 ? slot_align : 64);
  l.total_bytes = ShmAlignUp(l.slot_off + capacity * slot_size, 4096);
  return l;
}

/// FNV-style fold of the geometry quantities into the header's layout
/// hash. Not cryptographic — it only needs to make accidental mismatches
/// (different T, different struct revision) collide with ~zero odds.
inline constexpr uint64_t ShmLayoutHash(std::size_t capacity,
                                        std::size_t max_producers,
                                        std::size_t slot_size,
                                        std::size_t slot_align) {
  uint64_t h = 0xCBF29CE484222325ull ^ (uint64_t{kShmVersion} << 32);
  const uint64_t parts[] = {capacity,  max_producers,      slot_size,
                            slot_align, sizeof(ShmControl), sizeof(ShmLease)};
  for (const uint64_t v : parts) {
    h ^= v;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// CRC of the header's plain fields, computed over a packed serialization
/// so it never depends on struct padding (and needs no offsetof on a type
/// holding an atomic).
inline uint32_t ShmHeaderCrc(const ShmHeader& h) {
  char buf[2 * sizeof(uint32_t) + 6 * sizeof(uint64_t)];
  char* p = buf;
  auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(h.magic);
  put(h.version);
  put(h.layout_hash);
  put(h.capacity);
  put(h.max_producers);
  put(h.slot_size);
  put(h.slot_align);
  put(h.total_bytes);
  return util::Crc32(std::string_view(buf, sizeof(buf)));
}

/// Reaper repair counts: per reap pass (ReapExpiredLeases) or lifetime
/// totals accumulated in the segment (lease_stats); what Supervise() folds
/// into RuntimeSnapshot.
struct ShmLeaseStats {
  uint64_t leases_reclaimed = 0;
  uint64_t slots_tombstoned = 0;
  uint64_t zombie_fences = 0;
};

/// Crash-robust shared-memory ring (DESIGN.md §17): the ring core over the
/// SeqCas publish protocol (runtime/ring.h), with its control block, seq
/// words and slots bound into a POSIX shm segment, plus the machinery that
/// makes "a producer is a separate process that can be SIGKILL'd mid-claim"
/// survivable instead of a consumer wedge:
///
///  * **Sequencing is a CAS, not a store.** A slot's seq word moves from
///    its previous-lap value to its this-lap value by compare-exchange,
///    from exactly one of two writers: the owning producer publishing it
///    live (pos + 1), or tombstone repair marking it dead
///    ((pos + 1) | kSeqDead). Whichever CAS lands first decides the
///    slot's fate — atomically and finally; the loser's CAS fails
///    harmlessly and its failure-order acquire shows it the verdict. A
///    lap-late zombie can never regress a seq word.
///  * **Tombstones ARE seq values.** Because live/dead is a property of
///    the one seq word, a published slot can never be retroactively
///    killed: a producer whose publish CAS won KNOWS the slot will be
///    consumed, which is what makes LeaseProducer::PublishClaimed's
///    `landed` count exact. The consumer skips dead slots — claim
///    advances past them, release accounting folds them into head —
///    instead of wedging on a hole.
///  * **Leases + reaper** (ShmLease above, ReapExpiredLeases below) give
///    the consumer side the authority to decide a producer is gone and
///    repair its in-flight span.
///
/// The ring API is the core's, pinned by the conformance suite: ShardWorker
/// drains, supervised-recovery ResetClaims replay, and lease-less
/// in-process producer threads all run unchanged over this ring.
template <typename T>
class ShmRing : public RingCore<T, SeqCasPublish> {
  static_assert(std::is_trivially_copyable_v<T>,
                "shm slots cross process boundaries as raw bytes");
  using Core = RingCore<T, SeqCasPublish>;

 public:
  /// Trait marking cross-process residency (conformance suite naming,
  /// engine reaper detection).
  static constexpr bool kShared = true;

  static constexpr std::size_t kDefaultMaxProducers = 16;

  /// Engine-owned ring: a fresh anonymous segment (unlinked at birth, see
  /// util::ShmMapping::CreateAnonymous) sized for `min_capacity` slots
  /// rounded up to a power of two. fork() children inherit the mapping,
  /// which is how the chaos suite's producer processes reach it.
  explicit ShmRing(std::size_t min_capacity,
                   std::size_t max_producers = kDefaultMaxProducers)
      : ShmRing(util::ShmMapping::CreateAnonymous(BytesFor(
                    min_capacity, max_producers)),
                min_capacity, max_producers) {}

  /// Named ring: linked in /dev/shm until this (owning) ring is destroyed,
  /// so unrelated processes can attach by name.
  ShmRing(const std::string& name, std::size_t min_capacity,
          std::size_t max_producers = kDefaultMaxProducers)
      : ShmRing(util::ShmMapping::CreateNamed(
                    name, BytesFor(min_capacity, max_producers)),
                min_capacity, max_producers) {}

  /// Attaches to an existing named segment created by another process.
  /// Validates magic, version, CRC and the layout hash against THIS
  /// compiled slot type before touching anything else.
  explicit ShmRing(const std::string& name)
      : map_(util::ShmMapping::OpenNamed(name, /*read_only=*/false)) {
    SLICK_CHECK(map_.valid(), "shm attach failed");
    auto* hdr = static_cast<ShmHeader*>(map_.data());
    SLICK_CHECK(map_.size() >= sizeof(ShmHeader), "shm segment truncated");
    // Bounded acquire-spin on the creator's ready flag: pairs with the
    // release store at the end of Init(), after which every field below
    // is immutable (header) or a constructed atomic.
    for (int spin = 0;
         hdr->ready.load(std::memory_order_acquire) == 0; ++spin) {
      SLICK_CHECK(spin < 100000, "shm segment never became ready");
      std::this_thread::yield();
    }
    SLICK_CHECK(hdr->magic == kShmMagic, "shm segment: bad magic");
    SLICK_CHECK(hdr->version == kShmVersion, "shm segment: bad version");
    SLICK_CHECK(hdr->header_crc == ShmHeaderCrc(*hdr),
                "shm segment: header CRC mismatch");
    SLICK_CHECK(hdr->layout_hash ==
                    ShmLayoutHash(static_cast<std::size_t>(hdr->capacity),
                                  static_cast<std::size_t>(hdr->max_producers),
                                  sizeof(T), alignof(T)),
                "shm segment: layout hash mismatch (different slot type "
                "or struct revision)");
    SLICK_CHECK(hdr->total_bytes <= map_.size(), "shm segment truncated");
    BindPointers();
  }

  std::size_t max_producers() const {
    return static_cast<std::size_t>(hdr_->max_producers);
  }
  /// The /dev/shm name for named segments; empty for anonymous ones.
  const std::string& name() const { return map_.name(); }

  /// Lifetime reaper telemetry (leases reclaimed, slots tombstoned,
  /// zombie fences) accumulated in the segment.
  ShmLeaseStats lease_stats() const {
    // relaxed: reporting counters, read at sampling points.
    return ShmLeaseStats{
        shm_->leases_reclaimed.load(std::memory_order_relaxed),
        shm_->slots_tombstoned.load(std::memory_order_relaxed),
        shm_->zombie_fences.load(std::memory_order_relaxed)};
  }

  // ------------------------------------------------------------------
  // Lease layer — cross-process producers. A LeaseProducer wraps the
  // core's reserve loop and slot sequencing with the lease protocol:
  // record intent, CAS, mark owned, heartbeat, epoch-gate every publish.
  // Its fault hooks are where the chaos suite SIGKILLs the producer
  // process. (Lease-less in-process producers use the core's
  // TryClaimPush/PublishPush directly.)
  // ------------------------------------------------------------------

  class LeaseProducer {
   public:
    enum class Result : uint8_t { kOk, kFull, kFenced, kClosed };

    LeaseProducer() = default;
    LeaseProducer(const LeaseProducer&) = delete;
    LeaseProducer& operator=(const LeaseProducer&) = delete;
    LeaseProducer(LeaseProducer&& other) noexcept
        : ring_(std::exchange(other.ring_, nullptr)),
          lease_(std::exchange(other.lease_, nullptr)),
          my_pid_(other.my_pid_),
          epoch_at_attach_(other.epoch_at_attach_),
          claim_pos_(other.claim_pos_),
          claim_len_(other.claim_len_),
          stalled_(other.stalled_) {}
    ~LeaseProducer() { Detach(); }

    bool valid() const { return ring_ != nullptr; }

    /// Whether the reaper has fenced this lease (or handed the row to a
    /// new holder). A fenced producer must stop publishing and re-attach.
    bool Fenced() const {
      // acquire: pairs with the reaper's epoch fetch_add — a bumped
      // epoch means repair may already be underway.
      return lease_->epoch.load(std::memory_order_acquire) !=
                 epoch_at_attach_ ||
             lease_->pid.load(std::memory_order_acquire) != my_pid_;
    }

    /// Reserves up to `max` slots through the core's reserve loop,
    /// recording the claim in the lease BEFORE each tail CAS attempt so a
    /// crash at any instruction is attributable: kIntent while the CAS
    /// outcome is unknown, kOwned once it landed.
    SLICK_NODISCARD Result TryBeginClaim(std::size_t max,
                                         std::size_t* claimed) {
      *claimed = 0;
      SLICK_DCHECK(claim_len_ == 0, "previous claim not yet published");
      if (ring_->closed()) return Result::kClosed;
      if (Fenced()) return Result::kFenced;
      bool fenced = false;
      bool first_attempt = true;
      uint64_t tail = 0;
      const std::size_t n =
          ring_->Reserve(max, &tail, [&](uint64_t pos, std::size_t k) {
            // Re-checked before EVERY attempt's intent stores: a producer
            // that stalled long enough to be fenced mid-loop must not
            // rewrite span state into a lease row the reaper may already
            // have reclaimed (and a new holder re-taken).
            if (Fenced()) {
              fenced = true;
              return false;
            }
            // relaxed span stores sequenced before the span_state release:
            // the reaper reads state first (acquire), then trusts bounds.
            lease_->span_begin.store(pos, std::memory_order_relaxed);
            lease_->span_end.store(pos + k, std::memory_order_relaxed);
            lease_->span_state.store(
                static_cast<uint64_t>(LeaseSpan::kIntent),
                std::memory_order_release);
            // Crash with intent recorded but the CAS outcome unknown — the
            // reaper must take the grace-wait branch for this lease. Fired
            // once per claim so chaos kill ordinals stay stable across CAS
            // retries.
            if (std::exchange(first_attempt, false) &&
                fault::Fire(fault::Point::kShmDieBeforeClaim,
                            ring_->fault_lane_)) {
              fault::DieHard();
            }
            return true;
          });
      if (fenced) return Result::kFenced;
      if (n == 0) return Result::kFull;
      // Dekker pairing with the reaper (its seq_cst fence sits between the
      // epoch bump and the span/tail reads): if the reaper's repair read
      // tail BEFORE our CAS landed — and so skipped [tail, tail + n) as
      // never-claimed — this fence guarantees the Fenced() load below
      // observes the bump, so the span is never stranded outside every
      // repair.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (Fenced()) {
        // The CAS landed, so the span is exclusively ours — but the lease
        // row no longer is: the reaper fenced us between the intent record
        // and here, and may already have reclaimed the row or handed it to
        // a new producer. Publishing is forbidden and the span can be
        // recorded in no lease, so repair it ourselves, exactly as the
        // reaper would, and wake the consumer off the hole. Without this
        // the reservation would be a permanently unsequenced hole no reap
        // pass can see.
        uint64_t dead = 0;
        for (uint64_t pos = tail; pos < tail + n; ++pos) {
          if (ring_->TombstoneSlot(pos)) ++dead;
        }
        // relaxed: monotonic telemetry counter.
        ring_->shm_->slots_tombstoned.fetch_add(dead,
                                                std::memory_order_relaxed);
        ring_->WakeConsumers();
        return Result::kFenced;
      }
      // The span is now certainly ours: upgrade the attribution. No
      // heartbeat here: attach seeded one and every publish refreshes it,
      // so claim-time staleness is already bounded by the last publish —
      // and clock_gettime is a third of the whole lease overhead at batch
      // 64. A holder that claims and then stalls past lease_ns is fenced
      // either way; only the measuring point moves, by at most one
      // claim-to-publish gap.
      lease_->span_state.store(static_cast<uint64_t>(LeaseSpan::kOwned),
                               std::memory_order_release);
      claim_pos_ = tail;
      claim_len_ = n;
      *claimed = n;
      return Result::kOk;
    }

    T* claim_data() const {
      return ring_->slots_ +
             (static_cast<std::size_t>(claim_pos_) & ring_->mask_);
    }
    std::size_t claim_len() const { return claim_len_; }

    /// Publishes the slots of the current claim, epoch-gated: a fenced
    /// producer publishes nothing (and a fence landing mid-span stops the
    /// remainder — each slot's CAS independently loses to the reaper's
    /// tombstone sequencing anyway). Returns the number of slots that
    /// actually landed; clears the claim either way.
    ///
    /// `landed` is EXACT, not advisory: live/dead is decided by the one
    /// seq-word CAS per slot, so a slot this walk won is live and will be
    /// consumed, and a slot it lost (or never attempted after a loss) was
    /// — or is about to be — dead-marked by the repair that beat it.
    /// Callers can treat kOk/`landed` as an at-least-once delivery fact.
    std::size_t PublishClaimed() {
      if (claim_len_ == 0) return 0;
      if (fault::Fire(fault::Point::kShmZombieResume, ring_->fault_lane_)) {
        // Stall far past the (test-sized) lease period, then fall through
        // and try to publish — the zombie-resume schedule. The reaper
        // must have fenced us by the time we wake; the gates below and
        // the per-slot CAS protocol are what make the zombie lose.
        fault::InjectLongStall();
      }
      if (fault::Fire(fault::Point::kShmDieBeforePublish,
                      ring_->fault_lane_)) {
        fault::DieHard();
      }
      const uint64_t pos0 = claim_pos_;
      const std::size_t n = claim_len_;
      // relaxed: highwater is advisory telemetry; a stale head only
      // over-reports occupancy for one sample. Loaded before the walk, as
      // PublishPush does: until our first slot lands the consumer cannot
      // pass pos0, so pos0 + n - head stays within [n, capacity]. Loaded
      // after it, the consumer may already have released past pos0 + n
      // (through another producer's later span) and the difference wraps.
      const uint64_t head = ring_->ctl_->head.load(std::memory_order_relaxed);
      std::size_t landed = 0;
      // One fence check gates the whole walk: each slot's CAS arbitrates
      // exactly (a reaper that fenced mid-walk wins per slot regardless),
      // so the per-slot check would buy nothing but a load per slot on
      // the hot path. A lost CAS can only mean tombstone repair is
      // walking this same span — its failure-order acquire synchronizes
      // with the repair CAS, making the (program-order earlier) epoch
      // bump visible — so stop: the repair pass covers every remaining
      // unpublished position, and burning CASes that lose changes
      // nothing.
      if (!Fenced()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (fault::Fire(fault::Point::kShmDieMidSpan,
                          ring_->fault_lane_)) {
            fault::DieHard();
          }
          if (!ring_->PublishSlot(pos0 + i)) {
            SLICK_DCHECK(Fenced(), "publish CAS lost to a non-repair writer");
            break;
          }
          ++landed;
        }
      }
      if (landed > 0) ring_->UpdateHighwater(pos0 + n - head);
      if (!Fenced()) {
        // Still ours (the reaper bumps the epoch before ever freeing or
        // reusing the row, so not-fenced implies the row is still this
        // producer's): retire the span and refresh the heartbeat.
        lease_->span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                                 std::memory_order_release);
        Heartbeat();
      }
      claim_len_ = 0;
      // Wake the consumer even when landed < n: the reaper's tombstones
      // cover the rest, and an extra bump is harmless.
      ring_->WakeConsumers();
      return landed;
    }

    /// Claim + copy + publish in one call. *pushed counts slots that
    /// landed; kOk only when all `n` did.
    SLICK_NODISCARD Result TryPush(const T* src, std::size_t n,
                                   std::size_t* pushed) {
      *pushed = 0;
      while (*pushed < n) {
        std::size_t k = 0;
        const Result r = TryBeginClaim(n - *pushed, &k);
        if (r != Result::kOk) return *pushed == n ? Result::kOk : r;
        T* span = claim_data();
        for (std::size_t i = 0; i < k; ++i) span[i] = src[*pushed + i];
        const std::size_t landed = PublishClaimed();
        *pushed += landed;
        if (landed < k) return Result::kFenced;
      }
      return Result::kOk;
    }

    /// Timer-path heartbeat refresh (the publish path refreshes
    /// implicitly). Once the stalled-heartbeat fault fires, refreshes
    /// stop permanently — simulating a producer wedged outside the
    /// publish path.
    void RefreshLease() {
      if (stalled_) return;
      if (fault::Fire(fault::Point::kShmStallHeartbeat,
                      ring_->fault_lane_)) {
        stalled_ = true;
        return;
      }
      if (!Fenced()) Heartbeat();
    }

    /// Graceful detach: frees the lease row (never touches a row the
    /// reaper already fenced away from us).
    void Detach() {
      if (ring_ == nullptr) return;
      if (!Fenced()) {
        lease_->span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                                 std::memory_order_release);
        lease_->heartbeat_ns.store(0, std::memory_order_release);
        uint64_t expect = my_pid_;
        // CAS, not store: the reaper may have freed (and a new producer
        // re-taken) the row between the Fenced() check and here. relaxed
        // failure order: on loss we touch nothing and read nothing back.
        lease_->pid.compare_exchange_strong(expect, 0,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed);
      }
      ring_ = nullptr;
      lease_ = nullptr;
    }

   private:
    friend class ShmRing;
    LeaseProducer(ShmRing* ring, ShmLease* lease, uint64_t pid,
                  uint64_t epoch)
        : ring_(ring), lease_(lease), my_pid_(pid), epoch_at_attach_(epoch) {}

    void Heartbeat() {
      // release: a reaper that reads a fresh heartbeat also sees the
      // span/state stores that preceded it.
      lease_->heartbeat_ns.store(util::MonotonicNanos(),
                                 std::memory_order_release);
    }

    ShmRing* ring_ = nullptr;
    ShmLease* lease_ = nullptr;
    uint64_t my_pid_ = 0;
    uint64_t epoch_at_attach_ = 0;
    uint64_t claim_pos_ = 0;
    std::size_t claim_len_ = 0;
    bool stalled_ = false;
  };

  /// Attaches the calling process as a lease-holding producer: claims a
  /// free lease row (pid CAS), stamps the first heartbeat, caches the
  /// fence epoch. CHECK-fails when the table is full — table sizing is a
  /// deployment decision, not a runtime condition to retry.
  SLICK_NODISCARD LeaseProducer AttachProducer() {
    const auto me = static_cast<uint64_t>(::getpid());
    for (std::size_t i = 0; i < max_producers(); ++i) {
      ShmLease& lease = leases_[i];
      uint64_t expect = 0;
      // acq_rel: acquire the row's final state from its previous holder
      // (or the reaper's free), release our ownership claim. relaxed
      // failure order: an occupied row is just skipped, nothing is read.
      if (!lease.pid.compare_exchange_strong(expect, me,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
        continue;
      }
      // Row is exclusively ours; relaxed scrub stores suffice because the
      // heartbeat's release below publishes them to the reaper as a unit.
      lease.span_begin.store(0, std::memory_order_relaxed);
      lease.span_end.store(0, std::memory_order_relaxed);
      lease.span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                             std::memory_order_relaxed);
      lease.fenced_at_ns.store(0, std::memory_order_relaxed);
      lease.heartbeat_ns.store(util::MonotonicNanos(),
                               std::memory_order_release);
      const uint64_t epoch = lease.epoch.load(std::memory_order_acquire);
      return LeaseProducer(this, &lease, me, epoch);
    }
    SLICK_CHECK(false, "shm lease table full");
    return LeaseProducer();
  }

  /// The consumer-side reaper (DESIGN.md §17): fences and repairs leases
  /// whose holder is dead (pid gone) or expired (heartbeat stale past
  /// `lease_ns`). Single caller at a time (the engine's Supervise path,
  /// or a test thread); safe against concurrent producers and consumer.
  ///
  /// Per expired lease, in order:
  ///  1. FENCE (once): bump the epoch, stamp fenced_at. From here the
  ///     holder's Fenced() gate trips, and every slot the repair
  ///     sequences is CAS-protected against the holder's late publishes.
  ///     A fence applied to a still-running process is a zombie fence.
  ///  2. REPAIR: tombstone the unpublished positions of the recorded
  ///     span. kOwned spans repair immediately (ownership is certain);
  ///     kIntent spans wait one further lease period after the fence
  ///     (the recorded CAS may have lost or never run) and skip
  ///     positions beyond tail or covered by another live lease's span.
  ///  3. RECLAIM: free the row (pid CAS to 0) and count it.
  ShmLeaseStats ReapExpiredLeases(uint64_t now_ns, uint64_t lease_ns) {
    ShmLeaseStats out;
    for (std::size_t li = 0; li < max_producers(); ++li) {
      ShmLease& lease = leases_[li];
      // acquire: everything we read about this row below was published
      // by heartbeat/attach release stores.
      const uint64_t pid = lease.pid.load(std::memory_order_acquire);
      if (pid == 0) continue;
      const bool dead =
          ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
      const uint64_t beat =
          lease.heartbeat_ns.load(std::memory_order_acquire);
      const bool stale =
          beat != 0 && now_ns > beat && now_ns - beat > lease_ns;
      if (!dead && !stale) continue;

      // 1. Fence (idempotent across reap passes via fenced_at).
      if (lease.fenced_at_ns.load(std::memory_order_acquire) == 0) {
        // acq_rel: the bump both observes the holder's last stores and
        // publishes the fence to its next Fenced() check.
        lease.epoch.fetch_add(1, std::memory_order_acq_rel);
        lease.fenced_at_ns.store(now_ns == 0 ? 1 : now_ns,
                                 std::memory_order_release);
        if (!dead) {
          ++out.zombie_fences;
          // relaxed: monotonic telemetry counter; readers tolerate skew.
          shm_->zombie_fences.fetch_add(1, std::memory_order_relaxed);
        }
      }

      // Dekker pairing with TryBeginClaim's post-CAS fence: the holder
      // CASes tail then re-checks the epoch; we bumped the epoch (this
      // pass or an earlier one) and now read tail and the span. The
      // paired seq_cst fences guarantee at least one side sees the
      // other: either the tail load below observes the holder's CAS (so
      // its span is inside [.., tail) and repairable), or the holder's
      // re-check observes the bump and it self-repairs. No interleaving
      // leaves a reserved span that neither side tombstones.
      std::atomic_thread_fence(std::memory_order_seq_cst);

      // 2. Repair the recorded span, if attribution allows it yet.
      const auto state = static_cast<LeaseSpan>(
          lease.span_state.load(std::memory_order_acquire));
      if (state != LeaseSpan::kIdle) {
        // relaxed: fenced_at was stored by THIS reaper (single-threaded),
        // and the span words are ordered by the span_state acquire above
        // (they precede the holder's kIntent release store).
        const uint64_t fenced_at =
            lease.fenced_at_ns.load(std::memory_order_relaxed);
        if (state == LeaseSpan::kIntent &&
            now_ns - fenced_at < lease_ns) {
          continue;  // grace period: revisit on a later reap pass
        }
        // relaxed span words: ordered by the span_state acquire above.
        const uint64_t begin =
            lease.span_begin.load(std::memory_order_relaxed);
        const uint64_t end = lease.span_end.load(std::memory_order_relaxed);
        if (begin < end && end - begin <= this->capacity()) {
          const uint64_t tail =
              this->ctl_->tail.load(std::memory_order_acquire);
          for (uint64_t pos = begin; pos < end; ++pos) {
            if (pos >= tail) continue;  // never claimed by anyone
            if (state == LeaseSpan::kIntent &&
                CoveredByOtherLease(li, pos)) {
              continue;  // the CAS lost; the span belongs to someone live
            }
            // One CAS decides the slot's fate: win => dead-marked, the
            // consumer skips it atomically (it can never read the slot
            // as live garbage, because live requires the exact value
            // pos + 1). Lose => the holder's publish squeaked in after
            // our fence — the slot is LIVE with real data, stays
            // consumable, and the holder rightly counted it as landed.
            if (TombstoneSlot(pos)) {
              ++out.slots_tombstoned;
            }
          }
        }
      }

      // 3. Reclaim the row. Scrub, then CAS pid — the CAS (not a store)
      // keeps a racing graceful Detach from double-counting. relaxed span
      // scrubs ride the pid CAS's release; relaxed failure order because
      // a lost CAS (graceful Detach won) reads nothing back; the
      // reclaimed counter is monotonic telemetry tolerant of skew.
      lease.span_state.store(static_cast<uint64_t>(LeaseSpan::kIdle),
                             std::memory_order_release);
      lease.span_begin.store(0, std::memory_order_relaxed);
      lease.span_end.store(0, std::memory_order_relaxed);
      lease.heartbeat_ns.store(0, std::memory_order_release);
      lease.fenced_at_ns.store(0, std::memory_order_release);
      uint64_t expect = pid;
      // relaxed failure order: a lost CAS (graceful Detach won) reads
      // nothing back; the counter is relaxed monotonic telemetry.
      if (lease.pid.compare_exchange_strong(expect, 0,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        ++out.leases_reclaimed;
        shm_->leases_reclaimed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (out.slots_tombstoned != 0) {
      // relaxed: monotonic telemetry counter; readers tolerate skew.
      shm_->slots_tombstoned.fetch_add(out.slots_tombstoned,
                                       std::memory_order_relaxed);
    }
    if (out.slots_tombstoned != 0 || out.leases_reclaimed != 0) {
      // The consumer may be parked on a hole we just repaired: bump the
      // eventcount so it rescans (and skips) the tombstoned run.
      this->WakeConsumers();
    }
    return out;
  }

 private:
  /// White-box access for tests (tests/shm_chaos_test.cc): the kIntent
  /// grace path is reachable only through a crash between the intent
  /// store and the tail CAS, which a single tier-1 process cannot produce
  /// organically — the test forges the lease row instead.
  friend struct ShmRingTestPeer;

  /// Whether `pos` lies inside the in-flight span of any live lease other
  /// than `self` — the kIntent repair guard. Racy by nature (advisory
  /// reads of other rows); a false positive just defers the position to
  /// that lease's own eventual publish or reap.
  bool CoveredByOtherLease(std::size_t self, uint64_t pos) const {
    for (std::size_t i = 0; i < max_producers(); ++i) {
      if (i == self) continue;
      const ShmLease& lease = leases_[i];
      if (lease.pid.load(std::memory_order_acquire) == 0) continue;
      if (lease.span_state.load(std::memory_order_acquire) ==
          static_cast<uint64_t>(LeaseSpan::kIdle)) {
        continue;
      }
      // relaxed: ordered by the span_state acquire above; a torn view at
      // worst defers this row's repair to the next reap pass.
      const uint64_t b = lease.span_begin.load(std::memory_order_relaxed);
      const uint64_t e = lease.span_end.load(std::memory_order_relaxed);
      if (b <= pos && pos < e) return true;
    }
    return false;
  }
  static std::size_t BytesFor(std::size_t min_capacity,
                              std::size_t max_producers) {
    return ComputeShmLayout(Core::RoundCapacity(min_capacity), max_producers,
                            sizeof(T), alignof(T))
        .total_bytes;
  }

  /// Create-path delegate: takes the freshly created mapping, constructs
  /// every shared object in place, then flips the header's ready flag.
  ShmRing(util::ShmMapping map, std::size_t min_capacity,
          std::size_t max_producers)
      : map_(std::move(map)) {
    SLICK_CHECK(map_.valid(), "shm segment creation failed");
    SLICK_CHECK(max_producers >= 1, "shm ring needs at least one lease row");
    const std::size_t cap = Core::RoundCapacity(min_capacity);
    const ShmLayout l =
        ComputeShmLayout(cap, max_producers, sizeof(T), alignof(T));
    SLICK_CHECK(map_.size() >= l.total_bytes, "shm segment undersized");
    auto* base = static_cast<char*>(map_.data());
    auto* hdr = new (base) ShmHeader{};
    new (base + l.control_off) ShmControl{};
    for (std::size_t i = 0; i < max_producers; ++i) {
      new (base + l.lease_off + i * sizeof(ShmLease)) ShmLease{};
    }
    for (std::size_t i = 0; i < cap; ++i) {
      // Zero-valued seq words are correct as-is: the sequenced test is
      // the exact equality against pos + 1 (live) or its dead-marked
      // variant.
      new (base + l.seq_off + i * sizeof(std::atomic<uint64_t>))
          std::atomic<uint64_t>(0);  // slick-lint: allow(atomic-alignas)
    }
    hdr->magic = kShmMagic;
    hdr->version = kShmVersion;
    hdr->capacity = cap;
    hdr->max_producers = max_producers;
    hdr->slot_size = sizeof(T);
    hdr->slot_align = alignof(T);
    hdr->total_bytes = l.total_bytes;
    hdr->layout_hash = ShmLayoutHash(cap, max_producers, sizeof(T), alignof(T));
    hdr->header_crc = ShmHeaderCrc(*hdr);
    BindPointers();
    // release: publishes every in-place construction above to attachers
    // acquire-spinning on ready.
    hdr->ready.store(1, std::memory_order_release);
  }

  /// Binds the header, control block, lease table, seq words and slots —
  /// the one place that reads the segment layout for this ring.
  void BindPointers() {
    auto* base = static_cast<char*>(map_.data());
    hdr_ = reinterpret_cast<ShmHeader*>(base);
    const auto cap = static_cast<std::size_t>(hdr_->capacity);
    const ShmLayout l = ComputeShmLayout(
        cap, static_cast<std::size_t>(hdr_->max_producers), sizeof(T),
        alignof(T));
    shm_ = reinterpret_cast<ShmControl*>(base + l.control_off);
    leases_ = reinterpret_cast<ShmLease*>(base + l.lease_off);
    this->Bind(&shm_->ring,
               reinterpret_cast<std::atomic<uint64_t>*>(base + l.seq_off),
               reinterpret_cast<T*>(base + l.slot_off), cap);
  }

  SLICK_REALTIME bool TombstoneSlot(uint64_t pos) {
    return this->SequenceSlot(pos, (pos + 1) | kSeqDead);
  }

  util::ShmMapping map_;
  ShmHeader* hdr_ = nullptr;
  ShmControl* shm_ = nullptr;
  ShmLease* leases_ = nullptr;
};

/// One lease row as read by the inspector.
struct ShmLeaseInfo {
  std::size_t row = 0;
  uint64_t pid = 0;
  uint64_t epoch = 0;
  uint64_t heartbeat_ns = 0;
  uint64_t span_begin = 0;
  uint64_t span_end = 0;
  uint64_t span_state = 0;
  uint64_t fenced_at_ns = 0;
};

/// Read-only snapshot of a live segment's cursors, telemetry and lease
/// table, taken without knowing the slot type (the header/control/lease
/// offsets are T-independent by layout construction). Maps PROT_READ, so
/// inspection can never corrupt a live ring. The layout hash is NOT
/// checked (the inspector has no T to check against) — magic, version and
/// header CRC are.
struct ShmSegmentInfo {
  bool ok = false;
  std::string error;
  uint64_t capacity = 0;
  uint64_t max_producers = 0;
  uint64_t slot_size = 0;
  uint64_t head = 0;
  uint64_t tail = 0;
  uint64_t claim = 0;
  bool closed = false;
  uint64_t highwater = 0;
  uint64_t leases_reclaimed = 0;
  uint64_t slots_tombstoned = 0;
  uint64_t zombie_fences = 0;
  std::vector<ShmLeaseInfo> leases;
};

inline ShmSegmentInfo InspectShmSegment(const std::string& name) {
  ShmSegmentInfo info;
  util::ShmMapping map = util::ShmMapping::OpenNamed(name, /*read_only=*/true);
  if (!map.valid()) {
    info.error = std::string("cannot open shm segment: ") +
                 std::strerror(map.error());
    return info;
  }
  if (map.size() < sizeof(ShmHeader)) {
    info.error = "segment smaller than a slick header";
    return info;
  }
  const auto* base = static_cast<const char*>(map.data());
  const auto* hdr = reinterpret_cast<const ShmHeader*>(base);
  if (hdr->ready.load(std::memory_order_acquire) == 0) {
    info.error = "segment exists but is not initialized";
    return info;
  }
  if (hdr->magic != kShmMagic) {
    info.error = "bad magic: not a slick shm ring";
    return info;
  }
  if (hdr->version != kShmVersion) {
    info.error = "unsupported segment version";
    return info;
  }
  if (hdr->header_crc != ShmHeaderCrc(*hdr)) {
    info.error = "header CRC mismatch: segment corrupt";
    return info;
  }
  const ShmLayout l = ComputeShmLayout(
      static_cast<std::size_t>(hdr->capacity),
      static_cast<std::size_t>(hdr->max_producers),
      static_cast<std::size_t>(hdr->slot_size),
      static_cast<std::size_t>(hdr->slot_align));
  const std::size_t lease_end =
      l.lease_off +
      static_cast<std::size_t>(hdr->max_producers) * sizeof(ShmLease);
  if (lease_end > map.size()) {
    info.error = "segment truncated: lease table out of bounds";
    return info;
  }
  const auto* shm = reinterpret_cast<const ShmControl*>(base + l.control_off);
  const RingControl& ctl = shm->ring;
  const auto* leases = reinterpret_cast<const ShmLease*>(base + l.lease_off);
  info.capacity = hdr->capacity;
  info.max_producers = hdr->max_producers;
  info.slot_size = hdr->slot_size;
  // acquire on the cursors so the point-in-time view is internally
  // consistent enough for triage (it is still a racing sample).
  info.head = ctl.head.load(std::memory_order_acquire);
  info.tail = ctl.tail.load(std::memory_order_acquire);
  info.claim = ctl.claim.load(std::memory_order_acquire);
  info.closed = ctl.closed.load(std::memory_order_acquire) != 0;
  // relaxed: read-only diagnostic snapshot of live counters — every value
  // is a racing sample by design, staleness is expected and harmless.
  info.highwater = ctl.highwater.load(std::memory_order_relaxed);
  info.leases_reclaimed =
      shm->leases_reclaimed.load(std::memory_order_relaxed);
  info.slots_tombstoned =
      shm->slots_tombstoned.load(std::memory_order_relaxed);
  info.zombie_fences = shm->zombie_fences.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < hdr->max_producers; ++i) {
    const ShmLease& lease = leases[i];
    ShmLeaseInfo li;
    li.row = i;
    li.pid = lease.pid.load(std::memory_order_acquire);
    // relaxed: same racing-sample contract as the counters above — the
    // printer labels rows best-effort; only pid gets acquire so a freed
    // row's residue is not misattributed to a live holder.
    li.epoch = lease.epoch.load(std::memory_order_relaxed);
    li.heartbeat_ns = lease.heartbeat_ns.load(std::memory_order_relaxed);
    li.span_begin = lease.span_begin.load(std::memory_order_relaxed);
    li.span_end = lease.span_end.load(std::memory_order_relaxed);
    li.span_state = lease.span_state.load(std::memory_order_relaxed);
    li.fenced_at_ns = lease.fenced_at_ns.load(std::memory_order_relaxed);
    info.leases.push_back(li);
  }
  info.ok = true;
  return info;
}

}  // namespace slick::runtime
