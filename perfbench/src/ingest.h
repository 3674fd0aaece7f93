#pragma once

// Shared parts of the two ingest workloads (tcp-ingest, shm-ingest): the
// control block the benchmark shares with its forked generator processes,
// the phase protocol, and the paced-phase observer.

#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"

namespace perfbench {

/// Phases the parent steps its generators through.
enum Phase : uint32_t {
  kPhaseSetUp = 0,
  kPhaseSaturate = 1,  // send as fast as the system takes it
  kPhaseStopSaturate = 2,
  kPhasePaced = 3,  // one batch per period from Control::paced_t0
  kPhaseTail = 4,   // shm-ingest: generator 0 alone sends the checked tail
  kPhaseExit = 5,
};

/// What one generator process reports back. Written only by that child;
/// read by the parent after the matching done flag (acquire).
struct GenStats {
  std::atomic<uint32_t> ready{0};
  std::atomic<uint32_t> sat_done{0};
  std::atomic<uint32_t> paced_done{0};
  std::atomic<uint32_t> tail_done{0};
  uint64_t attach_ns = 0;
  uint64_t sat_tuples = 0;
  uint64_t sat_frames = 0;
  uint64_t traced_tuples = 0;  // sent under a recorded span
  uint64_t try_push = 0;       // shm: TryPush calls
  uint64_t try_full = 0;       // shm: TryPush calls that returned kFull
  uint64_t paced_tuples = 0;
  uint64_t paced_frames = 0;
  uint64_t failures = 0;  // failed sends, fenced or closed leases
  double lag_p99_us = 0;   // paced: how late the generator started a batch
  double send_p50_us = 0;  // paced: one batch's send call
  double send_p99_us = 0;
  /// tcp: the client's latest CoreSlowdown(), in millionths, probed about
  /// every 50 ms of the saturated phase.
  std::atomic<uint64_t> slowdown_ppm{1'000'000};
};

/// Lives in a MAP_SHARED anonymous mapping made before fork().
struct Control {
  std::atomic<uint32_t> phase{kPhaseSetUp};
  std::atomic<uint32_t> trace{0};  // generators record spans
  std::atomic<uint64_t> paced_t0{0};
  GenStats gen[2];
};

/// Owns the shared control block.
class SharedControl {
 public:
  SharedControl() {
    void* p = mmap(nullptr, sizeof(Control), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("perfbench: control mmap");
      std::abort();
    }
    ctl_ = new (p) Control();
  }
  ~SharedControl() { munmap(ctl_, sizeof(Control)); }
  SharedControl(const SharedControl&) = delete;
  SharedControl& operator=(const SharedControl&) = delete;
  Control* operator->() { return ctl_; }
  Control& get() { return *ctl_; }
  /// Fresh state for the next set of generators.
  void Reset() {
    ctl_->~Control();
    new (ctl_) Control();
  }

 private:
  Control* ctl_;
};

/// Forks a generator running `body`; the child leaves with _exit (never
/// returning into the parent's stack or running its destructors).
inline pid_t ForkGenerator(const std::function<int()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::abort();
  }
  if (pid == 0) _exit(body());
  return pid;
}

/// Waits for a child; true when it exited with status 0.
inline bool Reap(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// In a generator: waits (politely) until the phase is `p` or later.
inline uint32_t AwaitPhase(Control& c, uint32_t p) {
  for (;;) {
    const uint32_t now = c.phase.load(std::memory_order_acquire);
    if (now >= p) return now;
    usleep(50);
  }
}

/// In the parent: waits until `flag` is set by a generator. False if it
/// did not happen within `timeout_s` (a wedged or dead generator).
inline bool AwaitFlag(const std::atomic<uint32_t>& flag, double timeout_s) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (flag.load(std::memory_order_acquire) == 0) {
    if (NowNs() > deadline) return false;
    usleep(50);
  }
  return true;
}

/// Waits until `e` has slid `n` tuples (false after `timeout_s`).
template <typename Engine>
bool AwaitProcessed(Engine& e, uint64_t n, double timeout_s) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (e.stats().processed < n) {
    if (NowNs() > deadline) return false;
    usleep(100);
  }
  return true;
}

/// Samples `processed()` every 50 ms for `seconds`, appending tuples/s per
/// slice to `rates`. The caller thread sleeps between samples, so it is not
/// one of the busy threads. With `slowdown`, each slice's rate times the
/// bottleneck core's slowdown at the slice's end (its rate at reference
/// core speed) also goes to `normalized`.
inline void SampleThroughput(double seconds,
                             const std::function<uint64_t()>& processed,
                             std::vector<double>& rates,
                             const std::function<double()>& slowdown = {},
                             std::vector<double>* normalized = nullptr) {
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t t0 = NowNs();
  uint64_t n0 = processed();
  while (NowNs() < end) {
    usleep(50'000);
    const uint64_t t1 = NowNs();
    const uint64_t n1 = processed();
    const double rate = static_cast<double>(n1 - n0) /
                        (static_cast<double>(t1 - t0) * 1e-9);
    rates.push_back(rate);
    if (slowdown && normalized != nullptr) {
      normalized->push_back(rate * slowdown());
    }
    t0 = t1;
    n0 = n1;
  }
}

/// Paced phase, parent side: batch k is due at t0 + k * period_ns and is
/// done once `processed()` reaches base + (k + 1) * tuples_per_batch.
/// Appends each batch's due-to-done latency in µs to `lat` (stopping early
/// past the deadline); from the due time on it spins on the counter, so
/// the completion time is read to within one poll.
inline void ObservePaced(uint64_t t0, uint64_t period_ns, uint64_t batches,
                         uint64_t tuples_per_batch, uint64_t base,
                         double timeout_s,
                         const std::function<uint64_t()>& processed,
                         std::vector<double>& lat) {
  lat.clear();
  const uint64_t deadline =
      t0 + batches * period_ns + static_cast<uint64_t>(timeout_s * 1e9);
  for (uint64_t k = 0; k < batches; ++k) {
    const uint64_t target = base + (k + 1) * tuples_per_batch;
    const uint64_t due = t0 + k * period_ns;
    // Nothing of batch k can be processed before it is due: sleep until
    // then, so the poll only competes for a core while the batch is in
    // flight.
    if (processed() < target) WaitUntil(due);
    while (processed() < target) {
      if (NowNs() > deadline) return;
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    lat.push_back(static_cast<double>(NowNs() - due) * 1e-3);
  }
}

/// Saturated phase of a traced run: alternates untraced and traced
/// segments (three of each) so that `trace.overhead_frac` compares the two
/// under the same drift of the machine.
inline void SampleAlternating(double seconds, Control& c,
                              const std::function<uint64_t()>& processed,
                              std::vector<double>& plain,
                              std::vector<double>& traced) {
  for (int seg = 0; seg < 6; ++seg) {
    const bool on = seg % 2 == 1;
    c.trace.store(on ? 1 : 0, std::memory_order_release);
    SampleThroughput(seconds / 6, processed, on ? traced : plain);
  }
  c.trace.store(1, std::memory_order_release);  // the paced phase is traced
}

}  // namespace perfbench
