#pragma once

// Shared plumbing of the end-to-end benchmark: options, clock, sample
// statistics, the result report (human table + the final JSON line), the
// oracles, the peak-RSS probe and the span recorder of the traced run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "telemetry/histogram.h"
#include "telemetry/snapshot.h"

namespace perfbench {

class LayerMetrics;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics of the traced run, in print order; BENCHMARK.json
/// lists the same names and units.
const std::vector<MetricDef>& PerLayerMetrics();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test of the oracle: flips one expected answer, so a correct
  /// program must be reported as failing.
  bool corrupt_oracle = false;
  std::string out_dir = ".bench_build/traces";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Waits until the steady clock reaches `t` (ns): sleeps while more than
/// `spin_ns` remain (main() sets a 1 ns timer slack, so the sleep ends
/// within a few µs of its target), then spins.
void WaitUntil(uint64_t t, uint64_t spin_ns = 20'000);

/// Linear-interpolated quantile (q in [0, 1]); sorts `v` in place.
double Quantile(std::vector<double>& v, double q);

/// Quantile of a large latency sample, read as the mean of the order
/// statistics within ±0.1% of rank around it: integer-ns samples otherwise
/// give a figure that moves in whole-ns steps between runs.
double CentralQuantile(std::vector<double> v, double q);

/// Tail quantile of a time-ordered latency sample: the median, over ten
/// consecutive windows of the run, of each window's CentralQuantile. Tail
/// events from the VM host (vCPU wake-ups, preemption) come in bursts;
/// this keeps one burst from deciding a whole run, while a stall the
/// program itself repeats shows in every window and so in the figure.
double WindowedQuantile(const std::vector<double>& time_ordered, double q);

/// Median of a copy of `v`.
double Median(std::vector<double> v);

/// Quantile of a telemetry histogram snapshot, interpolated by rank inside
/// the bucket that holds it (the bucket midpoint alone would repeat the
/// same figure from run to run).
double HistQuantile(const slick::telemetry::LatencyHistogram::Snapshot& s,
                    double q);

/// Gives `v` room for `n` elements and touches it, so filling it later
/// does not grow the peak RSS the engine is charged with.
template <typename T>
void Prefault(std::vector<T>& v, std::size_t n) {
  v.assign(n, T{});
  v.clear();
}

/// Resident set of this process right now, in kB, counted page by page
/// (/proc/self/smaps_rollup). VmHWM and VmRSS come from per-CPU counters
/// that can be off by a few hundred kB, more than acq-multi's whole growth.
uint64_t ResidentKb();

/// ns per iteration of a fixed, throughput-bound integer kernel (about
/// 100 µs of work). On a shared host the physical core's other hardware
/// thread may run another tenant's work; while it does, the engines' loops
/// and this kernel both slow down by up to 2x, for seconds to minutes at a
/// time (STEADINESS.md).
double CoreProbeNs();

/// CoreProbeNs() on an idle core of the box the benchmark was tuned on.
inline constexpr double kRefCoreNs = 1.35;

/// How much slower than the reference the core is running right now. A
/// single-threaded workload divides the time it measured just before by
/// this, so it reports what the same work costs on an uncontended core.
inline double CoreSlowdown() { return CoreProbeNs() / kRefCoreNs; }

/// Peak resident growth over a baseline, sampled at the points a workload
/// names: after set-up and at the end of each measured phase, where its
/// buffers are at their largest.
class RssPeak {
 public:
  RssPeak() : base_(ResidentKb()) {}
  void Sample() { peak_ = std::max(peak_, ResidentKb()); }
  double GrowthMb() const {
    return peak_ > base_ ? static_cast<double>(peak_ - base_) / 1024.0 : 0.0;
  }

 private:
  uint64_t base_;
  uint64_t peak_ = 0;
};

/// The input every workload runs on: channel 0 of the synthetic DEBS12-like
/// energy series, `count` readings, a pure function of `seed`.
std::vector<double> MakeInput(uint64_t seed, std::size_t count);

/// Collects metrics, counts operations checked and failed, and prints the
/// result: notes and a table to stdout, then the JSON object as the last
/// line.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A line for the human reader, printed above the table.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// One checked operation; counts a failure (and logs the first few to
  /// stderr) when `ok` is false.
  void Check(bool ok, const char* what, double got = 0, double want = 0);
  /// `n` operations checked at once, `bad` of which failed.
  void CheckCount(uint64_t n, uint64_t bad, const char* what);
  double FailedRatio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  /// Prints everything; returns the process exit code (1 on any failure).
  int Emit() const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The end-to-end metrics of an untraced run. `lat_us` is the time-ordered
/// latency sample; its p99 and its size are printed as a note, not gated
/// (STEADINESS.md).
void EmitEndToEnd(Report& report, double throughput_tps,
                  const std::vector<double>& lat_us,
                  const std::vector<double>& setup_s, const RssPeak& rss);

// ------------------------------- oracles --------------------------------

/// Max over the last `r` stream tuples ending at stream index `end`
/// (inclusive) for each r in `ranges` (ascending), re-folded from scratch
/// over the cyclic input: element t of the stream is data[t % size].
std::vector<double> RefoldMax(const std::vector<double>& data, uint64_t end,
                              const std::vector<uint64_t>& ranges);

/// Exactly rounded sums (Shewchuk partials, as Python's math.fsum) of the
/// same windows.
std::vector<double> ExactSum(const std::vector<double>& data, uint64_t end,
                             const std::vector<uint64_t>& ranges);

/// Relative bound a Sum answer may differ from the exactly rounded sum.
/// Every answer of the invertible Sum path is a running ⊕/⊖ chain, so it
/// carries the rounding of each update since the window first filled; on
/// this strictly positive, bounded input acq-multi's oracle saw at most
/// 8.7e-13 relative after 1.35e9 updates (it prints the largest it sees;
/// STEADINESS.md), and 1e-9 leaves three orders of headroom while still
/// catching any lost or doubled tuple (which moves a window sum by at least
/// 1/range ≥ 4e-6 relative).
inline constexpr double kSumRelBound = 1e-9;

inline bool SumMatches(double got, double exact) {
  return std::fabs(got - exact) <= kSumRelBound * std::fabs(exact);
}

// ----------------------------- span tracing ------------------------------

/// Span names; the prefix before the first '.' is the layer a span's self
/// time is charged to.
enum SpanName : uint16_t {
  kSpanRun,           // bench.run: one traced measurement phase
  kSpanBatch,         // bench.batch: one batch of input
  kSpanPlanBuild,     // plan.build
  kSpanPushMax,       // engine.push.max
  kSpanPushSum,       // engine.push.sum
  kSpanRuntimePush,   // runtime.push
  kSpanRuntimeFlush,  // runtime.flush
  kSpanRuntimeQuery,  // runtime.query
  kSpanSink,          // runtime.producer_flush (inside the ingest sink)
  kSpanNetSend,       // net.send
  kSpanShmPush,       // shm.push
  kSpanNameCount,
};

const char* SpanNameStr(uint16_t name);

struct Span {
  uint64_t start;
  uint64_t end;
  uint64_t batch;
  int32_t parent;  // index in the same log, -1 for a root
  uint16_t name;
  uint16_t pad;
};

/// Spans each writer can keep (each is 32 bytes); enough for the 25 s runs
/// BENCHMARK.json sets. Spans past it are counted ("over cap" in the trace
/// message) and the work they would cover is left out of the per-tuple
/// figures.
inline constexpr uint64_t kSpanCapacity = uint64_t{1} << 19;

/// One writer's span log (a thread, or a forked process when the log lives
/// in shared memory). Fixed capacity; spans past it are counted, not kept.
struct SpanLog {
  uint64_t count;
  uint64_t dropped;
  uint64_t capacity;
  Span spans[1];  // really `capacity`

  static std::size_t BytesFor(uint64_t capacity) {
    return sizeof(SpanLog) + (capacity - 1) * sizeof(Span);
  }
  int32_t Begin(uint16_t name, int32_t parent, uint64_t batch) {
    if (count >= capacity) {
      ++dropped;
      return -1;
    }
    spans[count] = Span{NowNs(), 0, batch, parent, name, 0};
    return static_cast<int32_t>(count++);
  }
  void End(int32_t id) {
    if (id >= 0) spans[id].end = NowNs();
  }
};

/// Owns `logs` span logs in one MAP_SHARED anonymous mapping, so logs
/// written by forked children are visible to the parent that writes the
/// trace file.
class Tracer {
 public:
  Tracer(std::size_t logs, uint64_t capacity_per_log);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  SpanLog* log(std::size_t i) {
    return reinterpret_cast<SpanLog*>(base_ + i * stride_);
  }
  std::size_t logs() const { return logs_; }

  /// Total self time (span duration minus its direct children's) per span
  /// name, summed over all logs, in ns.
  std::vector<double> SelfTimeByName();
  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(uint16_t name);
  /// Writes every span as CSV to `path`; false on I/O failure.
  bool Write(const std::string& path);

 private:
  std::size_t logs_;
  std::size_t stride_;
  char* base_ = nullptr;
};

/// RAII span in one log.
class Scope {
 public:
  Scope(SpanLog* log, uint16_t name, int32_t parent = -1, uint64_t batch = 0)
      : log_(log), id_(log == nullptr ? -1 : log->Begin(name, parent, batch)) {}
  ~Scope() {
    if (log_ != nullptr) log_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }
  /// False when tracing is off or the log is full: work done under this
  /// scope must then not count toward per-tuple span figures.
  bool recorded() const { return id_ >= 0; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Per-layer self time per input tuple (ns), from the spans: emits
/// `self.<layer>_ns_per_tuple` for every layer in kLayers.
void EmitSelfTimes(Tracer& tracer, double tuples, LayerMetrics& layers);

/// Writes the trace to `<out_dir>/trace-<workload>-<seed>.csv` and reports
/// where (stderr).
void WriteTrace(Tracer& tracer, const Options& opt);

// ---------------------- L3 peel: frame encode / decode -------------------

/// Encodes, decodes and CRCs the workload's own frames in process, with no
/// socket: emits net.encode_ns_per_tuple, net.decode_ns_per_tuple and
/// util.crc32_mb_s. `frame_tuples` is the frame size the workload's
/// throughput phase sends (or the paced size for workloads with no frames).
void EmitFramePeel(const std::vector<double>& data, std::size_t frame_tuples,
                   LayerMetrics& layers);

// -------------------------- per-layer defaults ---------------------------

/// Every per-layer metric the traced run prints, on every workload: each
/// starts at 0 (a layer the workload does not reach does no work) and the
/// workload sets what it measures; Finish() hands them to the report.
class LayerMetrics {
 public:
  LayerMetrics();
  void Set(const std::string& name, double value) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  /// Sets check.failed_ratio from the report and hands every metric to it.
  void Finish(Report& report) {
    Set("check.failed_ratio", report.FailedRatio());
    for (const auto& m : metrics_) report.Metric(m.name, m.value, m.unit);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
};

/// The runtime layer as the public RuntimeSnapshot shows it: worker busy
/// time and size per drained batch, idle polls over all polls, ring
/// high-water.
void EmitRuntimeSnapshot(const slick::telemetry::RuntimeSnapshot& snap,
                         LayerMetrics& layers);

/// L0 peel: ns per tuple of the input through one bare aggregator of
/// `window` partials on this thread, 256 tuples per BulkSlide call (the
/// median of five passes over the whole input).
template <typename Agg>
double BulkSlideNsPerTuple(const std::vector<double>& data,
                           std::size_t window) {
  Agg agg(window);
  agg.BulkSlide(data.data(), window);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = NowNs();
    for (std::size_t off = 0; off + 256 <= data.size(); off += 256) {
      agg.BulkSlide(data.data() + off, 256);
    }
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(data.size()));
  }
  if (!(agg.query() > 0.0)) std::fprintf(stderr, "perfbench: bad L0 answer\n");
  return Median(ns);
}

}  // namespace perfbench
