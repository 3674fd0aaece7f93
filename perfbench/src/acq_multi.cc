// acq-multi: the paper's own system. One stream feeds two AcqEngines built
// from the same query set (so the same shared plan): a Max family on
// SlickDeque (Non-Inv) and a Sum family on SlickDeque (Inv). A closed loop
// on one thread; no runtime, ring or network layer is involved.

#include <algorithm>
#include <optional>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "engine/acq_engine.h"
#include "ops/arith.h"
#include "ops/counting.h"
#include "ops/minmax.h"
#include "plan/shared_plan.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace slick;

// Paper Exp 2's multi-query shape with slides > 1: 32 ranges evenly spaced
// over 32Ki..1Mi tuples, each asked at slides 64 and 256. The plan cuts
// 64-tuple partials into a 16384-partial window; every 64th tuple's push
// emits 32 answers per family (64 on every 256th), so a latency sample is a
// multi-answer read (query_multi walk, per-range ⊕/⊖), never one tuple.
constexpr uint64_t kRangeStep = 32768;
constexpr uint64_t kRanges = 32;
constexpr uint64_t kWindow = kRangeStep * kRanges;
constexpr uint64_t kSlides[] = {64, 256};
constexpr uint64_t kCycle = 256;  // composite slide (LCM of the slides)
constexpr std::size_t kInput = std::size_t{1} << 20;
constexpr std::size_t kChunk = 4096;  // tuples between clock checks
constexpr std::size_t kTraceBatch = 16384;  // tuples per traced batch span
// Oracle sample: the cycle-closing push (all 64 answers per family) of
// every 4096th cycle, at most kMaxChecks of them, plus the last cycle.
constexpr uint64_t kSampleEvery = 4096;
constexpr std::size_t kMaxChecks = 64;
// One emitting push in kLatStride is timed; 9 is coprime with the four
// emitting pushes per cycle, so every plan step is sampled alike.
constexpr uint64_t kLatStride = 9;
constexpr std::size_t kLatCap = std::size_t{1} << 23;

std::vector<plan::QuerySpec> Queries() {
  std::vector<plan::QuerySpec> q;
  for (uint64_t s : kSlides) {
    for (uint64_t k = 1; k <= kRanges; ++k) q.push_back({k * kRangeStep, s});
  }
  return q;
}

template <typename MaxOp, typename SumOp>
struct Engines {
  engine::AcqEngine<core::SlickDequeNonInv<MaxOp>> max;
  engine::AcqEngine<core::SlickDequeInv<SumOp>> sum;
  explicit Engines(const std::vector<plan::QuerySpec>& q)
      : max(q, plan::Pat::kPairs), sum(q, plan::Pat::kPairs) {}
  std::size_t memory_bytes() const {
    return max.memory_bytes() + sum.memory_bytes();
  }
};
using Plain = Engines<ops::Max, ops::Sum>;
using Counted = Engines<ops::ThreadCountingOp<ops::Max>,
                        ops::ThreadCountingOp<ops::Sum>>;

struct Answer {
  uint64_t t;  // stream index of the push that emitted it
  uint32_t q;
  double v;
};

/// Answer sink: folds every answer into a checksum (so no answer is dead
/// code) and, when `rec` is set, keeps it for the oracle.
struct Sink {
  double sum = 0.0;
  std::vector<Answer>* rec = nullptr;
  uint64_t t = 0;
  void operator()(uint32_t q, double v) {
    sum += v;
    if (rec != nullptr) rec->push_back({t, q, v});
  }
};

/// Pushes stream tuples [from, from + n) into both engines, discarding
/// answers (window warm-fill and counting passes).
template <typename E>
void Feed(E& e, const std::vector<double>& data, uint64_t from, uint64_t n) {
  Sink sink;
  for (uint64_t t = from; t < from + n; ++t) {
    const double x = data[t & (kInput - 1)];
    e.max.Push(x, sink);
    e.sum.Push(x, sink);
  }
}

/// Which cycle positions close a partial that has answers due (from the
/// plan, not from the query list, so the table follows the engine).
std::vector<uint8_t> EmitTable(const plan::SharedPlan& p) {
  std::vector<uint8_t> emits(kCycle, 0);
  uint64_t pos = 0;
  for (const plan::PlanStep& s : p.steps()) {
    pos += s.partial_len;
    if (!s.reports.empty()) emits[(pos - 1) % kCycle] = 1;
  }
  return emits;
}

struct Loop {
  uint64_t t;  // next stream index
  uint64_t tuples = 0;
  std::vector<double> slice_rates;  // at reference core speed
  std::vector<double> raw_rates;    // as timed
  std::vector<uint32_t> lat_ns;
  std::size_t lat_n = 0;
  // Per slice: the end of its latency samples in lat_ns, and the core's
  // slowdown measured right after it.
  std::vector<std::pair<std::size_t, double>> slice_ends;
  std::vector<Answer> max_rec, sum_rec;
  std::size_t checks = 0;
  double checksum = 0.0;
};

/// The measured closed loop: pushes each tuple into both engines, times
/// one emitting push in kLatStride, records oracle samples, and keeps a
/// tuples/s figure per ~50 ms slice, with the core's slowdown probed after
/// each slice (outside the timed part).
void RunLoop(Plain& e, const std::vector<double>& data,
             const std::vector<uint8_t>& emits, double seconds, Loop& L) {
  Sink ms, ss;
  uint64_t emitted = 0;
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t slice_t0 = NowNs();
  uint64_t slice_n = 0;
  for (;;) {
    for (std::size_t j = 0; j < kChunk; ++j, ++L.t) {
      const double x = data[L.t & (kInput - 1)];
      if (emits[L.t & (kCycle - 1)] == 0) {
        e.max.Push(x, ms);
        e.sum.Push(x, ss);
        continue;
      }
      const bool sample = (L.t & (kCycle - 1)) == kCycle - 1 &&
                          (L.t / kCycle) % kSampleEvery == 0 &&
                          L.checks < kMaxChecks;
      ms.rec = sample ? &L.max_rec : nullptr;
      ss.rec = sample ? &L.sum_rec : nullptr;
      ms.t = ss.t = L.t;
      L.checks += sample;
      if (++emitted % kLatStride == 0 && L.lat_n < kLatCap) {
        const uint64_t t0 = NowNs();
        e.max.Push(x, ms);
        e.sum.Push(x, ss);
        L.lat_ns[L.lat_n++] = static_cast<uint32_t>(NowNs() - t0);
      } else {
        e.max.Push(x, ms);
        e.sum.Push(x, ss);
      }
    }
    L.tuples += kChunk;
    slice_n += kChunk;
    const uint64_t now = NowNs();
    if (now - slice_t0 >= 50'000'000 || now >= t_end) {
      const double rate = static_cast<double>(slice_n) /
                          (static_cast<double>(now - slice_t0) * 1e-9);
      const double slow = CoreSlowdown();
      L.raw_rates.push_back(rate);
      L.slice_rates.push_back(rate * slow);
      L.slice_ends.emplace_back(L.lat_n, slow);
      slice_t0 = NowNs();
      slice_n = 0;
    }
    if (now >= t_end) break;
  }
  // Close the current cycle with recording on, so the last answers of the
  // run (the longest ⊕/⊖ chains) are checked too.
  ms.rec = &L.max_rec;
  ss.rec = &L.sum_rec;
  while (true) {
    const double x = data[L.t & (kInput - 1)];
    const bool last = (L.t & (kCycle - 1)) == kCycle - 1;
    ms.t = ss.t = L.t;
    e.max.Push(x, ms);
    e.sum.Push(x, ss);
    ++L.t;
    if (last) break;
  }
  L.checksum += ms.sum + ss.sum;
}

/// Checks the recorded answers: Max bit-for-bit against a re-fold, Sum
/// within kSumRelBound of the exactly rounded sum.
void CheckAnswers(const std::vector<double>& data,
                  const std::vector<plan::QuerySpec>& queries,
                  const Loop& L, bool corrupt, Report& report) {
  std::vector<uint64_t> ranges;
  for (uint64_t k = 1; k <= kRanges; ++k) ranges.push_back(k * kRangeStep);
  double worst_rel = 0.0;  // largest relative error of a Sum answer
  const auto check = [&](const std::vector<Answer>& rec, bool is_max) {
    std::size_t i = 0;
    bool first = true;
    while (i < rec.size()) {
      const uint64_t t = rec[i].t;
      const std::vector<double> want =
          is_max ? RefoldMax(data, t, ranges) : ExactSum(data, t, ranges);
      std::size_t got = 0;
      for (; i < rec.size() && rec[i].t == t; ++i, ++got) {
        const plan::QuerySpec& q = queries[rec[i].q];
        double w = want[q.range / kRangeStep - 1];
        if (corrupt && first) w += 1.0;
        first = false;
        const bool due = (t + 1) % q.slide == 0;
        if (!is_max && w != 0.0) {
          worst_rel = std::max(worst_rel, std::fabs(rec[i].v - w) / std::fabs(w));
        }
        report.Check(due && (is_max ? rec[i].v == w : SumMatches(rec[i].v, w)),
                     is_max ? "acq-multi max answer" : "acq-multi sum answer",
                     rec[i].v, w);
      }
      // The push answered exactly the queries due at t.
      std::size_t due = 0;
      for (const plan::QuerySpec& q : queries) due += (t + 1) % q.slide == 0;
      report.Check(got == due, "acq-multi answers per push",
                   static_cast<double>(got), static_cast<double>(due));
    }
  };
  check(L.max_rec, true);
  check(L.sum_rec, false);
  char note[160];
  std::snprintf(note, sizeof note,
                "largest relative error of a checked Sum answer %.3g after "
                "%llu updates (bound %.0e)",
                worst_rel, static_cast<unsigned long long>(L.t), kSumRelBound);
  report.Note(note);
  report.Check(!L.max_rec.empty() && L.max_rec.size() == L.sum_rec.size(),
               "acq-multi answers recorded",
               static_cast<double>(L.max_rec.size()),
               static_cast<double>(L.sum_rec.size()));
}

void PrepareLoop(Loop& L) {
  L.t = kWindow;
  L.lat_ns.assign(kLatCap, 0);
  // Sampled cycles answer 64 queries; the closing cycle up to 160.
  Prefault(L.max_rec, (kMaxChecks + 4) * 64);
  Prefault(L.sum_rec, (kMaxChecks + 4) * 64);
  Prefault(L.slice_rates, 1 << 14);
  Prefault(L.raw_rates, 1 << 14);
  Prefault(L.slice_ends, 1 << 14);
}

std::vector<double> SlowdownsOf(const Loop& L) {
  std::vector<double> v;
  for (const auto& se : L.slice_ends) v.push_back(se.second);
  return v;
}

/// The timed answering pushes in µs, each divided by the slowdown of its
/// slice: what it takes on an uncontended core.
std::vector<double> NormalizedLatencyUs(const Loop& L) {
  std::vector<double> lat;
  lat.reserve(L.lat_n);
  std::size_t i = 0;
  for (const auto& [end, slow] : L.slice_ends) {
    for (; i < end; ++i) lat.push_back(L.lat_ns[i] * 1e-3 / slow);
  }
  return lat;
}

/// Traced segment: the same stream, pushed one 16Ki-tuple batch at a time per
/// engine inside spans, with every emitting push timed per engine.
double RunTraced(Plain& e, const std::vector<double>& data,
                 const std::vector<uint8_t>& emits, double seconds,
                 uint64_t& t, SpanLog* log, std::vector<double>& answer_ns,
                 uint64_t& tuples) {
  Sink ms, ss;
  std::vector<uint32_t> max_lat, sum_lat;
  max_lat.reserve(kTraceBatch);
  sum_lat.reserve(kTraceBatch);
  const uint64_t t0 = NowNs();
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t t_begin = t;
  Scope run(log, kSpanRun);
  uint64_t batch = 0;
  for (;;) {
    Scope b(log, kSpanBatch, run.id(), batch);
    max_lat.clear();
    sum_lat.clear();
    {
      Scope s(log, kSpanPushMax, b.id(), batch);
      for (uint64_t u = t; u < t + kTraceBatch; ++u) {
        const double x = data[u & (kInput - 1)];
        if (emits[u & (kCycle - 1)] != 0) {
          const uint64_t a = NowNs();
          e.max.Push(x, ms);
          max_lat.push_back(static_cast<uint32_t>(NowNs() - a));
        } else {
          e.max.Push(x, ms);
        }
      }
    }
    {
      Scope s(log, kSpanPushSum, b.id(), batch);
      for (uint64_t u = t; u < t + kTraceBatch; ++u) {
        const double x = data[u & (kInput - 1)];
        if (emits[u & (kCycle - 1)] != 0) {
          const uint64_t a = NowNs();
          e.sum.Push(x, ss);
          sum_lat.push_back(static_cast<uint32_t>(NowNs() - a));
        } else {
          e.sum.Push(x, ss);
        }
      }
    }
    for (std::size_t i = 0; i < max_lat.size(); ++i) {
      if (answer_ns.size() < kLatCap) {
        answer_ns.push_back(static_cast<double>(max_lat[i] + sum_lat[i]));
      }
    }
    t += kTraceBatch;
    if (b.recorded()) tuples += kTraceBatch;
    ++batch;
    if (NowNs() >= t_end) break;
  }
  const double rate = static_cast<double>(t - t_begin) /
                      (static_cast<double>(NowNs() - t0) * 1e-9);
  if (ms.sum + ss.sum == 0.0) std::fprintf(stderr, "perfbench: no answers\n");
  return rate;
}

}  // namespace

void RunAcqMulti(const Options& opt, Report& report) {
  const std::vector<double> data = MakeInput(opt.seed, kInput);
  const std::vector<plan::QuerySpec> queries = Queries();
  Loop L;
  PrepareLoop(L);
  RssPeak rss;

  // Set-up: plan build (inside each engine), construction and window
  // warm-fill, median of 9, each at reference core speed; the last instance
  // is the one measured.
  std::optional<Plain> e;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 9; ++rep) {
    e.reset();
    const uint64_t t0 = NowNs();
    e.emplace(queries);
    Feed(*e, data, 0, kWindow);
    const double s = static_cast<double>(NowNs() - t0) * 1e-9;
    setup_s.push_back(s / CoreSlowdown());
  }
  const std::vector<uint8_t> emits = EmitTable(e->max.plan());
  rss.Sample();

  if (!opt.trace) {
    RunLoop(*e, data, emits, opt.seconds, L);
    rss.Sample();
    CheckAnswers(data, queries, L, opt.corrupt_oracle, report);
    report.Check(e->max.tuples_processed() == L.t &&
                     e->sum.tuples_processed() == L.t,
                 "acq-multi tuples processed",
                 static_cast<double>(e->max.tuples_processed()),
                 static_cast<double>(L.t));
    char note[160];
    std::snprintf(note, sizeof note,
                  "as timed: throughput %.0f tuples/s, median core slowdown "
                  "%.3f",
                  Median(L.raw_rates), Median(SlowdownsOf(L)));
    report.Note(note);
    EmitEndToEnd(report, Median(L.slice_rates), NormalizedLatencyUs(L),
                 setup_s, rss);
    return;
  }

  LayerMetrics layers;
  std::vector<double> build_us;
  for (int rep = 0; rep < 9; ++rep) {
    const uint64_t t0 = NowNs();
    const plan::SharedPlan p = plan::SharedPlan::Build(queries, plan::Pat::kPairs);
    build_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (p.steps().empty()) std::fprintf(stderr, "perfbench: empty plan\n");
  }
  layers.Set("plan.build_us", Median(build_us));

  // Untraced and traced segments alternate (three of each) on the same
  // engines and stream, so trace.overhead_frac compares them under the same
  // drift of the machine.
  Tracer tracer(1, kSpanCapacity);
  std::vector<double> answer_ns, traced_rates;
  answer_ns.reserve(kLatCap);
  uint64_t traced_tuples = 0;
  for (int seg = 0; seg < 3; ++seg) {
    RunLoop(*e, data, emits, opt.seconds / 6, L);
    traced_rates.push_back(RunTraced(*e, data, emits, opt.seconds / 6, L.t,
                                     tracer.log(0), answer_ns, traced_tuples));
  }
  const double untraced = Median(L.raw_rates);
  const double traced = Median(traced_rates);
  CheckAnswers(data, queries, L, opt.corrupt_oracle, report);

  const std::vector<double> self = tracer.SelfTimeByName();
  const double tt = static_cast<double>(traced_tuples);
  layers.Set("engine.push_ns.max", self[kSpanPushMax] / tt);
  layers.Set("engine.push_ns.sum", self[kSpanPushSum] / tt);
  layers.Set("engine.answer_push_us_p99",
             WindowedQuantile(answer_ns, 0.99) * 1e-3);
  layers.Set("e2e.latency_p99_us",
             WindowedQuantile(NormalizedLatencyUs(L), 0.99));
  layers.Set("trace.overhead_frac", 1.0 - traced / untraced);
  layers.Set("core.memory_bytes", static_cast<double>(e->memory_bytes()));
  EmitSelfTimes(tracer, tt, layers);
  WriteTrace(tracer, opt);

  // Exact counts: a fixed 2^20-tuple pass after warm-fill through engines
  // whose ops count every ⊕ and ⊖.
  {
    constexpr uint64_t kCounted = uint64_t{1} << 20;
    Counted c(queries);
    Feed(c, data, 0, kWindow);
    const uint64_t a0 = c.max.answers_produced() + c.sum.answers_produced();
    ops::ThreadLocalOpCounter::Reset();
    Feed(c, data, kWindow, kCounted);
    const double n = static_cast<double>(kCounted);
    layers.Set("core.combines_per_tuple",
               static_cast<double>(ops::ThreadLocalOpCounter::combines) / n);
    layers.Set("core.inverses_per_tuple",
               static_cast<double>(ops::ThreadLocalOpCounter::inverses) / n);
    layers.Set("engine.answers_per_tuple",
               static_cast<double>(c.max.answers_produced() +
                                   c.sum.answers_produced() - a0) /
                   n);
  }

  // L0 peel: the stream through the bare Max aggregator at the plan's
  // window.
  layers.Set("core.bulk_slide_ns_per_tuple",
             BulkSlideNsPerTuple<core::SlickDequeNonInv<ops::Max>>(data, kWindow));
  EmitFramePeel(data, 256, layers);
  if (L.checksum == 0.0) std::fprintf(stderr, "perfbench: no answers\n");
  layers.Finish(report);
}

}  // namespace perfbench
