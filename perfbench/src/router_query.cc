// router-query: the write-heavy use of the window aggregator. One
// coordinator thread pushes the stream into a 2-shard
// ParallelShardedEngine<WindowAggregatorFor<Max>> over SPSC rings and asks
// for the global answer every kQueryEvery tuples. Exercises the runtime
// (staging, SPSC ring, worker drain, epoch snapshot) and the aggregator's
// BulkSlide; bypasses the network and shared-memory layers. Busy threads:
// the coordinator and two workers.

#include <algorithm>
#include <optional>

#include "core/sliding_aggregator.h"
#include "ops/minmax.h"
#include "runtime/parallel_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace slick;
using Agg = core::WindowAggregatorFor<ops::Max>;
using Engine = runtime::ParallelShardedEngine<Agg>;

constexpr std::size_t kShards = 2;
constexpr uint64_t kWindow = uint64_t{1} << 20;  // global, in tuples
// A query every 16Ki tuples: the stream stays write-heavy (one query per
// 16384 slides) while a 10 s run still collects thousands of latency
// samples, enough for a p99 with more than ten samples beyond it.
constexpr uint64_t kQueryEvery = 16384;
constexpr std::size_t kInput = std::size_t{1} << 20;
constexpr uint64_t kCheckEvery = 64;  // oracle: every 64th query ...
constexpr std::size_t kMaxChecks = 256;  // ... at most this many

Engine::Options EngineOptions() {
  Engine::Options o;
  o.ring_capacity = 16384;
  o.batch = 4096;
  o.backpressure = runtime::Backpressure::kBlock;
  return o;
}

struct Checked {
  uint64_t end;  // stream index of the newest tuple in the window
  double got;
};

struct Loop {
  uint64_t t = 0;  // next stream index
  uint64_t queries = 0;
  uint64_t traced_tuples = 0;  // pushed under a recorded runtime.push span
  std::vector<double> slice_rates;  // at reference core speed
  std::vector<double> raw_rates;    // as timed
  std::vector<double> slowdowns;
  std::vector<double> lat_us;
  std::vector<Checked> checks;
};

/// Closed loop: kQueryEvery pushes, then a query, repeated for `seconds`.
/// The coordinator is the bottleneck (the workers idle half their polls),
/// so each ~50 ms slice's rate is also given at reference core speed, from
/// the coordinator core's slowdown probed after the slice.
/// With `log`, each cycle is a bench.batch span holding runtime.push,
/// runtime.flush and runtime.query spans; without, the last push and the
/// query are timed as one latency sample.
void RunLoop(Engine& e, const std::vector<double>& data, double seconds,
             Loop& L, SpanLog* log) {
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t slice_t0 = NowNs();
  uint64_t slice_n = 0;
  Scope run(log, kSpanRun);
  for (;;) {
    Scope b(log, kSpanBatch, run.id(), L.queries);
    double got;
    if (log == nullptr) {
      for (uint64_t i = 0; i + 1 < kQueryEvery; ++i, ++L.t) {
        e.push(data[L.t & (kInput - 1)]);
      }
      const uint64_t t0 = NowNs();
      e.push(data[L.t & (kInput - 1)]);
      ++L.t;
      got = e.query();
      L.lat_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    } else {
      {
        Scope s(log, kSpanRuntimePush, b.id(), L.queries);
        for (uint64_t i = 0; i < kQueryEvery; ++i, ++L.t) {
          e.push(data[L.t & (kInput - 1)]);
        }
        if (s.recorded()) L.traced_tuples += kQueryEvery;
      }
      {
        Scope s(log, kSpanRuntimeFlush, b.id(), L.queries);
        e.flush();
      }
      Scope s(log, kSpanRuntimeQuery, b.id(), L.queries);
      got = e.query();
    }
    if (L.queries % kCheckEvery == 0 && L.checks.size() < kMaxChecks) {
      L.checks.push_back({L.t - 1, got});
    }
    ++L.queries;
    slice_n += kQueryEvery;
    const uint64_t now = NowNs();
    if (now - slice_t0 >= 50'000'000) {
      const double rate = static_cast<double>(slice_n) /
                          (static_cast<double>(now - slice_t0) * 1e-9);
      const double slow = CoreSlowdown();
      L.raw_rates.push_back(rate);
      L.slice_rates.push_back(rate * slow);
      L.slowdowns.push_back(slow);
      slice_t0 = NowNs();
      slice_n = 0;
    }
    if (now >= t_end) {
      if (L.checks.empty() || L.checks.back().end != L.t - 1) {
        L.checks.push_back({L.t - 1, got});
      }
      return;
    }
  }
}

/// Construction (threads start), window warm-fill, and the first query
/// that proves the window is full and slid.
std::unique_ptr<Engine> SetUp(const std::vector<double>& data, Loop& L) {
  auto e = std::make_unique<Engine>(kWindow, kShards, EngineOptions());
  for (uint64_t t = 0; t < kWindow; ++t) e->push(data[t & (kInput - 1)]);
  L.t = kWindow;
  L.checks.push_back({kWindow - 1, e->query()});
  return e;
}

void CheckAnswers(const std::vector<double>& data, const Loop& L,
                  bool corrupt, Report& report) {
  for (std::size_t i = 0; i < L.checks.size(); ++i) {
    double want = RefoldMax(data, L.checks[i].end, {kWindow})[0];
    if (corrupt && i == 0) want += 1.0;
    report.Check(L.checks[i].got == want, "router-query max answer",
                 L.checks[i].got, want);
  }
}

/// Conservation at the quiescent cut after the last query: every tuple
/// pushed was admitted and slid, none dropped.
void CheckConservation(const Engine& e, const Loop& L, Report& report) {
  const Engine::Stats s = e.stats();
  report.CheckCount(L.t, L.t - std::min<uint64_t>(L.t, s.admitted),
                    "router-query admitted == pushed");
  report.CheckCount(L.t, L.t - std::min<uint64_t>(L.t, s.processed),
                    "router-query processed == pushed");
  report.CheckCount(L.t, s.dropped, "router-query dropped tuples");
}

}  // namespace

void RunRouterQuery(const Options& opt, Report& report) {
  const std::vector<double> data = MakeInput(opt.seed, kInput);
  Loop L;
  Prefault(L.lat_us, 1 << 21);
  Prefault(L.slice_rates, 1 << 14);
  Prefault(L.raw_rates, 1 << 14);
  Prefault(L.slowdowns, 1 << 14);
  Prefault(L.checks, kMaxChecks + 2);
  RssPeak rss;

  // Set-up is the coordinator's warm-fill plus thread start, median of 9,
  // each at reference core speed.
  std::unique_ptr<Engine> e;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 9; ++rep) {
    if (e) e->stop();
    e.reset();
    L.checks.clear();
    const uint64_t t0 = NowNs();
    e = SetUp(data, L);
    const double s = static_cast<double>(NowNs() - t0) * 1e-9;
    setup_s.push_back(s / CoreSlowdown());
  }

  rss.Sample();
  if (!opt.trace) {
    RunLoop(*e, data, opt.seconds, L, nullptr);
    rss.Sample();
    CheckAnswers(data, L, opt.corrupt_oracle, report);
    CheckConservation(*e, L, report);
    e->stop();
    char note[160];
    std::snprintf(note, sizeof note,
                  "as timed: throughput %.0f tuples/s, median core slowdown "
                  "%.3f",
                  Median(L.raw_rates), Median(L.slowdowns));
    report.Note(note);
    EmitEndToEnd(report, Median(L.slice_rates), L.lat_us, setup_s, rss);
    return;
  }

  // Untraced and traced segments alternate (three of each), so
  // trace.overhead_frac compares them under the same drift of the machine.
  LayerMetrics layers;
  Tracer tracer(1, kSpanCapacity);
  std::vector<double> plain, traced_rates;
  for (int seg = 0; seg < 6; ++seg) {
    const bool on = seg % 2 == 1;
    L.raw_rates.clear();
    RunLoop(*e, data, opt.seconds / 6, L, on ? tracer.log(0) : nullptr);
    auto& dst = on ? traced_rates : plain;
    dst.insert(dst.end(), L.raw_rates.begin(), L.raw_rates.end());
  }
  const double untraced = Median(plain);
  const double traced = Median(traced_rates);
  const double traced_tuples =
      static_cast<double>(std::max<uint64_t>(1, L.traced_tuples));
  CheckAnswers(data, L, opt.corrupt_oracle, report);
  CheckConservation(*e, L, report);

  EmitRuntimeSnapshot(e->snapshot(), layers);
  layers.Set("e2e.latency_p99_us", WindowedQuantile(L.lat_us, 0.99));
  layers.Set("core.memory_bytes", static_cast<double>(e->memory_bytes()));
  e->stop();

  const std::vector<double> self = tracer.SelfTimeByName();
  std::vector<double> flush = tracer.Durations(kSpanRuntimeFlush);
  std::vector<double> wait = tracer.Durations(kSpanRuntimeQuery);
  layers.Set("runtime.push_ns_per_tuple", self[kSpanRuntimePush] / traced_tuples);
  layers.Set("runtime.flush_us_p99", Quantile(flush, 0.99) * 1e-3);
  layers.Set("runtime.epoch_wait_us_p50", Quantile(wait, 0.50) * 1e-3);
  layers.Set("runtime.epoch_wait_us_p99", Quantile(wait, 0.99) * 1e-3);
  layers.Set("trace.overhead_frac", 1.0 - traced / untraced);
  EmitSelfTimes(tracer, traced_tuples, layers);
  WriteTrace(tracer, opt);

  // L0 peel: the same stream through one bare aggregator at a shard's
  // window, 256 tuples per BulkSlide.
  layers.Set("core.bulk_slide_ns_per_tuple",
             BulkSlideNsPerTuple<Agg>(data, kWindow / kShards));
  EmitFramePeel(data, 256, layers);
  layers.Finish(report);
}

}  // namespace perfbench
