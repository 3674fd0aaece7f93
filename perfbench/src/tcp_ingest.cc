// tcp-ingest: the only workload through the socket. One forked loopback
// client sends SIGB frames to an IngestServer with one event-loop thread;
// the benchmark's sink feeds an engine Producer over MPMC rings with two
// Sum shards. Throughput comes from a saturated phase, latency from a paced
// (open-loop) phase. Busy threads: the client process, the server loop and
// two workers; the parent's main thread sleeps while the system is
// saturated and polls the engine counters only in the paced phase.

#include <algorithm>
#include <memory>

#include "core/sliding_aggregator.h"
#include "ingest.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace slick;
using Agg = core::WindowAggregatorFor<ops::Sum>;
using Engine = runtime::ParallelShardedEngine<Agg, runtime::MpmcRing>;

constexpr std::size_t kShards = 2;
constexpr uint64_t kWindow = uint64_t{1} << 17;
constexpr std::size_t kInput = std::size_t{1} << 20;
// Saturated phase frame: 4096 tuples (64 KiB), so throughput follows the
// per-tuple path (decode, CRC, ring); STEADINESS.md has the spreads
// measured at 1024 and 4096. The client is the bottleneck of this phase
// (its encode + CRC + send costs what a tuple costs end to end), so
// throughput is given at the client core's reference speed.
constexpr std::size_t kSatFrame = 4096;
// Paced phase: 64-tuple frames, one every 100 µs (640 Ki tuples/s). Small
// frames keep the per-frame cost (syscalls, wake-ups, decode) in every
// latency sample. The short period keeps each hop's wake-up inside the
// hypervisor's halt-polling window: at 500-2000 µs the idle vCPUs were
// descheduled between frames and p50 measured the host's reschedule
// latency (107-255 µs, growing with the period), not the program.
constexpr std::size_t kPacedFrame = 64;
constexpr uint64_t kPacedPeriodNs = 100'000;
// Share of --seconds spent in the saturated phase; the rest is paced.
constexpr double kSatShare = 0.6;

Engine::Options EngineOptions() {
  Engine::Options o;
  o.ring_capacity = 16384;
  o.batch = 4096;
  o.backpressure = runtime::Backpressure::kBlock;
  return o;
}

uint64_t PacedBatches(double seconds) {
  return static_cast<uint64_t>(seconds * (1.0 - kSatShare) * 1e9 /
                               static_cast<double>(kPacedPeriodNs));
}

void FillFrame(const std::vector<double>& data, uint64_t t, std::size_t n,
               std::vector<net::WireTuple>& frame) {
  frame.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    frame[i] = net::WireTuple{t + i + 1, data[(t + i) & (kInput - 1)]};
  }
}

/// The forked client: connect, saturate until told to stop, then send one
/// paced frame per period, then leave.
int ClientMain(uint16_t port, Control& c, const std::vector<double>& data,
               uint64_t paced_batches, SpanLog* log) {
  GenStats& g = c.gen[0];
  net::IngestClient client;
  if (!client.Connect("127.0.0.1", port)) return 3;
  g.ready.store(1, std::memory_order_release);
  if (AwaitPhase(c, kPhaseSaturate) == kPhaseExit) return 0;
  std::vector<net::WireTuple> frame;
  uint64_t t = kWindow;  // stream index; the parent warm-filled [0, kWindow)
  uint64_t next_probe = NowNs() + 50'000'000;
  while (c.phase.load(std::memory_order_acquire) == kPhaseSaturate) {
    if (NowNs() >= next_probe) {
      g.slowdown_ppm.store(static_cast<uint64_t>(CoreSlowdown() * 1e6),
                           std::memory_order_relaxed);
      next_probe = NowNs() + 50'000'000;
    }
    FillFrame(data, t, kSatFrame, frame);
    const bool traced = c.trace.load(std::memory_order_relaxed) != 0;
    bool ok;
    {
      Scope s(traced ? log : nullptr, kSpanNetSend, -1, g.sat_frames);
      ok = client.SendBatch(frame.data(), frame.size());
      if (ok && s.recorded()) g.traced_tuples += kSatFrame;
    }
    if (!ok) {
      ++g.failures;
      break;
    }
    t += kSatFrame;
    g.sat_tuples += kSatFrame;
    ++g.sat_frames;
  }
  g.sat_done.store(1, std::memory_order_release);
  if (AwaitPhase(c, kPhasePaced) == kPhaseExit) return 0;
  const uint64_t t0 = c.paced_t0.load(std::memory_order_acquire);
  const bool traced = c.trace.load(std::memory_order_relaxed) != 0;
  std::vector<double> lag, send;
  lag.reserve(paced_batches);
  send.reserve(paced_batches);
  for (uint64_t k = 0; k < paced_batches; ++k) {
    const uint64_t due = t0 + k * kPacedPeriodNs;
    WaitUntil(due);
    const uint64_t start = NowNs();
    lag.push_back(static_cast<double>(start - due) * 1e-3);
    FillFrame(data, t, kPacedFrame, frame);
    bool ok;
    {
      Scope s(traced ? log : nullptr, kSpanNetSend, -1, g.sat_frames + k);
      ok = client.SendBatch(frame.data(), frame.size());
      if (ok && s.recorded()) g.traced_tuples += kPacedFrame;
    }
    send.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (!ok) {
      ++g.failures;
      break;
    }
    t += kPacedFrame;
    g.paced_tuples += kPacedFrame;
    ++g.paced_frames;
  }
  g.lag_p99_us = Quantile(lag, 0.99);
  g.send_p50_us = Quantile(send, 0.50);
  g.send_p99_us = Quantile(send, 0.99);
  g.paced_done.store(1, std::memory_order_release);
  AwaitPhase(c, kPhaseExit);
  client.CloseSend();
  client.Close();
  return 0;
}

/// Sink-side tallies, written only by the server's loop thread.
struct SinkStats {
  uint64_t traced_tuples = 0;
};

/// One engine + server + client, up to the connected state.
struct Rig {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<net::IngestServer> server;
  pid_t client = -1;
  double first_answer = 0;
  SinkStats sink;
};

bool SetUp(Rig& r, SharedControl& ctl, const std::vector<double>& data,
           uint64_t paced_batches, Tracer* tracer) {
  r.engine = std::make_unique<Engine>(kWindow, kShards, EngineOptions());
  for (uint64_t t = 0; t < kWindow; ++t) r.engine->push(data[t & (kInput - 1)]);
  r.first_answer = r.engine->query();
  Engine* e = r.engine.get();
  Control* c = &ctl.get();
  SpanLog* sink_log = tracer != nullptr ? tracer->log(1) : nullptr;
  SinkStats* stats = &r.sink;
  r.server = std::make_unique<net::IngestServer>(
      net::IngestServer::Options{.port = 0,
                                 .threads = 1,
                                 .backpressure = runtime::Backpressure::kBlock},
      [e, c, sink_log, stats](std::size_t) {
        auto prod = std::make_shared<Engine::Producer>(e->MakeProducer());
        return [prod, c, sink_log, stats](const net::WireTuple* tuples,
                                          std::size_t n) {
          const bool traced = c->trace.load(std::memory_order_relaxed) != 0;
          Scope s(traced ? sink_log : nullptr, kSpanSink, -1, tuples[0].ts);
          for (std::size_t i = 0; i < n; ++i) prod->push(tuples[i].v);
          prod->flush();
          if (s.recorded()) stats->traced_tuples += n;
          return n;
        };
      });
  if (!r.server->Start()) return false;
  const uint16_t port = r.server->port();
  SpanLog* client_log = tracer != nullptr ? tracer->log(2) : nullptr;
  r.client = ForkGenerator([&ctl, port, &data, paced_batches, client_log] {
    return ClientMain(port, ctl.get(), data, paced_batches, client_log);
  });
  return AwaitFlag(ctl->gen[0].ready, 30.0);
}

void TearDown(Rig& r, SharedControl& ctl) {
  ctl->phase.store(kPhaseExit, std::memory_order_release);
  if (r.client > 0) Reap(r.client);
  r.client = -1;
  if (r.server) r.server->Stop();
  r.server.reset();
  if (r.engine) r.engine->stop();
  r.engine.reset();
  ctl.Reset();
}

/// The global Sum answer against the exactly rounded sum of the last
/// kWindow stream tuples: with one connection and one Producer the
/// admitted order is the stream order, so the window is known exactly.
void CheckWindow(Engine& e, const std::vector<double>& data, uint64_t end,
                 bool corrupt, const char* what, Report& report) {
  const double got = e.query();
  double want = ExactSum(data, end, {kWindow})[0];
  if (corrupt) want *= 1.5;
  report.Check(SumMatches(got, want), what, got, want);
}

struct Phases {
  std::vector<double> sat_rates;     // untraced saturated slices
  std::vector<double> norm_rates;    // the same at reference core speed
  std::vector<double> traced_rates;  // traced saturated slices
  std::vector<double> lat_us;        // paced due-to-processed
  uint64_t total = 0;                // stream tuples admitted
  uint64_t paced_frames = 0;         // frames the server decoded while paced
};

/// Saturated then paced phase on a set-up rig, with every check.
void RunPhases(Rig& r, SharedControl& ctl, const std::vector<double>& data,
               const Options& opt, Phases& P, RssPeak& rss, Report& report) {
  Engine& e = *r.engine;
  const auto processed = [&e] { return e.stats().processed; };
  const double sat_s = opt.seconds * kSatShare;
  report.Check(r.first_answer > 0 &&
                   SumMatches(r.first_answer,
                              ExactSum(data, kWindow - 1, {kWindow})[0]),
               "tcp-ingest warm-fill answer", r.first_answer);
  ctl->phase.store(kPhaseSaturate, std::memory_order_release);
  if (opt.trace) {
    SampleAlternating(sat_s, ctl.get(), processed, P.sat_rates,
                      P.traced_rates);
  } else {
    const GenStats& client = ctl->gen[0];
    SampleThroughput(
        sat_s, processed, P.sat_rates,
        [&client] {
          return static_cast<double>(
                     client.slowdown_ppm.load(std::memory_order_relaxed)) *
                 1e-6;
        },
        &P.norm_rates);
  }
  ctl->phase.store(kPhaseStopSaturate, std::memory_order_release);
  GenStats& g = ctl->gen[0];
  report.Check(AwaitFlag(g.sat_done, 60.0), "tcp-ingest saturated phase ends");
  const uint64_t after_sat = kWindow + g.sat_tuples;
  report.Check(AwaitProcessed(e, after_sat, 60.0),
               "tcp-ingest saturated tuples processed",
               static_cast<double>(e.stats().processed),
               static_cast<double>(after_sat));
  rss.Sample();
  CheckWindow(e, data, after_sat - 1, opt.corrupt_oracle,
              "tcp-ingest answer after saturation", report);

  const uint64_t batches = PacedBatches(opt.seconds);
  const uint64_t t0 = NowNs() + 20'000'000;
  const uint64_t frames0 = r.server->snapshot().frames;
  ctl->paced_t0.store(t0, std::memory_order_release);
  ctl->phase.store(kPhasePaced, std::memory_order_release);
  ObservePaced(t0, kPacedPeriodNs, batches, kPacedFrame, after_sat,
                          30.0, processed,
               P.lat_us);
  report.Check(AwaitFlag(g.paced_done, 60.0), "tcp-ingest paced phase ends");
  report.Check(P.lat_us.size() == batches, "tcp-ingest paced batches seen",
               static_cast<double>(P.lat_us.size()),
               static_cast<double>(batches));
  P.total = after_sat + g.paced_tuples;
  report.Check(AwaitProcessed(e, P.total, 60.0),
               "tcp-ingest paced tuples processed",
               static_cast<double>(e.stats().processed),
               static_cast<double>(P.total));
  P.paced_frames = r.server->snapshot().frames - frames0;
  rss.Sample();
  CheckWindow(e, data, P.total - 1, false, "tcp-ingest final answer", report);
}

/// Conservation after the client left: sent = accepted = admitted =
/// processed, no frame error, no failed send.
void CheckConservation(Rig& r, SharedControl& ctl, const Phases& P,
                       Report& report) {
  const GenStats& g = ctl->gen[0];
  const uint64_t sent = g.sat_tuples + g.paced_tuples;
  const telemetry::IngestSnapshot in = r.server->snapshot();
  const Engine::Stats s = r.engine->stats();
  const auto diff = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  report.CheckCount(sent, diff(in.tuples_accepted, sent),
                    "tcp-ingest accepted == sent");
  report.CheckCount(sent, in.tuples_dropped, "tcp-ingest tuples dropped");
  report.CheckCount(sent, diff(s.admitted, P.total),
                    "tcp-ingest admitted == warm-fill + sent");
  report.CheckCount(sent, diff(s.processed, s.admitted) + s.dropped,
                    "tcp-ingest processed == admitted");
  const uint64_t frames = g.sat_frames + g.paced_frames;
  report.CheckCount(frames, diff(in.frames, frames) + in.frame_errors,
                    "tcp-ingest frames decoded == sent, no frame error");
  report.CheckCount(frames, g.failures, "tcp-ingest failed sends");
}

}  // namespace

void RunTcpIngest(const Options& opt, Report& report) {
  const std::vector<double> data = MakeInput(opt.seed, kInput);
  const uint64_t paced_batches = PacedBatches(opt.seconds);
  SharedControl ctl;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(3, kSpanCapacity);
  Phases P;
  Prefault(P.lat_us, paced_batches);
  Prefault(P.sat_rates, 1 << 14);
  Prefault(P.traced_rates, 1 << 14);
  Prefault(P.norm_rates, 1 << 14);
  RssPeak rss;

  // Set-up: engine construction and warm-fill, server start, client fork
  // and connect; median of 9, each at reference core speed (see
  // CoreSlowdown); the last rig is the one measured.
  Rig rig;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 9; ++rep) {
    if (rep > 0) TearDown(rig, ctl);
    const uint64_t t0 = NowNs();
    const bool up = SetUp(rig, ctl, data, paced_batches, tracer.get());
    const double s = static_cast<double>(NowNs() - t0) * 1e-9;
    setup_s.push_back(s / CoreSlowdown());
    if (!up) {
      report.Check(false, "tcp-ingest set-up (server start, connect)");
      TearDown(rig, ctl);
      return;
    }
  }

  rss.Sample();
  RunPhases(rig, ctl, data, opt, P, rss, report);
  ctl->phase.store(kPhaseExit, std::memory_order_release);
  report.Check(Reap(rig.client), "tcp-ingest client exit status");
  rig.client = -1;
  CheckConservation(rig, ctl, P, report);

  if (!opt.trace) {
    char note[160];
    std::snprintf(note, sizeof note,
                  "as timed: throughput %.0f tuples/s; at reference speed / "
                  "as timed %.3f",
                  Median(P.sat_rates),
                  Median(P.norm_rates) / std::max(1.0, Median(P.sat_rates)));
    report.Note(note);
    EmitEndToEnd(report, Median(P.norm_rates), P.lat_us, setup_s, rss);
    TearDown(rig, ctl);
    return;
  }

  LayerMetrics layers;
  const GenStats& g = ctl->gen[0];
  const telemetry::IngestSnapshot in = rig.server->snapshot();
  EmitRuntimeSnapshot(rig.engine->snapshot(), layers);
  layers.Set("core.memory_bytes",
             static_cast<double>(rig.engine->memory_bytes()));
  layers.Set("e2e.latency_p99_us", WindowedQuantile(P.lat_us, 0.99));
  layers.Set("net.frame_us_p50", HistQuantile(in.ingest_latency_ns, 0.5) * 1e-3);
  layers.Set("net.frame_us_p99", HistQuantile(in.ingest_latency_ns, 0.99) * 1e-3);
  layers.Set("net.frames", static_cast<double>(P.paced_frames));
  layers.Set("net.frame_errors", static_cast<double>(in.frame_errors));
  layers.Set("net.send_us_p50", g.send_p50_us);
  layers.Set("net.send_us_p99", g.send_p99_us);
  layers.Set("gen.lag_us_p99", g.lag_p99_us);
  const std::vector<double> self = tracer->SelfTimeByName();
  layers.Set("runtime.producer_flush_ns_per_tuple",
             self[kSpanSink] /
                 static_cast<double>(std::max<uint64_t>(1, rig.sink.traced_tuples)));
  layers.Set("trace.overhead_frac",
             1.0 - Median(P.traced_rates) / Median(P.sat_rates));
  EmitSelfTimes(*tracer, static_cast<double>(std::max<uint64_t>(1, g.traced_tuples)),
                layers);
  WriteTrace(*tracer, opt);
  TearDown(rig, ctl);

  // L0 peel: the stream through one bare Sum aggregator at a shard's
  // window, 256 tuples per BulkSlide.
  layers.Set("core.bulk_slide_ns_per_tuple",
             BulkSlideNsPerTuple<Agg>(data, kWindow / kShards));
  // L3 peel on the saturated phase's own frames.
  EmitFramePeel(data, kSatFrame, layers);
  layers.Finish(report);
}

}  // namespace perfbench
