#include "common.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "net/frame.h"
#include "stream/synthetic.h"
#include "util/serde.h"

namespace perfbench {

// Self time is charged to the layer named by a span's prefix.
static const char* const kLayers[] = {"bench", "engine", "runtime", "net",
                                      "shm"};

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"plan.build_us", "us"},
        {"engine.push_ns.max", "ns"},
        {"engine.push_ns.sum", "ns"},
        {"engine.answer_push_us_p99", "us"},
        {"engine.answers_per_tuple", "ratio"},
        {"core.combines_per_tuple", "ratio"},
        {"core.inverses_per_tuple", "ratio"},
        {"core.bulk_slide_ns_per_tuple", "ns"},
        {"core.memory_bytes", "bytes"},
        {"runtime.push_ns_per_tuple", "ns"},
        {"runtime.flush_us_p99", "us"},
        {"runtime.epoch_wait_us_p50", "us"},
        {"runtime.epoch_wait_us_p99", "us"},
        {"runtime.slide_us_p50", "us"},
        {"runtime.slide_us_p99", "us"},
        {"runtime.batch_size_p50", "count"},
        {"runtime.idle_poll_ratio", "ratio"},
        {"runtime.ring_highwater", "count"},
        {"runtime.producer_flush_ns_per_tuple", "ns"},
        {"net.send_us_p50", "us"},
        {"net.send_us_p99", "us"},
        {"net.frame_us_p50", "us"},
        {"net.frame_us_p99", "us"},
        {"net.encode_ns_per_tuple", "ns"},
        {"net.decode_ns_per_tuple", "ns"},
        {"net.frames", "count"},
        {"net.frame_errors", "count"},
        {"util.crc32_mb_s", "MB/s"},
        {"shm.attach_us", "us"},
        {"shm.push_ns_per_tuple", "ns"},
        {"shm.full_ratio", "ratio"},
        {"shm.leases_reclaimed", "count"},
        {"shm.slots_tombstoned", "count"},
        {"shm.zombie_fences", "count"},
        {"gen.lag_us_p99", "us"},
        {"trace.overhead_frac", "ratio"},
        {"check.failed_ratio", "ratio"},
        {"e2e.latency_p99_us", "us"},
    };
    static std::vector<std::string> self_names;
    for (const char* layer : kLayers) {
      self_names.push_back(std::string("self.") + layer + "_ns_per_tuple");
    }
    for (const std::string& n : self_names) d.push_back({n.c_str(), "ns"});
    return d;
  }();
  return defs;
}

LayerMetrics::LayerMetrics() {
  for (const MetricDef& d : PerLayerMetrics()) {
    metrics_.push_back({d.name, 0.0, d.unit});
  }
}

void WaitUntil(uint64_t t, uint64_t spin_ns) {
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= t) return;
    if (t - now > spin_ns) {
      const uint64_t nap = t - now - spin_ns;
      timespec ts{static_cast<time_t>(nap / 1'000'000'000),
                  static_cast<long>(nap % 1'000'000'000)};
      nanosleep(&ts, nullptr);
    }
  }
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double CentralQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double half = std::max(1.0, n * 0.001);
  const double center = q * (n - 1);
  const auto lo = static_cast<std::size_t>(std::max(0.0, center - half));
  const auto hi =
      static_cast<std::size_t>(std::min(n - 1, std::ceil(center + half)));
  double s = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo + 1);
}

double WindowedQuantile(const std::vector<double>& time_ordered, double q) {
  constexpr std::size_t kWindows = 10;
  const std::size_t n = time_ordered.size();
  if (n < kWindows * 100) {
    return CentralQuantile(time_ordered, q);
  }
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kWindows; ++w) {
    std::vector<double> part(time_ordered.begin() + w * n / kWindows,
                             time_ordered.begin() + (w + 1) * n / kWindows);
    per_window.push_back(CentralQuantile(part, q));
  }
  return Median(per_window);
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double HistQuantile(const slick::telemetry::LatencyHistogram::Snapshot& s,
                    double q) {
  using H = slick::telemetry::LatencyHistogram;
  const uint64_t n = s.total();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n - 1);
  uint64_t seen = 0;
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    const uint64_t c = s.counts[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) > rank) {
      const double lo = static_cast<double>(H::BucketLower(i));
      const double width = static_cast<double>(H::BucketUpper(i)) - lo + 1.0;
      const double within =
          (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(c);
      return lo + width * within;
    }
    seen += c;
  }
  return 0.0;
}

uint64_t ResidentKb() {
  // Sums the Rss of every mapping that is not a file of the file system:
  // anonymous memory, heap, stack and shared memory (/dev/shm, memfd,
  // MAP_SHARED anonymous). Code and data pages of the binary and its
  // libraries fault in late and in 64 kB fault-around chunks; they are not
  // the engine's memory and made the figure jump by 16 pages from run to
  // run.
  std::ifstream in("/proc/self/smaps");
  std::string line;
  uint64_t kb = 0;
  bool counted = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const char c = line[0];
    const bool header = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (header && line.find('-') < line.find(' ')) {
      // address perms offset dev inode [path]
      std::istringstream fields(line);
      std::string addr, perms, offset, dev, inode, path;
      fields >> addr >> perms >> offset >> dev >> inode >> path;
      counted = path.empty() || path[0] != '/' ||
                path.rfind("/dev/", 0) == 0 || path.rfind("/memfd:", 0) == 0 ||
                path.rfind("/SYSV", 0) == 0;
      continue;
    }
    if (counted && line.rfind("Rss:", 0) == 0) {
      kb += std::strtoull(line.c_str() + 4, nullptr, 10);
    }
  }
  return kb;
}

double CoreProbeNs() {
  // Eight independent chains of 1-cycle integer ops (the multiplies compile
  // to lea): bound by the core's ALU ports, like the engines' loops, so it
  // slows when the physical core's other hardware thread is busy. A chain
  // bound by latency (imul) barely notices that.
  constexpr int kIters = 1 << 16;
  uint64_t x0 = 1, x1 = 2, x2 = 3, x3 = 4, x4 = 5, x5 = 6, x6 = 7, x7 = 8;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    x0 = x0 * 3 + x1;
    x1 ^= x1 >> 3;
    x2 = x2 * 5 + x3;
    x3 ^= x3 << 7;
    x4 = x4 * 7 + x5;
    x5 ^= x5 >> 11;
    x6 = x6 * 9 + x7;
    x7 ^= x7 << 5;
  }
  const double ns = static_cast<double>(NowNs() - t0) / kIters;
  static volatile uint64_t sink;
  sink = sink + (x0 ^ x1 ^ x2 ^ x3 ^ x4 ^ x5 ^ x6 ^ x7);
  return ns;
}

std::vector<double> MakeInput(uint64_t seed, std::size_t count) {
  slick::stream::SyntheticSensorSource src(seed);
  return src.MakeEnergySeries(count, 0);
}

void Report::Check(bool ok, const char* what, double got, double want) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s: got %.17g want %.17g\n",
                 what, got, want);
  }
}

void Report::CheckCount(uint64_t n, uint64_t bad, const char* what) {
  attempted_ += n;
  if (bad == 0) return;
  failed_ += bad;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s: %llu of %llu\n", what,
               static_cast<unsigned long long>(bad),
               static_cast<unsigned long long>(n));
}

int Report::Emit() const {
  const bool correct = failed_ == 0 && attempted_ > 0;
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Entry& m : metrics_) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("# checked %llu operations, %llu failed\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::ostringstream js;
  js.precision(12);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    js << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void EmitEndToEnd(Report& report, double throughput_tps,
                  const std::vector<double>& lat_us,
                  const std::vector<double>& setup_s, const RssPeak& rss) {
  char note[160];
  std::snprintf(note, sizeof note,
                "latency_p99_us %.3f over %zu samples (reported, not gated; "
                "STEADINESS.md)",
                WindowedQuantile(lat_us, 0.99), lat_us.size());
  report.Note(note);
  report.Metric("throughput_tps", throughput_tps, "tuples/s");
  report.Metric("latency_p50_us", CentralQuantile(lat_us, 0.50), "us");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", rss.GrowthMb(), "MB");
  report.Metric("ok_ratio", 1.0 - report.FailedRatio(), "ratio");
}

void EmitRuntimeSnapshot(const slick::telemetry::RuntimeSnapshot& snap,
                         LayerMetrics& layers) {
  uint64_t idle = 0, batches = 0, highwater = 0;
  for (const auto& s : snap.shards) {
    idle += s.idle_polls;
    batches += s.batches;
    highwater = std::max(highwater, s.ring_highwater);
  }
  layers.Set("runtime.slide_us_p50",
             HistQuantile(snap.batch_latency_ns, 0.50) * 1e-3);
  layers.Set("runtime.slide_us_p99",
             HistQuantile(snap.batch_latency_ns, 0.99) * 1e-3);
  layers.Set("runtime.batch_size_p50", HistQuantile(snap.batch_sizes, 0.50));
  layers.Set("runtime.idle_poll_ratio",
             static_cast<double>(idle) /
                 static_cast<double>(std::max<uint64_t>(1, idle + batches)));
  layers.Set("runtime.ring_highwater", static_cast<double>(highwater));
}

// ------------------------------- oracles --------------------------------

std::vector<double> RefoldMax(const std::vector<double>& data, uint64_t end,
                              const std::vector<uint64_t>& ranges) {
  const std::size_t n = data.size();
  std::vector<double> out;
  double m = -INFINITY;
  uint64_t k = 0;
  for (uint64_t r : ranges) {
    for (; k < r; ++k) m = std::max(m, data[(end - k) % n]);
    out.push_back(m);
  }
  return out;
}

namespace {

// Shewchuk's exact accumulation: `partials` stays a non-overlapping
// expansion whose exact sum is the sum of every value added.
void AddExact(std::vector<double>& partials, double x) {
  std::size_t i = 0;
  for (double y : partials) {
    if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
    const double hi = x + y;
    const double lo = y - (hi - x);
    if (lo != 0.0) partials[i++] = lo;
    x = hi;
  }
  partials.resize(i);
  partials.push_back(x);
}

// Correctly rounded value of an expansion (math.fsum's final step).
double RoundExact(const std::vector<double>& p) {
  std::size_t n = p.size();
  if (n == 0) return 0.0;
  double hi = p[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = p[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0 && p[n - 1] < 0) || (lo > 0 && p[n - 1] > 0))) {
    const double y = lo * 2;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

}  // namespace

std::vector<double> ExactSum(const std::vector<double>& data, uint64_t end,
                             const std::vector<uint64_t>& ranges) {
  const std::size_t n = data.size();
  std::vector<double> out;
  std::vector<double> partials;
  uint64_t k = 0;
  for (uint64_t r : ranges) {
    for (; k < r; ++k) AddExact(partials, data[(end - k) % n]);
    out.push_back(RoundExact(partials));
  }
  return out;
}

// ----------------------------- span tracing ------------------------------

const char* SpanNameStr(uint16_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "bench.run",      "bench.batch",    "plan.build",
      "engine.push.max", "engine.push.sum", "runtime.push",
      "runtime.flush",  "runtime.query",  "runtime.producer_flush",
      "net.send",       "shm.push",
  };
  return name < kSpanNameCount ? kNames[name] : "?";
}

Tracer::Tracer(std::size_t logs, uint64_t capacity_per_log)
    : logs_(logs),
      stride_((SpanLog::BytesFor(capacity_per_log) + 63) & ~std::size_t{63}) {
  void* p = mmap(nullptr, logs_ * stride_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("perfbench: span log mmap");
    std::abort();
  }
  base_ = static_cast<char*>(p);
  for (std::size_t i = 0; i < logs_; ++i) {
    SpanLog* l = log(i);
    l->count = 0;
    l->dropped = 0;
    l->capacity = capacity_per_log;
  }
}

Tracer::~Tracer() { munmap(base_, logs_ * stride_); }

std::vector<double> Tracer::SelfTimeByName() {
  std::vector<double> self(kSpanNameCount, 0.0);
  for (std::size_t li = 0; li < logs_; ++li) {
    SpanLog* l = log(li);
    std::vector<double> child(l->count, 0.0);
    for (uint64_t i = 0; i < l->count; ++i) {
      const Span& s = l->spans[i];
      if (s.parent >= 0 && s.end >= s.start) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (uint64_t i = 0; i < l->count; ++i) {
      const Span& s = l->spans[i];
      if (s.end < s.start) continue;  // never closed
      self[s.name] += static_cast<double>(s.end - s.start) - child[i];
    }
  }
  return self;
}

std::vector<double> Tracer::Durations(uint16_t name) {
  std::vector<double> out;
  for (std::size_t li = 0; li < logs_; ++li) {
    SpanLog* l = log(li);
    for (uint64_t i = 0; i < l->count; ++i) {
      const Span& s = l->spans[i];
      if (s.name == name && s.end >= s.start) {
        out.push_back(static_cast<double>(s.end - s.start));
      }
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log,name,start_ns,end_ns,parent,batch\n");
  for (std::size_t li = 0; li < logs_; ++li) {
    SpanLog* l = log(li);
    for (uint64_t i = 0; i < l->count; ++i) {
      const Span& s = l->spans[i];
      std::fprintf(f, "%zu,%s,%llu,%llu,%d,%llu\n", li, SpanNameStr(s.name),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.batch));
    }
  }
  return std::fclose(f) == 0;
}

void EmitSelfTimes(Tracer& tracer, double tuples, LayerMetrics& layers) {
  const std::vector<double> self = tracer.SelfTimeByName();
  for (const char* layer : kLayers) {
    double ns = 0.0;
    const std::size_t len = std::strlen(layer);
    for (uint16_t n = 0; n < kSpanNameCount; ++n) {
      const char* name = SpanNameStr(n);
      if (std::strncmp(name, layer, len) == 0 && name[len] == '.') {
        ns += self[n];
      }
    }
    layers.Set(std::string("self.") + layer + "_ns_per_tuple",
               tuples > 0 ? ns / tuples : 0.0);
  }
}

void WriteTrace(Tracer& tracer, const Options& opt) {
  // Create each missing directory of out_dir (relative to the checkout).
  std::string dir;
  std::stringstream parts(opt.out_dir);
  std::string part;
  while (std::getline(parts, part, '/')) {
    dir += part;
    if (!dir.empty()) mkdir(dir.c_str(), 0755);
    dir += '/';
  }
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv";
  uint64_t dropped = 0;
  for (std::size_t i = 0; i < tracer.logs(); ++i) {
    dropped += tracer.log(i)->dropped;
  }
  if (tracer.Write(path)) {
    std::fprintf(stderr, "perfbench: spans written to %s (%llu over cap)\n",
                 path.c_str(), static_cast<unsigned long long>(dropped));
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

// ---------------------- L3 peel: frame encode / decode -------------------

void EmitFramePeel(const std::vector<double>& data, std::size_t frame_tuples,
                   LayerMetrics& layers) {
  using slick::net::WireTuple;
  // The workload's own frames: consecutive stream tuples, timestamped by
  // stream position, `frame_tuples` per frame, over the first 2^20 tuples.
  const std::size_t total = std::size_t{1} << 20;
  const std::size_t frames = total / frame_tuples;
  std::vector<WireTuple> tuples(total);
  for (std::size_t i = 0; i < total; ++i) {
    tuples[i] = WireTuple{i + 1, data[i % data.size()]};
  }
  std::vector<double> enc_ns, dec_ns, crc_mbs;
  std::string wire;
  std::vector<WireTuple> out;
  uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    wire.clear();
    uint64_t t0 = NowNs();
    for (std::size_t f = 0; f < frames; ++f) {
      slick::net::EncodeBatch(&tuples[f * frame_tuples], frame_tuples, &wire);
    }
    uint64_t t1 = NowNs();
    enc_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(total));
    slick::net::FrameDecoder dec;
    t0 = NowNs();
    // Feed in 64 KiB reads, as a socket would deliver them.
    for (std::size_t off = 0; off < wire.size(); off += 65536) {
      dec.Feed(wire.data() + off, std::min<std::size_t>(65536, wire.size() - off));
      while (dec.Next(&out) == slick::net::FrameDecoder::Status::kFrame) {
        sink += out.size();
      }
    }
    t1 = NowNs();
    dec_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(total));
    // CRC alone over the same payload bytes.
    const std::size_t payload = slick::net::kBatchHeaderBytes +
                                frame_tuples * sizeof(WireTuple);
    const std::size_t frame_bytes = slick::net::kFrameHeaderBytes + payload;
    t0 = NowNs();
    uint32_t crc = 0;
    for (std::size_t f = 0; f < frames; ++f) {
      crc ^= slick::util::Crc32(std::string_view(
          wire.data() + f * frame_bytes + slick::net::kFrameHeaderBytes,
          payload));
    }
    t1 = NowNs();
    sink += crc;
    crc_mbs.push_back(static_cast<double>(frames * payload) /
                      (static_cast<double>(t1 - t0) * 1e-9) / 1e6);
  }
  if (sink == 0) std::fprintf(stderr, "perfbench: empty frame peel\n");
  layers.Set("net.encode_ns_per_tuple", Median(enc_ns));
  layers.Set("net.decode_ns_per_tuple", Median(dec_ns));
  layers.Set("util.crc32_mb_s", Median(crc_mbs));
}

}  // namespace perfbench
