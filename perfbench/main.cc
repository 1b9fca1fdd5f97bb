// Serving benchmark program. One process runs one workload for one seed:
//   1. generates a Table-VIII-style lake and query charts with benchgen,
//   2. trains the FCM model with a fixed configuration,
//   3. sets the engine up (build, plus snapshot save/open on the
//      snapshot-served workload),
//   4. serves the workload through the public index API for --seconds,
//   5. checks every served ranking,
//   6. sets the engine up twice more, with the serving engine released,
//      for the median set-up time, and
//   7. prints the end-to-end metrics (--trace 0) or the per-layer metrics
//      (--trace 1) as the last line of stdout.
// Workloads, metrics and the reasons for each are in perfbench/README.md.
//
// Usage: perfbench --workload <scan-closed|hybrid-async>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchmark.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/fcm_model.h"
#include "core/training.h"
#include "eval/metrics.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "trace.h"
#include "vision/classical_extractor.h"

namespace {

using Clock = std::chrono::steady_clock;
using fcm::index::AsyncSearchService;
using fcm::index::EpochPin;
using fcm::index::IndexStrategy;
using fcm::index::SearchEngine;
using fcm::index::SearchHit;
using fcm::table::TableId;
using fcm::vision::ExtractedChart;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ---- Fixed benchmark configuration (shared by every workload) ----
// The corpus (lake, query charts, ground truth, training set, and so the
// trained model) comes from this fixed benchgen seed; --seed draws the
// traffic: the order in which each client sends the distinct queries.
// README.md explains why the corpus does not follow --seed.
constexpr uint64_t kCorpusSeed = 2024;
constexpr int kTopK = 6;             // k of every query; = duplicates.
constexpr int kDuplicates = 6;       // Noisy near-duplicates per query.
constexpr int kGroundTruthResample = 64;
constexpr int kTrainingTables = 16;  // x2 charts each = 32 triplets.
// setup_s is the median of kSetupReps set-ups: the first gives the serving
// engine, the rest run after serving, so that one burst of co-tenant load
// does not slow all of them.
constexpr int kSetupReps = 3;
// Twelve tables per publish keep the table-parallel encode balanced over
// the pool, so one descheduled worker does not set the publish time.
constexpr int kIngestBatchTables = 12;
constexpr int kIdleIngestBatches = 24;
constexpr int kPrefilterKeep = 4 * kTopK;
constexpr int kCoreProbeTables = 24;
// Requests kept in flight through AsyncSearchService: hybrid-async's
// window, and the async loop a traced scan-closed run makes after its
// window for kAsyncProbeSeconds.
constexpr size_t kInFlight = 4;
constexpr double kAsyncProbeSeconds = 3.0;

// Each workload has one load-generator thread; the engine pool gets the
// rest of the machine.
struct Workload {
  const char* name;
  int query_tables;  // Distinct query charts.
  int extra_tables;  // Background tables.
  IndexStrategy strategy;
  // Serve through AsyncSearchService from an OpenSnapshot (mmap) engine;
  // otherwise call Search on the built engine.
  bool async_snapshot;
};

const Workload kWorkloads[] = {
    {"scan-closed", 24, 0, IndexStrategy::kNoIndex, false},
    {"hybrid-async", 40, 120, IndexStrategy::kHybrid, true},
};

// ---- Small helpers ----

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Returns freed heap pages to the kernel, then resets the resident-set
/// high-water mark (VmHWM) to the current resident set, so a later
/// PeakRssMb covers what is live now plus what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM from /proc/self/status: the peak resident set since the process
/// started or since the last ResetPeakRss.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // The line is in kB.
    }
  }
  return 0.0;
}

std::string LoadAverage() {
  std::ifstream f("/proc/loadavg");
  std::string a, b, c;
  if (!(f >> a >> b >> c)) return "unknown";
  return a + " " + b + " " + c;
}

/// (steal, total) jiffies over all CPUs from /proc/stat: steal is time
/// the hypervisor ran someone else while the machine's vCPUs were ready.
std::pair<double, double> StealJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  f >> cpu;
  double total = 0.0;
  for (double& x : v) {
    if (!(f >> x)) break;
    total += x;
  }
  return {v[7], total};
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::vector<TableId> Ids(const std::vector<SearchHit>& hits) {
  std::vector<TableId> ids;
  for (const SearchHit& h : hits) ids.push_back(h.table_id);
  return ids;
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical: same ids in the same order and the same score bits.
    if (a[i].table_id != b[i].table_id) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// |top-k(a) ∩ top-k(b)| / |top-k(b)|; 1 when b is empty.
double Overlap(const std::vector<SearchHit>& a,
               const std::vector<SearchHit>& b) {
  if (b.empty()) return 1.0;
  std::set<TableId> want;
  for (const SearchHit& h : b) want.insert(h.table_id);
  size_t hit = 0;
  for (const SearchHit& h : a) hit += want.count(h.table_id);
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

// ---- Metric output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << buf << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
};

/// Attempted / failed operations, by kind.
struct OpCounts {
  uint64_t queries = 0, queries_failed = 0;
  uint64_t ingests = 0, ingests_failed = 0;
  uint64_t compactions = 0, compactions_failed = 0;
  uint64_t attempted() const { return queries + ingests + compactions; }
  uint64_t failed() const {
    return queries_failed + ingests_failed + compactions_failed;
  }
};

// ---- Inputs and model ----

fcm::benchgen::Benchmark MakeCorpus(const Workload& w) {
  fcm::benchgen::BenchmarkConfig config;
  config.num_training_tables = kTrainingTables;
  config.num_query_tables = w.query_tables;
  config.extra_lake_tables = w.extra_tables;
  config.duplicates_per_query = kDuplicates;
  config.ground_truth_k = kTopK;
  config.ground_truth_resample = kGroundTruthResample;
  config.seed = kCorpusSeed;
  fcm::vision::ClassicalExtractor extractor;
  return fcm::benchgen::BuildBenchmark(config, extractor);
}

fcm::core::TrainOptions TrainConfig() {
  fcm::core::TrainOptions options;
  options.epochs = 1;
  options.pretrain_pairs = 0;
  options.validation_fraction = 0.0;
  options.seed = 123;
  return options;
}

// ---- Serving paths ----

/// One served query: which distinct query, and its ranking.
struct Served {
  int query = 0;
  std::vector<SearchHit> hits;
};

/// Runs the three engine stages for one query under one pin, exactly as
/// SearchEngine::Search composes them, with a span around each call.
std::vector<SearchHit> StagedSearch(const SearchEngine& engine,
                                    const ExtractedChart& query,
                                    IndexStrategy strategy, Tracer* tracer,
                                    uint64_t request, size_t* pairs) {
  ScopedSpan root(tracer, "query", 0, request);
  EpochPin pin;
  {
    ScopedSpan span(tracer, "engine.pin_epoch", root.id(), request);
    pin = engine.PinEpoch();
  }
  std::vector<SearchEngine::StagedQuery> staged(1);
  staged[0].query = &query;
  staged[0].strategy = strategy;
  staged[0].k = kTopK;
  std::vector<std::vector<SearchHit>> hits;
  if (!query.lines.empty()) {
    {
      ScopedSpan span(tracer, "engine.encode", root.id(), request);
      engine.EncodeStage(&staged);
    }
    {
      ScopedSpan span(tracer, "engine.candidate", root.id(), request);
      engine.CandidateStage(&staged, nullptr, pin);
    }
    {
      ScopedSpan span(tracer, "engine.score", root.id(), request);
      hits = engine.ScoreStage(staged, nullptr, nullptr, pin);
    }
  }
  *pairs = staged[0].candidates.size();
  return hits.empty() ? std::vector<SearchHit>{} : std::move(hits[0]);
}

/// Closed-loop client: serves the distinct queries in seeded shuffled
/// rounds until `seconds` pass. With tracing on, every other query runs
/// the staged path under spans; the rest call Search, which gives the
/// tracing overhead from one run.
struct ClosedLoopResult {
  std::vector<double> latency_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<Served> served;
  size_t traced_pairs = 0;
  double wall_s = 0.0;
};

ClosedLoopResult RunClosedLoop(const SearchEngine& engine,
                               const std::vector<const ExtractedChart*>& qs,
                               IndexStrategy strategy, double seconds,
                               uint64_t seed, Tracer* tracer) {
  ClosedLoopResult r;
  fcm::common::Rng rng(seed);
  std::vector<int> order(qs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  uint64_t n = 0;
  while (Clock::now() < end) {
    rng.Shuffle(&order);
    for (int qi : order) {
      if (Clock::now() >= end) break;
      const bool traced = tracer->enabled() && (n % 2 == 1);
      Served s;
      s.query = qi;
      const auto t0 = Clock::now();
      if (traced) {
        size_t pairs = 0;
        s.hits = StagedSearch(engine, *qs[static_cast<size_t>(qi)], strategy,
                              tracer, n, &pairs);
        r.traced_pairs += pairs;
      } else {
        s.hits = engine.Search(*qs[static_cast<size_t>(qi)], kTopK, strategy);
      }
      const double ms = MsBetween(t0, Clock::now());
      r.latency_ms.push_back(ms);
      (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
      r.served.push_back(std::move(s));
      ++n;
    }
  }
  r.wall_s = SecondsSince(start);
  return r;
}

/// Closed-loop load through the async service: keeps kInFlight requests
/// outstanding for `seconds`, sending the next distinct query (seeded
/// shuffled rounds) as each one completes, so the queue and the
/// coalescing always have work while the backlog stays bounded. Latency
/// runs from Submit to completion; the pipeline completes requests in
/// order, so waiting on the oldest one observes each completion. With
/// tracing on, every timed request gets spans.
struct AsyncLoopResult {
  std::vector<double> latency_ms;
  std::vector<int> latency_query;  // Distinct query of each latency sample.
  std::vector<double> submit_ms;   // Time spent inside each Submit call.
  std::vector<double> react_ms;    // Completion observed -> next Submit.
  std::vector<Served> served;
  uint64_t attempted = 0, failed = 0, completed_in_window = 0;
  double wall_s = 0.0;  // Until the last completion inside the window.
  double cpu_s = 0.0;   // Process CPU over the window and the drain.
  fcm::index::AsyncServiceStats stats;  // The service's own counters.
};

AsyncLoopResult RunAsyncLoop(const SearchEngine& engine,
                             const std::vector<const ExtractedChart*>& qs,
                             IndexStrategy strategy, double seconds,
                             uint64_t seed, Tracer* tracer) {
  AsyncLoopResult r;
  AsyncSearchService service(&engine, fcm::index::AsyncServiceOptions{});
  fcm::common::Rng rng(seed);
  std::vector<int> order(qs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  size_t pos = order.size();
  struct Pending {
    int query;
    uint64_t index;
    Clock::time_point submit_start, submit_end;
    std::future<std::vector<SearchHit>> future;
  };
  std::deque<Pending> pending;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto submit = [&] {
    if (pos == order.size()) {
      rng.Shuffle(&order);
      pos = 0;
    }
    Pending p;
    p.query = order[pos++];
    p.index = r.attempted++;
    p.submit_start = Clock::now();
    p.future = service.Submit(*qs[static_cast<size_t>(p.query)], kTopK,
                              strategy);
    p.submit_end = Clock::now();
    if (p.submit_end < end) {
      r.submit_ms.push_back(MsBetween(p.submit_start, p.submit_end));
    }
    pending.push_back(std::move(p));
  };
  const double cpu0 = CpuSeconds();
  while (pending.size() < kInFlight) submit();
  while (!pending.empty()) {
    Pending& front = pending.front();
    Served s;
    s.query = front.query;
    bool ok = true;
    try {
      s.hits = front.future.get();
    } catch (const std::exception&) {
      ok = false;
    }
    const auto done = Clock::now();
    if (!ok) {
      ++r.failed;
    } else {
      // Requests still draining after the window are checked, not timed.
      if (done < end) {
        const double ms = MsBetween(front.submit_start, done);
        r.latency_ms.push_back(ms);
        r.latency_query.push_back(front.query);
        if (tracer->enabled()) {
          const int64_t root = tracer->Record("request", 0, front.index,
                                              front.submit_start, done);
          tracer->Record("async.submit", root, front.index,
                         front.submit_start, front.submit_end);
          tracer->Record("async.service", root, front.index,
                         front.submit_end, done);
        }
        ++r.completed_in_window;
        r.wall_s = SecondsSince(start);
      }
      r.served.push_back(std::move(s));
    }
    pending.pop_front();
    if (done < end) {
      submit();
      r.react_ms.push_back(MsBetween(done, pending.back().submit_start));
    }
  }
  r.cpu_s = CpuSeconds() - cpu0;
  service.Shutdown(true);
  r.stats = service.stats();
  return r;
}

// ---- Setup ----

struct SetupResult {
  std::vector<double> setup_s, build_encode_s, build_lsh_s, build_interval_s;
  std::vector<double> save_ms, open_ms;
  double snapshot_mb = 0.0;
};

double FileMb(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<double>(f.tellg()) / (1024.0 * 1024.0) : 0.0;
}

/// One set-up as a deployment pays it: BuildWithOptions, plus SaveSnapshot
/// and OpenSnapshot (mmap) on the snapshot-served workload. Appends its
/// times to `r` and returns the engine to serve, or null on a failure.
std::unique_ptr<SearchEngine> SetUpOnce(const Workload& w,
                                        const fcm::core::FcmModel& model,
                                        const fcm::table::DataLake& lake,
                                        int threads,
                                        const std::string& snapshot_path,
                                        Tracer* tracer, int rep,
                                        SetupResult* r) {
  fcm::index::SearchEngineOptions options;
  options.num_threads = threads;
  const uint64_t request = 1000000000ull + static_cast<uint64_t>(rep);
  ScopedSpan root(tracer, "setup", 0, request);
  auto built = std::make_unique<SearchEngine>(&model, &lake);
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, "setup.build", root.id(), request);
    built->BuildWithOptions(options);
  }
  const double seconds = SecondsSince(t0);
  const auto& bs = built->build_stats();
  r->build_encode_s.push_back(bs.encode_seconds);
  r->build_lsh_s.push_back(bs.lsh_build_seconds);
  r->build_interval_s.push_back(bs.interval_build_seconds);
  if (!w.async_snapshot) {
    r->setup_s.push_back(seconds);
    return built;
  }
  const auto t_save = Clock::now();
  fcm::common::Status saved;
  {
    ScopedSpan span(tracer, "storage.save", root.id(), request);
    saved = built->SaveSnapshot(snapshot_path);
  }
  const double save_ms = MsBetween(t_save, Clock::now());
  built.reset();
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: SaveSnapshot failed: %s\n",
                 saved.ToString().c_str());
    return nullptr;
  }
  r->snapshot_mb = FileMb(snapshot_path);
  fcm::index::SnapshotOpenOptions open_options;
  open_options.num_threads = threads;
  open_options.use_mmap = true;
  const auto t_open = Clock::now();
  auto opened = [&] {
    ScopedSpan span(tracer, "storage.open", root.id(), request);
    return SearchEngine::OpenSnapshot(snapshot_path, open_options);
  }();
  const double open_ms = MsBetween(t_open, Clock::now());
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: OpenSnapshot failed: %s\n",
                 opened.status().ToString().c_str());
    return nullptr;
  }
  r->save_ms.push_back(save_ms);
  r->open_ms.push_back(open_ms);
  r->setup_s.push_back(seconds + (save_ms + open_ms) / 1e3);
  return std::move(opened).ValueOrDie();
}

// ---- Idle ingestion (workloads without a writer) ----

struct IngestResult {
  std::vector<double> publish_ms, encode_ms, lsh_ms, interval_ms, compact_ms;
  size_t delta_segments_max = 0;
};

/// Appends kIdleIngestBatches fixed-size batches (copies of lake tables)
/// to an otherwise idle engine, then compacts once.
IngestResult IdleIngest(SearchEngine* engine, const fcm::table::DataLake& lake,
                        OpCounts* ops, Tracer* tracer) {
  IngestResult r;
  size_t next = 0;
  for (int b = 0; b < kIdleIngestBatches; ++b) {
    std::vector<fcm::table::Table> batch;
    for (int j = 0; j < kIngestBatchTables; ++j) {
      batch.push_back(lake.Get(static_cast<TableId>(next++ % lake.size())));
    }
    fcm::index::IngestStats stats;
    const uint64_t request = 2000000000ull + static_cast<uint64_t>(b);
    const auto t0 = Clock::now();
    fcm::common::Status st;
    {
      ScopedSpan span(tracer, "ingest.publish", 0, request);
      st = engine->IngestBatch(std::move(batch), &stats);
    }
    const double ms = MsBetween(t0, Clock::now());
    ++ops->ingests;
    if (!st.ok()) {
      ++ops->ingests_failed;
      continue;
    }
    r.publish_ms.push_back(ms);
    r.encode_ms.push_back(stats.encode_seconds * 1e3);
    r.lsh_ms.push_back(stats.lsh_seconds * 1e3);
    r.interval_ms.push_back(stats.interval_seconds * 1e3);
    r.delta_segments_max = std::max(r.delta_segments_max, stats.delta_segments);
  }
  fcm::index::CompactStats cs;
  ++ops->compactions;
  ScopedSpan span(tracer, "ingest.compact", 0, 2100000000ull);
  if (engine->Compact(&cs).ok()) {
    r.compact_ms.push_back(cs.seconds * 1e3);
  } else {
    ++ops->compactions_failed;
  }
  return r;
}

// ---- Correctness ----

/// Counts served rankings that differ from `reference` (per distinct
/// query, one fixed epoch).
uint64_t CountMismatches(const std::vector<Served>& served,
                         const std::vector<std::vector<SearchHit>>& reference) {
  uint64_t bad = 0;
  for (const Served& s : served) {
    if (!SameHits(s.hits, reference[static_cast<size_t>(s.query)])) ++bad;
  }
  return bad;
}

struct Quality {
  double prec = 0.0, ndcg = 0.0, recall = 0.0;
};

/// prec/ndcg against the ground truth and recall against `exhaustive`.
Quality Grade(const std::vector<std::vector<SearchHit>>& ranked,
              const std::vector<std::vector<SearchHit>>& exhaustive,
              const fcm::benchgen::Benchmark& bench) {
  Quality q;
  const double n = static_cast<double>(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    const auto ids = Ids(ranked[i]);
    q.prec += fcm::eval::PrecisionAtK(ids, bench.queries[i].relevant, kTopK);
    q.ndcg += fcm::eval::NdcgAtK(ids, bench.queries[i].relevant, kTopK);
    q.recall += Overlap(ranked[i], exhaustive[i]);
  }
  q.prec /= n;
  q.ndcg /= n;
  q.recall /= n;
  return q;
}

std::vector<std::vector<SearchHit>> SearchAll(
    const SearchEngine& engine, const std::vector<const ExtractedChart*>& qs,
    IndexStrategy strategy, const EpochPin& pin) {
  std::vector<std::vector<SearchHit>> out;
  for (const ExtractedChart* q : qs) {
    out.push_back(engine.Search(*q, kTopK, strategy, nullptr, pin));
  }
  return out;
}

// ---- Per-layer probes (traced run only) ----

/// Each distinct query replayed one at a time on the idle engine, twice:
/// through Search (its service time, which the async overhead subtracts
/// from async latency) and through the staged path under `tracer`.
struct Replay {
  std::vector<double> search_ms, staged_ms;
};

Replay ReplayQueries(const SearchEngine& engine,
                     const std::vector<const ExtractedChart*>& qs,
                     IndexStrategy strategy, Tracer* tracer,
                     uint64_t request_base) {
  Replay r;
  for (size_t i = 0; i < qs.size(); ++i) {
    auto t0 = Clock::now();
    engine.Search(*qs[i], kTopK, strategy);
    r.search_ms.push_back(MsBetween(t0, Clock::now()));
    size_t pairs = 0;
    t0 = Clock::now();
    StagedSearch(engine, *qs[i], strategy, tracer, request_base + i, &pairs);
    r.staged_ms.push_back(MsBetween(t0, Clock::now()));
  }
  return r;
}

/// The async layer as one closed async loop saw it: the service's own
/// batch counters, and each request's latency minus its query's service
/// time (queue wait, coalescing and hand-offs).
void AddAsyncMetrics(const AsyncLoopResult& loop,
                     const std::vector<double>& service_ms, Metrics* m) {
  std::vector<double> overhead;
  for (size_t i = 0; i < loop.latency_ms.size(); ++i) {
    overhead.push_back(loop.latency_ms[i] -
                       service_ms[static_cast<size_t>(loop.latency_query[i])]);
  }
  const auto& stats = loop.stats;
  m->Add("async.batch_size_avg",
         stats.batches ? static_cast<double>(stats.completed) /
                             static_cast<double>(stats.batches)
                       : 0.0,
         "count");
  m->Add("async.batches", static_cast<double>(stats.batches), "count");
  m->Add("async.overhead_ms_p50", Quantile(overhead, 0.5), "ms");
  m->Add("async.overhead_ms_p95", Quantile(overhead, 0.95), "ms");
  m->Add("async.submit_block_ms_p95", Quantile(loop.submit_ms, 0.95), "ms");
  m->Add("loadgen.late_ms_p95", Quantile(loop.react_ms, 0.95), "ms");
}

/// CandidateStage under every strategy on the same queries (kept ratios
/// against the exhaustive candidate set) plus each strategy's top-k
/// recall against kNoIndex, on one pinned epoch.
void AddIndexMetrics(const SearchEngine& engine,
                     const fcm::core::FcmModel& model,
                     const fcm::table::DataLake& lake, int threads,
                     const std::vector<const ExtractedChart*>& qs,
                     const std::vector<std::vector<SearchHit>>& exhaustive,
                     Metrics* m) {
  const EpochPin pin = engine.PinEpoch();
  const IndexStrategy strategies[] = {IndexStrategy::kNoIndex,
                                      IndexStrategy::kIntervalTree,
                                      IndexStrategy::kLsh,
                                      IndexStrategy::kHybrid};
  auto count_candidates = [&](const SearchEngine& e, IndexStrategy s) {
    std::vector<SearchEngine::StagedQuery> staged;
    for (const ExtractedChart* q : qs) {
      if (q->lines.empty()) continue;
      SearchEngine::StagedQuery sq;
      sq.query = q;
      sq.strategy = s;
      sq.k = kTopK;
      staged.push_back(std::move(sq));
    }
    e.EncodeStage(&staged);
    e.CandidateStage(&staged, nullptr, &e == &engine ? pin : nullptr);
    double total = 0.0;
    for (const auto& sq : staged) total += static_cast<double>(sq.candidates.size());
    return total;
  };
  double counts[4];
  for (int i = 0; i < 4; ++i) counts[i] = count_candidates(engine, strategies[i]);
  const double all = std::max(counts[0], 1.0);
  m->Add("index.interval_kept_ratio", counts[1] / all, "ratio");
  m->Add("index.lsh_kept_ratio", counts[2] / all, "ratio");
  m->Add("index.hybrid_kept_ratio", counts[3] / all, "ratio");

  // The served engines run with the default mean_prefilter = 0; this
  // engine keeps kPrefilterKeep candidates per query after the hybrid
  // pruning, so its kept share is measured against the served hybrid set.
  fcm::index::SearchEngineOptions options;
  options.num_threads = threads;
  options.mean_prefilter = kPrefilterKeep;
  SearchEngine prefiltered(&model, &lake);
  prefiltered.BuildWithOptions(options);
  m->Add("index.prefilter_kept_ratio",
         count_candidates(prefiltered, IndexStrategy::kHybrid) /
             std::max(counts[3], 1.0),
         "ratio");

  const char* recall_names[] = {"", "index.interval_recall_at_k",
                                "index.lsh_recall_at_k",
                                "index.hybrid_recall_at_k"};
  for (int i = 1; i < 4; ++i) {
    double recall = 0.0;
    for (size_t q = 0; q < qs.size(); ++q) {
      recall += Overlap(engine.Search(*qs[q], kTopK, strategies[i], nullptr, pin),
                        exhaustive[q]);
    }
    m->Add(recall_names[i], recall / static_cast<double>(qs.size()), "ratio");
  }
}

/// Single-thread timings of the core model calls on this workload's own
/// query charts and lake tables.
void AddCoreMetrics(const fcm::core::FcmModel& model,
                    const fcm::table::DataLake& lake,
                    const std::vector<const ExtractedChart*>& qs,
                    double train_s, Metrics* m) {
  using fcm::core::FcmModel;
  std::vector<fcm::core::ChartRepresentation> charts;
  std::vector<std::pair<double, double>> ranges;
  auto t0 = Clock::now();
  for (const ExtractedChart* q : qs) {
    charts.push_back(FcmModel::Detach(model.EncodeChart(*q)));
    ranges.emplace_back(q->y_lo, q->y_hi);
  }
  m->Add("core.encode_chart_ms",
         MsBetween(t0, Clock::now()) / static_cast<double>(qs.size()), "ms");
  std::vector<fcm::core::DatasetRepresentation> tables;
  const size_t stride = std::max<size_t>(1, lake.size() / kCoreProbeTables);
  t0 = Clock::now();
  for (size_t i = 0; i < lake.size() && tables.size() < kCoreProbeTables;
       i += stride) {
    tables.push_back(FcmModel::Detach(
        model.EncodeDataset(lake.Get(static_cast<TableId>(i)))));
  }
  m->Add("core.encode_dataset_ms",
         MsBetween(t0, Clock::now()) / static_cast<double>(tables.size()),
         "ms");
  double sink = 0.0;
  size_t pairs = 0;
  t0 = Clock::now();
  for (size_t c = 0; c < charts.size(); ++c) {
    if (charts[c].empty()) continue;
    for (const auto& t : tables) {
      sink += model.ScoreEncoded(charts[c], t, ranges[c].first,
                                 ranges[c].second);
      ++pairs;
    }
  }
  const double score_us = MsBetween(t0, Clock::now()) * 1e3;
  t0 = Clock::now();
  for (size_t c = 0; c < charts.size(); ++c) {
    if (charts[c].empty()) continue;
    for (const auto& t : tables) {
      sink += model.DescriptorScore(charts[c], t, ranges[c].first,
                                    ranges[c].second);
    }
  }
  const double descriptor_us = MsBetween(t0, Clock::now()) * 1e3;
  const double p = static_cast<double>(std::max<size_t>(pairs, 1));
  m->Add("core.score_pair_us", score_us / p, "us");
  m->Add("core.descriptor_pair_us", descriptor_us / p, "us");
  m->Add("core.train_s", train_s, "s");
  if (!std::isfinite(sink)) std::fprintf(stderr, "perfbench: non-finite score\n");
}

void AddIngestMetrics(const IngestResult& ingest, Metrics* m) {
  m->Add("ingest.publish_ms_p50", Median(ingest.publish_ms), "ms");
  m->Add("ingest.publish_ms_p95", Quantile(ingest.publish_ms, 0.95), "ms");
  m->Add("ingest.encode_ms", Mean(ingest.encode_ms), "ms");
  m->Add("ingest.lsh_ms", Mean(ingest.lsh_ms), "ms");
  m->Add("ingest.interval_ms", Mean(ingest.interval_ms), "ms");
  m->Add("ingest.compact_ms", Mean(ingest.compact_ms), "ms");
  m->Add("ingest.delta_segments_max",
         static_cast<double>(ingest.delta_segments_max), "count");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Large blocks always come from mmap and go back to the kernel when
  // freed. Setting the threshold (to glibc's initial 128 KiB) turns off its
  // dynamic growth, which left 0-12 MB more heap resident after set-up
  // from run to run and so made serving_rss_mb bimodal.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // Pool threads plus load-generator threads never exceed nproc.
  const int threads = std::max(1, nproc - 1);
  const std::string load_start = LoadAverage();
  const auto steal_start = StealJiffies();
  Tracer tracer(args.trace);
  Tracer untraced(false);
  OpCounts ops;
  uint64_t mismatches = 0;
  // Wall seconds of each phase of the run and the peak resident set at
  // its end, for diagnosing slow runs and memory.
  struct Phase {
    const char* name;
    double seconds, peak_rss_mb;
  };
  std::vector<Phase> phases;
  auto phase_start = Clock::now();
  auto end_phase = [&](const char* name) {
    phases.push_back({name, SecondsSince(phase_start), PeakRssMb()});
    phase_start = Clock::now();
  };

  // 1. Inputs.
  auto t0 = Clock::now();
  const fcm::benchgen::Benchmark bench = MakeCorpus(w);
  const double lake_gen_s = SecondsSince(t0);
  end_phase("inputs");
  std::vector<const ExtractedChart*> queries;
  for (const auto& q : bench.queries) queries.push_back(&q.extracted);
  if (queries.empty()) {
    std::fprintf(stderr, "perfbench: benchgen produced no queries\n");
    return 1;
  }

  // 2. Model.
  fcm::core::FcmModel model(fcm::core::FcmConfig{});
  const fcm::core::TrainOptions train_options = TrainConfig();
  t0 = Clock::now();
  fcm::core::TrainFcm(&model, bench.lake, bench.training, train_options);
  const double train_s = SecondsSince(t0);
  end_phase("train");

  // 3. Set-up.
  const std::string snapshot_path = args.work_dir + "/engine.snap";
  SetupResult setup;
  std::unique_ptr<SearchEngine> serving = SetUpOnce(
      w, model, bench.lake, threads, snapshot_path, &tracer, 0, &setup);
  if (!serving) return 1;
  end_phase("setup");
  SearchEngine& engine = *serving;
  // serving_rss_mb counts from here: what stays live plus what serving
  // adds, not the transient peaks of training and the set-ups.
  const bool rss_reset = ResetPeakRss();

  // 4. Warm-up and the per-query reference: Search on the serving epoch.
  EpochPin pin0 = engine.PinEpoch();
  std::vector<std::vector<SearchHit>> reference =
      SearchAll(engine, queries, w.strategy, pin0);
  end_phase("reference");

  // 5. Measured window.
  Metrics m;
  double latency_p50 = 0, latency_p95 = 0, throughput = 0, cpu_per_query = 0;
  std::vector<double> latency_all;  // For the deciles in the run record.
  std::vector<double> traced_ms, untraced_ms;
  size_t traced_pairs = 0, traced_queries = 0;
  AsyncLoopResult async_loop;
  double rss_mb = 0.0;

  if (w.async_snapshot) {
    async_loop = RunAsyncLoop(engine, queries, w.strategy, args.seconds,
                              args.seed ^ 0xbeef, &tracer);
    rss_mb = PeakRssMb();
    const AsyncLoopResult& r = async_loop;
    ops.queries += r.attempted;
    ops.queries_failed += r.failed;
    mismatches += CountMismatches(r.served, reference);
    latency_p50 = Quantile(r.latency_ms, 0.5);
    latency_p95 = Quantile(r.latency_ms, 0.95);
    latency_all = r.latency_ms;
    throughput = static_cast<double>(r.completed_in_window) / r.wall_s;
    cpu_per_query = r.cpu_s * 1e3 / static_cast<double>(r.served.size());
  } else {
    const double cpu0 = CpuSeconds();
    const ClosedLoopResult r = RunClosedLoop(engine, queries, w.strategy,
                                             args.seconds, args.seed ^ 0xbeef,
                                             &tracer);
    const double cpu = CpuSeconds() - cpu0;
    rss_mb = PeakRssMb();
    ops.queries += r.served.size();
    mismatches += CountMismatches(r.served, reference);
    latency_p50 = Quantile(r.latency_ms, 0.5);
    latency_p95 = Quantile(r.latency_ms, 0.95);
    latency_all = r.latency_ms;
    throughput = static_cast<double>(r.served.size()) / r.wall_s;
    cpu_per_query = cpu * 1e3 / static_cast<double>(r.served.size());
    traced_ms = r.traced_ms;
    untraced_ms = r.untraced_ms;
    traced_pairs = r.traced_pairs;
    traced_queries = r.traced_ms.size();
  }
  end_phase("serve_and_check");

  // 6. Effectiveness on the serving epoch, and recall against kNoIndex.
  const std::vector<std::vector<SearchHit>> exhaustive =
      w.strategy == IndexStrategy::kNoIndex
          ? reference
          : SearchAll(engine, queries, IndexStrategy::kNoIndex, pin0);
  const Quality quality = Grade(reference, exhaustive, bench);
  end_phase("grade");

  // 7. Per-layer probes, on the serving epoch.
  if (args.trace) {
    // Each distinct query on the idle engine: its Search service time for
    // the async overhead, and the staged path traced. On hybrid-async,
    // whose window ran no staged queries, these give the engine spans and
    // the tracing overhead (staged and traced against Search).
    const Replay replay = ReplayQueries(
        engine, queries, w.strategy, w.async_snapshot ? &tracer : &untraced,
        3000000000ull);
    if (w.async_snapshot) {
      traced_ms = replay.staged_ms;
      untraced_ms = replay.search_ms;
    } else {
      // The window bypassed the async queue: a short async loop over the
      // same queries shows the layer on this workload's kNoIndex work.
      async_loop = RunAsyncLoop(engine, queries, w.strategy,
                                kAsyncProbeSeconds, args.seed ^ 0xa5,
                                &untraced);
      ops.queries += async_loop.attempted;
      ops.queries_failed += async_loop.failed;
      mismatches += CountMismatches(async_loop.served, reference);
    }
    AddAsyncMetrics(async_loop, replay.search_ms, &m);

    // pairs_per_query / score_us_per_pair: the span reducer adds the stage
    // times; this side records the counts they are divided by.
    if (traced_queries == 0) {
      for (size_t i = 0; i < queries.size(); ++i) {
        std::vector<SearchEngine::StagedQuery> staged(1);
        staged[0].query = queries[i];
        staged[0].strategy = w.strategy;
        staged[0].k = kTopK;
        engine.EncodeStage(&staged);
        engine.CandidateStage(&staged);
        traced_pairs += staged[0].candidates.size();
      }
      traced_queries = queries.size();
    }
    m.Add("engine.pairs_per_query",
          static_cast<double>(traced_pairs) /
              static_cast<double>(std::max<size_t>(traced_queries, 1)),
          "count");

    AddIndexMetrics(engine, model, bench.lake, threads, queries, exhaustive,
                    &m);
    AddCoreMetrics(model, bench.lake, queries, train_s, &m);
  }

  if (args.trace) {
    // Ingest layer: fixed-size publishes on the idle engine (after every
    // check and probe above, since it grows the index).
    AddIngestMetrics(IdleIngest(&engine, bench.lake, &ops, &tracer), &m);
    if (!w.async_snapshot) {
      // Storage layer on this workload's engine (compact after ingest).
      const auto t_save = Clock::now();
      const bool saved = engine.SaveSnapshot(snapshot_path).ok();
      setup.save_ms.push_back(MsBetween(t_save, Clock::now()));
      setup.snapshot_mb = FileMb(snapshot_path);
      fcm::index::SnapshotOpenOptions open_options;
      open_options.num_threads = threads;
      const auto t_open = Clock::now();
      const bool opened =
          saved && SearchEngine::OpenSnapshot(snapshot_path, open_options).ok();
      setup.open_ms.push_back(MsBetween(t_open, Clock::now()));
      if (!opened) ++mismatches;
    }
  }
  end_phase("probes");

  // The remaining set-ups, with the serving engine released as it was
  // before the first.
  pin0.reset();
  serving.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    if (!SetUpOnce(w, model, bench.lake, threads, snapshot_path, &tracer, rep,
                   &setup)) {
      return 1;
    }
  }
  end_phase("setup_after_serving");

  if (args.trace) {
    m.Add("storage.save_ms", Median(setup.save_ms), "ms");
    m.Add("storage.open_ms", Median(setup.open_ms), "ms");
    m.Add("storage.snapshot_mb", setup.snapshot_mb, "MB");
    m.Add("setup.build_encode_s", Median(setup.build_encode_s), "s");
    m.Add("setup.build_lsh_s", Median(setup.build_lsh_s), "s");
    m.Add("setup.build_interval_s", Median(setup.build_interval_s), "s");
    m.Add("setup.lake_gen_s", lake_gen_s, "s");
    m.Add("trace.latency_p50_ratio",
          Median(untraced_ms) > 0 ? Median(traced_ms) / Median(untraced_ms)
                                  : 0.0,
          "ratio");
    if (!tracer.WriteJsonLines(args.work_dir + "/spans.jsonl")) {
      std::fprintf(stderr, "perfbench: cannot write spans\n");
      return 1;
    }
  } else {
    m.Add("latency_p50_ms", latency_p50, "ms");
    m.Add("latency_p95_ms", latency_p95, "ms");
    m.Add("throughput_qps", throughput, "1/s");
    m.Add("cpu_ms_per_query", cpu_per_query, "ms");
    m.Add("prec_at_k", quality.prec, "ratio");
    m.Add("ndcg_at_k", quality.ndcg, "ratio");
    m.Add("recall_at_k", quality.recall, "ratio");
    m.Add("serving_rss_mb", rss_mb, "MB");
    m.Add("setup_s", Median(setup.setup_s), "s");
  }
  std::remove(snapshot_path.c_str());
  ops.queries_failed += mismatches;

  end_phase("finish");
  const auto steal_end = StealJiffies();
  const double steal_total = steal_end.second - steal_start.second;
  const double steal_pct =
      steal_total > 0 ? 100.0 * (steal_end.first - steal_start.first) /
                            steal_total
                      : 0.0;
  std::string decile_json;
  for (int d = 1; d <= 9; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.2f", d > 1 ? ", " : "",
                  Quantile(latency_all, d / 10.0));
    decile_json += buf;
  }
  std::string setup_json;
  for (double x : setup.setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", setup_json.empty() ? "" : ", ", x);
    setup_json += buf;
  }
  std::string phase_json, phase_rss_json;
  for (const Phase& p : phases) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f",
                  phase_json.empty() ? "" : ", ", p.name, p.seconds);
    phase_json += buf;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.1f",
                  phase_rss_json.empty() ? "" : ", ", p.name, p.peak_rss_mb);
    phase_rss_json += buf;
  }

  // Run record: inputs, configuration, machine and operation counts.
  const bool correct = mismatches == 0 && ops.failed() == 0;
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"corpus_seed\": %llu, \"lake_tables\": %zu, \"distinct_queries\": %zu, "
      "\"training_triplets\": %zu, \"train\": {\"epochs\": %d, "
      "\"pretrain_pairs\": %d, \"seed\": %llu}, \"engine_threads\": %d, "
      "\"loadgen_threads\": 1, \"latency_samples\": %zu, "
      "\"latency_deciles_ms\": [%s], "
      "\"ops\": {\"queries\": %llu, \"queries_failed\": %llu, "
      "\"ingests\": %llu, \"ingests_failed\": %llu, \"compactions\": %llu, "
      "\"compactions_failed\": %llu, \"mismatches\": %llu}, "
      "\"machine\": {\"nproc\": %d, \"cpu\": \"%s\", \"simd\": \"%s\", "
      "\"loadavg_start\": \"%s\", \"loadavg_end\": \"%s\", "
      "\"cpu_steal_pct\": %.2f}, "
      "\"setup_reps_s\": [%s], "
      "\"phase_s\": {%s}, \"phase_peak_rss_mb\": {%s}, "
      "\"peak_rss_reset_after_setup\": %s}}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, static_cast<unsigned long long>(kCorpusSeed),
      bench.lake.size(), queries.size(),
      bench.training.size(), train_options.epochs, train_options.pretrain_pairs,
      static_cast<unsigned long long>(train_options.seed), threads,
      latency_all.size(), decile_json.c_str(),
      static_cast<unsigned long long>(ops.queries),
      static_cast<unsigned long long>(ops.queries_failed),
      static_cast<unsigned long long>(ops.ingests),
      static_cast<unsigned long long>(ops.ingests_failed),
      static_cast<unsigned long long>(ops.compactions),
      static_cast<unsigned long long>(ops.compactions_failed),
      static_cast<unsigned long long>(mismatches), nproc,
      JsonEscape(CpuModel()).c_str(),
      fcm::simd::TargetName(fcm::simd::ActiveTarget()),
      load_start.c_str(), LoadAverage().c_str(), steal_pct,
      setup_json.c_str(), phase_json.c_str(), phase_rss_json.c_str(),
      rss_reset ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
