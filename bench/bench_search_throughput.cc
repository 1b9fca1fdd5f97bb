// Search-pipeline throughput benchmark: index build and batched query
// serving at 1/2/N threads over a synthetic lake, async-serving phases
// (concurrent submitters against AsyncSearchService's futures queue in
// closed- and open-loop shapes at a zero and a static coalesce window,
// reporting QPS plus closed-loop p50/p99 latency), a fault-injection phase
// (a keyed failpoint poisons a known subset of request ids; the "faults"
// JSON section records recovery QPS and blast-radius isolation),
// LSH build and candidate-generation phases, and an "ingest"
// phase (serving QPS/p99 while a writer appends tables at a fixed cadence
// with background + forced mid-stream compaction, gated on the
// epoch-determinism verdict: the post-append engine must rank
// bit-identically to a from-scratch build), emitting
// machine-readable JSON (written to --out=PATH or the path in argv[1])
// so perf PRs can track the BENCH_*.json trajectory.
// A "machine" section (nproc, CPU model, active SIMD target) makes runs
// comparable across hosts.
// Parallel/async and serial paths must return identical top-k
// rankings, and the async service must drop nothing in block mode; the
// JSON records every check and the exit code is nonzero when any fails.
// docs/BENCHMARKS.md documents every emitted field.
//
// Batching knobs are CLI flags so bench configs are reproducible from
// the command line (tools/run_benchmarks.sh passes them):
//   --out=PATH              also write the JSON here (same as argv[1])
//   --async-queue=N         request-queue capacity        (default 64)
//   --async-max-batch=N     micro-batch size cap          (default 16)
//   --async-max-delay-ms=X  static coalesce window        (default 2.0)
//
// Scale knobs: FCM_BENCH_TABLES (default 96), FCM_BENCH_QUERIES (default
// 24), FCM_BENCH_LSH_ITEMS (default 20000), FCM_BENCH_ASYNC_REQUESTS
// (default 160), FCM_BENCH_ASYNC_SUBMITTERS (default 4). Runtime is a
// couple of minutes at the defaults on one core.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chart/renderer.h"
#include "index/async_service.h"
#include "index/ingest.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/lsh.h"
#include "index/search_engine.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "storage/snapshot.h"
#include "table/data_lake.h"
#include "vision/mask_oracle_extractor.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// CLI-selectable batching knobs (reproducible bench configs; see the
/// file comment). Everything else stays an FCM_BENCH_* env knob.
struct BenchFlags {
  std::string out;
  size_t async_queue = 64;
  size_t async_max_batch = 16;
  double async_max_delay_ms = 2.0;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Returns false (after printing usage) on an unknown or malformed flag.
bool ParseArgs(int argc, char** argv, BenchFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "out", &value)) {
      flags->out = value;
    } else if (ParseFlag(arg, "async-queue", &value)) {
      flags->async_queue = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "async-max-batch", &value)) {
      flags->async_max_batch = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "async-max-delay-ms", &value)) {
      flags->async_max_delay_ms = std::atof(value.c_str());
    } else if (arg.rfind("--", 0) != 0 && flags->out.empty()) {
      flags->out = arg;  // Legacy positional output path.
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: %s [--out=PATH] "
                   "[--async-queue=N] [--async-max-batch=N] "
                   "[--async-max-delay-ms=X] [OUT_PATH]\n",
                   arg.c_str(), argv[0]);
      return false;
    }
  }
  if (flags->async_queue == 0 || flags->async_max_batch == 0 ||
      flags->async_max_delay_ms < 0.0) {
    std::fprintf(stderr, "invalid async batching flags\n");
    return false;
  }
  return true;
}

bool SameHits(const std::vector<fcm::index::SearchHit>& a,
              const std::vector<fcm::index::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table_id != b[i].table_id || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool SameHitLists(const std::vector<std::vector<fcm::index::SearchHit>>& a,
                  const std::vector<std::vector<fcm::index::SearchHit>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameHits(a[i], b[i])) return false;
  }
  return true;
}

/// One async serving phase: `submitters` threads drive `requests`
/// requests at the service. Closed loop waits for each response before
/// submitting the next (per-request latency is meaningful); open loop
/// fires every request as fast as backpressure admits it and latency is
/// queueing-dominated, so only throughput is reported.
struct AsyncPhaseResult {
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;  // Closed loop only.
  double p99_ms = 0.0;  // Closed loop only.
  bool identical = true;
  bool clean = false;
  fcm::index::AsyncServiceStats stats;
};

AsyncPhaseResult RunAsyncPhase(
    const fcm::index::SearchEngine& engine,
    const fcm::index::AsyncServiceOptions& options,
    const std::vector<fcm::vision::ExtractedChart>& queries,
    const std::vector<std::vector<fcm::index::SearchHit>>& reference, int k,
    fcm::index::IndexStrategy strategy, int requests, int submitters,
    bool open_loop) {
  AsyncPhaseResult out;
  std::vector<double> latencies_ms(static_cast<size_t>(requests), 0.0);
  std::atomic<bool> identical{true};
  std::atomic<int> next_request{0};
  fcm::index::AsyncSearchService service(&engine, options);
  const auto t_phase = Clock::now();
  if (open_loop) {
    // Submitters only enqueue; the main thread collects every future, so
    // the clock stops when the last response lands.
    std::vector<std::future<std::vector<fcm::index::SearchHit>>> futures(
        static_cast<size_t>(requests));
    std::vector<std::thread> threads;
    for (int s = 0; s < submitters; ++s) {
      threads.emplace_back([&]() {
        for (;;) {
          const int r = next_request.fetch_add(1);
          if (r >= requests) break;
          const size_t qi = static_cast<size_t>(r) % queries.size();
          futures[static_cast<size_t>(r)] = service.Submit(queries[qi], k,
                                                           strategy);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < requests; ++r) {
      const size_t qi = static_cast<size_t>(r) % queries.size();
      if (!SameHits(futures[static_cast<size_t>(r)].get(), reference[qi])) {
        identical.store(false);
      }
    }
  } else {
    std::vector<std::thread> threads;
    for (int s = 0; s < submitters; ++s) {
      threads.emplace_back([&]() {
        for (;;) {
          const int r = next_request.fetch_add(1);
          if (r >= requests) break;
          const size_t qi = static_cast<size_t>(r) % queries.size();
          const auto t0 = Clock::now();
          auto hits = service.Submit(queries[qi], k, strategy).get();
          latencies_ms[static_cast<size_t>(r)] = Seconds(t0) * 1e3;
          if (!SameHits(hits, reference[qi])) identical.store(false);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  out.seconds = Seconds(t_phase);
  service.Shutdown();
  out.stats = service.stats();
  out.identical = identical.load();
  out.qps = static_cast<double>(requests) / std::max(out.seconds, 1e-9);
  if (!open_loop) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out.p50_ms = latencies_ms[latencies_ms.size() / 2];
    out.p99_ms = latencies_ms[std::min(latencies_ms.size() - 1,
                                       latencies_ms.size() * 99 / 100)];
  }
  // Block mode must not drop or reject anything.
  out.clean = out.identical && out.stats.rejected == 0 &&
              out.stats.cancelled == 0 && out.stats.failed == 0 &&
              out.stats.completed == static_cast<uint64_t>(requests);
  return out;
}

std::vector<std::vector<float>> RandomEmbeddings(int n, int dim,
                                                 uint64_t seed) {
  fcm::common::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  for (auto& v : out) {
    v.resize(static_cast<size_t>(dim));
    for (auto& x : v) x = static_cast<float>(rng.Normal());
  }
  return out;
}

/// Per-kernel GFLOP/s for one dispatch target: the float32 dot product
/// (LSH codes / GemmAccumulateBt shape) and the full MatMul GEMM path.
struct SimdKernelRates {
  fcm::simd::Target target;
  double dot_f32_gflops = 0.0;
  double gemm_gflops = 0.0;
};

SimdKernelRates MeasureKernelRates(fcm::simd::Target target) {
  SimdKernelRates out{target, 0.0, 0.0};
  constexpr size_t kDotN = 4096;
  constexpr int kGemmN = 160;
  fcm::common::Rng rng(404);
  std::vector<float> a(kDotN), b(kDotN);
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  // Dot: run enough repetitions for a stable sub-second measurement.
  constexpr int kDotReps = 20000;
  float sink = 0.0f;
  const auto t_dot = Clock::now();
  for (int r = 0; r < kDotReps; ++r) {
    sink += fcm::simd::DotF32(a.data(), b.data(), kDotN);
  }
  const double dot_secs = Seconds(t_dot);
  out.dot_f32_gflops = 2.0 * static_cast<double>(kDotN) * kDotReps /
                       std::max(dot_secs, 1e-9) / 1e9;
  fcm::nn::Tensor ta =
      fcm::nn::Tensor::RandomNormal({kGemmN, kGemmN}, 1.0f, &rng, false);
  fcm::nn::Tensor tb =
      fcm::nn::Tensor::RandomNormal({kGemmN, kGemmN}, 1.0f, &rng, false);
  constexpr int kGemmReps = 20;
  const auto t_gemm = Clock::now();
  for (int r = 0; r < kGemmReps; ++r) {
    sink += fcm::nn::MatMul(ta, tb).data()[0];
  }
  const double gemm_secs = Seconds(t_gemm);
  out.gemm_gflops = 2.0 * std::pow(static_cast<double>(kGemmN), 3) *
                    kGemmReps / std::max(gemm_secs, 1e-9) / 1e9;
  // Keep the accumulated sink observable so the loops cannot be elided.
  if (sink == 12345.678f) std::fprintf(stderr, "%f\n", sink);
  return out;
}

/// First "model name" line from /proc/cpuinfo ("unknown" elsewhere) for
/// the JSON "machine" section.
std::string CpuModelName() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        // Trim surrounding whitespace/newline and JSON-hostile quotes.
        while (!model.empty() &&
               (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
        for (auto& ch : model) {
          if (ch == '"' || ch == '\\') ch = '\'';
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags;
  if (!ParseArgs(argc, argv, &flags)) return 64;
  const int num_tables = EnvInt("FCM_BENCH_TABLES", 96);
  const int num_queries = EnvInt("FCM_BENCH_QUERIES", 24);
  const int lsh_items = EnvInt("FCM_BENCH_LSH_ITEMS", 20000);
  const int k = 10;
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bool all_identical = true;
  char buf[256];

  // Synthetic lake of mixed sinusoid tables (same substrate as the index
  // tests, scaled up). A pure function of i, so the ingest phase below
  // can rebuild any prefix/suffix of the same logical lake.
  const auto make_bench_table = [](int i) {
    fcm::table::Table t;
    for (int c = 0; c < 3; ++c) {
      std::vector<double> v(96);
      for (size_t j = 0; j < v.size(); ++j) {
        v[j] = std::sin(static_cast<double>(j) * (0.03 + 0.011 * (i % 17)) +
                        1.3 * c) *
                   (2.0 + (i % 7)) +
               0.8 * c;
      }
      t.AddColumn(fcm::table::Column("c" + std::to_string(c), std::move(v)));
    }
    return t;
  };
  fcm::table::DataLake lake;
  for (int i = 0; i < num_tables; ++i) lake.Add(make_bench_table(i));

  fcm::core::FcmConfig config;
  config.embed_dim = 16;
  config.num_layers = 1;
  config.strip_height = 16;
  config.strip_width = 64;
  config.line_segment_width = 16;
  config.column_length = 64;
  config.data_segment_size = 16;
  fcm::core::FcmModel model(config);

  std::vector<fcm::vision::ExtractedChart> queries;
  fcm::vision::MaskOracleExtractor oracle;
  for (int q = 0; q < num_queries; ++q) {
    fcm::table::DataSeries d;
    d.y = lake.Get(q % num_tables).column(q % 3).values;
    queries.push_back(oracle.Extract(fcm::chart::RenderLineChart({d})).value());
  }

  // ---- Index build at each thread count ----
  std::vector<int> thread_counts = {1, 2, hardware};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  struct BuildRow {
    int threads;
    double seconds;
    double lsh_seconds;
  };
  std::vector<BuildRow> builds;
  std::vector<std::unique_ptr<fcm::index::SearchEngine>> engines;
  for (const int threads : thread_counts) {
    fcm::index::SearchEngineOptions options;
    options.num_threads = threads;
    auto engine = std::make_unique<fcm::index::SearchEngine>(&model, &lake);
    const auto t0 = Clock::now();
    engine->BuildWithOptions(options);
    builds.push_back({threads, Seconds(t0),
                      engine->build_stats().lsh_build_seconds});
    engines.push_back(std::move(engine));
  }
  fcm::index::SearchEngine& serial_engine = *engines.front();

  const auto strategy = fcm::index::IndexStrategy::kNoIndex;

  // ---- Per-query serving on the serial engine (baseline) ----
  const auto t_serial = Clock::now();
  std::vector<std::vector<fcm::index::SearchHit>> serial_results;
  serial_results.reserve(queries.size());
  for (const auto& q : queries) {
    serial_results.push_back(serial_engine.Search(q, k, strategy));
  }
  const double serial_seconds = Seconds(t_serial);

  // ---- Batched serving at each configuration ----
  struct SearchRow {
    int threads;
    double seconds;
    bool identical;
  };
  std::vector<SearchRow> searches;
  for (size_t e = 0; e < engines.size(); ++e) {
    const auto t0 = Clock::now();
    const auto results = engines[e]->SearchBatch(queries, k, strategy);
    const double secs = Seconds(t0);
    const bool identical = SameHitLists(results, serial_results);
    all_identical = all_identical && identical;
    searches.push_back({builds[e].threads, secs, identical});
  }

  // ---- Ranking determinism across thread counts ----
  // For the strategies that consult the LSH index, every engine's batched
  // ranking (including tie order) must equal the serial engine's
  // per-query ranking.
  struct DeterminismRow {
    const char* strategy;
    bool identical;
  };
  std::vector<DeterminismRow> determinism;
  for (const auto s : {fcm::index::IndexStrategy::kLsh,
                       fcm::index::IndexStrategy::kHybrid}) {
    std::vector<std::vector<fcm::index::SearchHit>> reference;
    reference.reserve(queries.size());
    for (const auto& q : queries) {
      reference.push_back(serial_engine.Search(q, k, s));
    }
    bool identical = true;
    for (auto& engine : engines) {
      identical =
          identical && SameHitLists(engine->SearchBatch(queries, k, s),
                                    reference);
    }
    all_identical = all_identical && identical;
    determinism.push_back({fcm::index::IndexStrategyName(s), identical});
  }

  // ---- Async serving: closed- and open-loop phases vs a serial loop ----
  // All phases run block-mode backpressure (nothing may be dropped) and
  // every response is checked bit-identical against Search. The baseline
  // is the plain serial loop a caller without the service would write:
  // one thread, one Search per request, on the same engine. Closed loop
  // measures the latency story (a static coalesce window inflates p99
  // when the queue never backs up); open loop measures the throughput
  // story (immediate dispatch forfeits coalescing when arrivals pause).
  const int async_requests = EnvInt("FCM_BENCH_ASYNC_REQUESTS", 160);
  const int async_submitters =
      std::max(1, EnvInt("FCM_BENCH_ASYNC_SUBMITTERS", 4));
  fcm::index::SearchEngine& hw_engine = *engines[thread_counts.size() - 1];
  std::vector<std::vector<fcm::index::SearchHit>> async_reference(
      queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    async_reference[qi] = hw_engine.Search(queries[qi], k, strategy);
  }
  const auto t_async_serial = Clock::now();
  for (int r = 0; r < async_requests; ++r) {
    hw_engine.Search(queries[static_cast<size_t>(r) % queries.size()], k,
                     strategy);
  }
  const double async_serial_seconds = Seconds(t_async_serial);
  const double async_serial_qps = static_cast<double>(async_requests) /
                                  std::max(async_serial_seconds, 1e-9);

  const auto make_options = [&](double delay_ms) {
    fcm::index::AsyncServiceOptions options;
    options.queue_capacity = flags.async_queue;
    options.backpressure = fcm::index::BackpressureMode::kBlock;
    options.max_batch_size = flags.async_max_batch;
    options.max_batch_delay_ms = delay_ms;
    return options;
  };
  struct AsyncPhase {
    const char* name;
    bool open_loop;
    double delay_ms;
    AsyncPhaseResult result;
  };
  std::vector<AsyncPhase> phases = {
      {"closed_delay0", false, 0.0, {}},
      {"closed_static", false, flags.async_max_delay_ms, {}},
      {"open_delay0", true, 0.0, {}},
      {"open_static", true, flags.async_max_delay_ms, {}},
  };
  bool async_all_clean = true;
  for (auto& phase : phases) {
    phase.result = RunAsyncPhase(
        hw_engine, make_options(phase.delay_ms), queries,
        async_reference, k, strategy, async_requests, async_submitters,
        phase.open_loop);
    async_all_clean = async_all_clean && phase.result.clean;
  }
  all_identical = all_identical && async_all_clean;

  const AsyncPhaseResult* closed_delay0 = &phases[0].result;

  // ---- Fault-injection serving: blast-radius isolation + recovery ----
  // Submitting from one thread makes request ids deterministic (the
  // service assigns 1..N in Submit order), so a keyed failpoint at the
  // per-query scoring site poisons a known subset: every id = 3 mod 10.
  // Three passes over the same workload measure the whole story: healthy
  // (baseline QPS), armed (poisoned requests must fail alone — neighbors
  // in their coalesced batches stay bit-identical — at whatever QPS the
  // re-run recovery path sustains), and recovered (disarmed again; the
  // service must serve exactly like before the faults). Isolation and
  // recovery gate the exit code; the QPS ratios are trajectory data.
  struct FaultPass {
    double seconds = 0.0;
    double qps = 0.0;
    uint64_t ok = 0;
    uint64_t faulted = 0;
    bool isolation_ok = true;  // Failures exactly on the poisoned set.
    fcm::index::AsyncServiceStats stats;
  };
  auto fault_options = make_options(0.0);
  // The breaker is covered by the stress tests; here it is disabled so
  // the phase isolates the per-batch recovery cost.
  fault_options.breaker_threshold = 0;
  const auto run_fault_pass = [&](bool armed) {
    FaultPass out;
    fcm::index::AsyncSearchService service(&hw_engine, fault_options);
    std::vector<std::future<std::vector<fcm::index::SearchHit>>> futures(
        static_cast<size_t>(async_requests));
    const auto t0 = Clock::now();
    for (int r = 0; r < async_requests; ++r) {
      futures[static_cast<size_t>(r)] = service.Submit(
          queries[static_cast<size_t>(r) % queries.size()], k, strategy);
    }
    for (int r = 0; r < async_requests; ++r) {
      const size_t qi = static_cast<size_t>(r) % queries.size();
      // Submit order == id order on a single submitter thread.
      const bool poisoned = armed && (static_cast<uint64_t>(r) + 1) % 10 == 3;
      try {
        const auto hits = futures[static_cast<size_t>(r)].get();
        ++out.ok;
        if (poisoned || !SameHits(hits, async_reference[qi])) {
          out.isolation_ok = false;
        }
      } catch (const fcm::common::failpoint::FailpointError&) {
        ++out.faulted;
        if (!poisoned) out.isolation_ok = false;
      } catch (...) {
        out.isolation_ok = false;  // Outside the documented taxonomy.
      }
    }
    out.seconds = Seconds(t0);
    service.Shutdown();
    out.stats = service.stats();
    out.qps = static_cast<double>(async_requests) /
              std::max(out.seconds, 1e-9);
    return out;
  };
  const FaultPass fault_healthy = run_fault_pass(false);
  uint64_t fault_injected = 0;
  for (int r = 0; r < async_requests; ++r) {
    if ((static_cast<uint64_t>(r) + 1) % 10 == 3) ++fault_injected;
  }
  {
    fcm::common::failpoint::Spec poison;
    poison.matcher = [](uint64_t key) { return key % 10 == 3; };
    fcm::common::failpoint::Arm("engine.score_query", std::move(poison));
  }
  const FaultPass fault_armed = run_fault_pass(true);
  fcm::common::failpoint::DisarmAll();
  const FaultPass fault_recovered = run_fault_pass(false);
  const bool fault_phase_ok =
      fault_healthy.isolation_ok && fault_healthy.faulted == 0 &&
      fault_armed.isolation_ok && fault_armed.faulted == fault_injected &&
      fault_armed.ok ==
          static_cast<uint64_t>(async_requests) - fault_injected &&
      fault_armed.stats.failed == fault_injected &&
      (fault_injected == 0 || fault_armed.stats.retried > 0) &&
      fault_recovered.isolation_ok && fault_recovered.faulted == 0;
  all_identical = all_identical && fault_phase_ok;

  // ---- LSH build + candidate generation (index layer only) ----
  // The engine-level lake keeps LSH build in the microseconds, so this
  // phase scales the index layer alone: one pool build over `lsh_items`
  // embeddings, then candidate generation serially and across the pool.
  fcm::index::LshConfig lsh_config;
  lsh_config.num_bits = 16;
  lsh_config.num_tables = 8;
  const int lsh_dim = 32;
  const auto embeddings = RandomEmbeddings(lsh_items, lsh_dim, 101);
  const auto lsh_queries = RandomEmbeddings(256, lsh_dim, 102);
  std::vector<fcm::index::LshItem> items(embeddings.size());
  for (size_t i = 0; i < embeddings.size(); ++i) {
    // Three consecutive columns per synthetic table.
    items[i] = {embeddings[i].data(), static_cast<int64_t>(i / 3)};
  }
  fcm::common::ThreadPool lsh_pool(hardware);
  const auto t_lsh_build = Clock::now();
  const auto lsh = fcm::index::RandomHyperplaneLsh::Build(
      lsh_dim, lsh_config, items, &lsh_pool);
  const double lsh_build_seconds = Seconds(t_lsh_build);

  const auto t_query_serial = Clock::now();
  const auto serial_hits = lsh.QueryBatch(lsh_queries, nullptr);
  const double query_serial_seconds = Seconds(t_query_serial);
  const auto t_query_batch = Clock::now();
  const auto batch_hits = lsh.QueryBatch(lsh_queries, &lsh_pool);
  const double query_batch_seconds = Seconds(t_query_batch);
  const bool candidates_identical = batch_hits == serial_hits;
  all_identical = all_identical && candidates_identical;

  // ---- Snapshot: save / open vs rebuild (cold-start serving) ----
  // The case for frozen storage: a serving process that OpenSnapshot()s a
  // saved engine must come up faster than one that re-encodes the lake
  // (rebuild at full hardware parallelism — the honest baseline), and
  // must rank bit-identically to the engine that saved the snapshot,
  // under every pruning strategy.
  const std::string snap_path = "/tmp/fcm_bench_snapshot.fcmsnap";
  fcm::index::SearchEngineOptions rebuild_options;
  rebuild_options.num_threads = hardware;
  const auto t_rebuild = Clock::now();
  fcm::index::SearchEngine rebuilt(&model, &lake);
  rebuilt.BuildWithOptions(rebuild_options);
  const double rebuild_seconds = Seconds(t_rebuild);

  const auto t_save = Clock::now();
  const auto save_status = rebuilt.SaveSnapshot(snap_path);
  const double save_seconds = Seconds(t_save);
  bool snapshot_ok = save_status.ok();
  double open_seconds = 0.0, open_heap_seconds = 0.0;
  size_t snapshot_bytes = 0;
  bool snapshot_identical = snapshot_ok;
  if (snapshot_ok) {
    const auto t_open = Clock::now();
    auto snap = fcm::index::SearchEngine::OpenSnapshot(snap_path);
    open_seconds = Seconds(t_open);
    snapshot_ok = snap.ok();
    if (snap.ok()) {
      fcm::index::SnapshotOpenOptions heap_options;
      heap_options.use_mmap = false;
      const auto t_heap = Clock::now();
      auto heap_snap =
          fcm::index::SearchEngine::OpenSnapshot(snap_path, heap_options);
      open_heap_seconds = Seconds(t_heap);
      snapshot_ok = snapshot_ok && heap_snap.ok();
      {
        auto reader = fcm::storage::SnapshotReader::Open(snap_path);
        if (reader.ok()) snapshot_bytes = reader.value()->file_bytes();
      }
      // Equivalence across every strategy: snapshot-served rankings
      // (mmap and heap) vs the engine that saved them.
      for (const auto s :
           {fcm::index::IndexStrategy::kNoIndex,
            fcm::index::IndexStrategy::kIntervalTree,
            fcm::index::IndexStrategy::kLsh,
            fcm::index::IndexStrategy::kHybrid}) {
        std::vector<std::vector<fcm::index::SearchHit>> reference;
        reference.reserve(queries.size());
        for (const auto& q : queries) {
          reference.push_back(rebuilt.Search(q, k, s));
        }
        snapshot_identical =
            snapshot_identical &&
            SameHitLists(snap.value()->SearchBatch(queries, k, s), reference);
        if (heap_snap.ok()) {
          snapshot_identical =
              snapshot_identical &&
              SameHitLists(heap_snap.value()->SearchBatch(queries, k, s),
                           reference);
        }
      }
    } else {
      snapshot_identical = false;
    }
  } else {
    snapshot_identical = false;
  }
  std::remove(snap_path.c_str());
  all_identical = all_identical && snapshot_ok && snapshot_identical;

  // ---- Live ingestion: serving QPS/p99 while appending at a fixed rate --
  // One submitter drives the async service closed-loop while a writer
  // thread appends the second half of the lake in fixed-size batches on a
  // fixed cadence, a background Compactor merges deltas, and one explicit
  // mid-stream Compact measures the pause a forced merge costs under
  // traffic. After the dust settles the engine must rank bit-identically
  // to the from-scratch engines built over the full lake above, for every
  // strategy — the epoch-determinism verdict tools/run_benchmarks.sh
  // gates on.
  const int ingest_base = num_tables / 2;
  const int ingest_appended = num_tables - ingest_base;
  const int ingest_batch_size = std::max(1, ingest_appended / 6);
  const double append_interval_ms = 40.0;
  fcm::table::DataLake ingest_lake;
  for (int i = 0; i < ingest_base; ++i) ingest_lake.Add(make_bench_table(i));
  fcm::index::SearchEngineOptions ingest_build_options;
  ingest_build_options.num_threads = hardware;
  fcm::index::SearchEngine ingest_engine(&model, &ingest_lake);
  ingest_engine.BuildWithOptions(ingest_build_options);

  double ingest_serving_qps = 0.0, ingest_p50_ms = 0.0, ingest_p99_ms = 0.0;
  double ingest_publish_ms_mean = 0.0, ingest_publish_ms_max = 0.0;
  double mid_compact_pause_ms = 0.0, final_compact_pause_ms = 0.0;
  int ingest_batches = 0;
  uint64_t ingest_requests = 0;
  size_t delta_segments_precompact = 0;
  std::atomic<bool> ingest_clean{true};  // Written by writer + submitter.
  uint64_t background_compactions = 0;
  {
    fcm::index::AsyncSearchService ingest_service(&ingest_engine,
                                                  make_options(0.0));
    fcm::index::CompactorOptions compactor_options;
    compactor_options.max_delta_segments = 4;
    compactor_options.poll_interval = std::chrono::milliseconds(10);
    fcm::index::Compactor compactor(&ingest_engine, compactor_options);
    compactor.Start();

    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      for (int lo = ingest_base; lo < num_tables; lo += ingest_batch_size) {
        const int hi = std::min(lo + ingest_batch_size, num_tables);
        std::vector<fcm::table::Table> batch;
        for (int i = lo; i < hi; ++i) batch.push_back(make_bench_table(i));
        const auto t0 = Clock::now();
        if (!ingest_service.Ingest(std::move(batch)).ok()) {
          ingest_clean = false;
          break;
        }
        const double ms = Seconds(t0) * 1e3;
        ingest_publish_ms_mean += ms;
        ingest_publish_ms_max = std::max(ingest_publish_ms_max, ms);
        ++ingest_batches;
        compactor.Notify();
        if (ingest_batches == 3) {
          // One forced merge mid-traffic: the pause a compaction costs
          // while requests are in flight.
          fcm::index::CompactStats stats;
          if (ingest_service.Compact(&stats).ok()) {
            mid_compact_pause_ms = stats.seconds * 1e3;
          }
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            append_interval_ms));
      }
      writer_done.store(true, std::memory_order_release);
    });

    std::vector<double> latencies_ms;
    const auto t_serving = Clock::now();
    while (!writer_done.load(std::memory_order_acquire) ||
           latencies_ms.size() < 32) {
      const size_t qi = latencies_ms.size() % queries.size();
      const auto t0 = Clock::now();
      try {
        auto hits = ingest_service.Submit(queries[qi], k, strategy).get();
        if (hits.empty()) ingest_clean = false;
      } catch (...) {
        ingest_clean = false;
      }
      latencies_ms.push_back(Seconds(t0) * 1e3);
    }
    const double serving_seconds = Seconds(t_serving);
    writer.join();
    delta_segments_precompact = ingest_engine.num_delta_segments();
    compactor.Stop();
    background_compactions = compactor.stats().compactions;
    {
      fcm::index::CompactStats stats;
      if (ingest_engine.Compact(&stats).ok()) {
        final_compact_pause_ms = stats.seconds * 1e3;
      } else {
        ingest_clean = false;
      }
    }
    ingest_service.Shutdown();
    ingest_requests = static_cast<uint64_t>(latencies_ms.size());
    ingest_serving_qps =
        static_cast<double>(latencies_ms.size()) /
        std::max(serving_seconds, 1e-9);
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const auto pct = [&](double p) {
      if (latencies_ms.empty()) return 0.0;
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(latencies_ms.size() - 1));
      return latencies_ms[idx];
    };
    ingest_p50_ms = pct(0.50);
    ingest_p99_ms = pct(0.99);
    if (ingest_batches > 0) {
      ingest_publish_ms_mean /= static_cast<double>(ingest_batches);
    }
  }
  // The verdict: after live appends + compactions, every strategy must
  // rank exactly like the from-scratch build over the same tables.
  bool ingest_identical =
      ingest_engine.num_tables() == static_cast<size_t>(num_tables);
  for (const auto s : {fcm::index::IndexStrategy::kNoIndex,
                       fcm::index::IndexStrategy::kIntervalTree,
                       fcm::index::IndexStrategy::kLsh,
                       fcm::index::IndexStrategy::kHybrid}) {
    std::vector<std::vector<fcm::index::SearchHit>> reference;
    reference.reserve(queries.size());
    for (const auto& q : queries) {
      reference.push_back(serial_engine.Search(q, k, s));
    }
    ingest_identical =
        ingest_identical &&
        SameHitLists(ingest_engine.SearchBatch(queries, k, s), reference);
  }
  all_identical = all_identical && ingest_identical && ingest_clean;

  // ---- SIMD kernel dispatch: per-target GFLOP/s ----
  // The startup-resolved target (cpuid + FCM_SIMD env var) served every
  // phase above; here each compiled-in target is forced in turn so the
  // BENCH trajectory records the per-kernel speedup of simd dispatch.
  const fcm::simd::Target startup_target = fcm::simd::ActiveTarget();
  std::vector<SimdKernelRates> simd_rates;
  for (fcm::simd::Target t : fcm::simd::SupportedTargets()) {
    fcm::simd::SetTarget(t);
    simd_rates.push_back(MeasureKernelRates(t));
  }
  fcm::simd::ResetTarget();
  double scalar_dot = 0.0, scalar_gemm = 0.0;
  for (const auto& r : simd_rates) {
    if (r.target == fcm::simd::Target::kScalar) {
      scalar_dot = r.dot_f32_gflops;
      scalar_gemm = r.gemm_gflops;
    }
  }

  // ---- JSON report ----
  std::string json = "{\n";
  json += "  \"bench\": \"search_throughput\",\n";
  // Machine identity: BENCH_*.json files from different hosts are only
  // comparable when the run records what it ran on.
  json += "  \"machine\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"nproc\": %d,\n    \"cpu_model\": \"%s\",\n"
                "    \"simd_target\": \"%s\"\n  },\n",
                hardware, CpuModelName().c_str(),
                fcm::simd::TargetName(startup_target));
  json += buf;
  json += std::string("  \"simd\": {\n    \"active\": \"") +
          fcm::simd::TargetName(startup_target) + "\",\n";
  json += "    \"kernels\": [\n";
  for (size_t i = 0; i < simd_rates.size(); ++i) {
    const auto& r = simd_rates[i];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"target\": \"%s\", \"dot_f32_gflops\": %.2f, "
        "\"gemm_gflops\": %.2f, \"dot_speedup_vs_scalar\": %.2f, "
        "\"gemm_speedup_vs_scalar\": %.2f}%s\n",
        fcm::simd::TargetName(r.target), r.dot_f32_gflops, r.gemm_gflops,
        r.dot_f32_gflops / std::max(scalar_dot, 1e-9),
        r.gemm_gflops / std::max(scalar_gemm, 1e-9),
        i + 1 < simd_rates.size() ? "," : "");
    json += buf;
  }
  json += "    ]\n  },\n";
  json += "  \"tables\": " + std::to_string(num_tables) + ",\n";
  json += "  \"queries\": " + std::to_string(num_queries) + ",\n";
  json += "  \"k\": " + std::to_string(k) + ",\n";
  json += "  \"hardware_threads\": " + std::to_string(hardware) + ",\n";
  json += "  \"build\": [\n";
  for (size_t i = 0; i < builds.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"seconds\": %.4f, "
                  "\"lsh_seconds\": %.5f, \"speedup\": %.3f}%s\n",
                  builds[i].threads, builds[i].seconds,
                  builds[i].lsh_seconds,
                  builds[0].seconds / std::max(builds[i].seconds, 1e-9),
                  i + 1 < builds.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"search_single_query\": {\"threads\": 1, \"seconds\": "
                "%.4f, \"qps\": %.2f},\n",
                serial_seconds,
                static_cast<double>(queries.size()) /
                    std::max(serial_seconds, 1e-9));
  json += buf;
  json += "  \"search_batch\": [\n";
  for (size_t i = 0; i < searches.size(); ++i) {
    std::snprintf(
        buf, sizeof(buf),
        "    {\"threads\": %d, \"seconds\": %.4f, "
        "\"qps\": %.2f, \"speedup_vs_single\": %.3f, "
        "\"identical_topk\": %s}%s\n",
        searches[i].threads, searches[i].seconds,
        static_cast<double>(queries.size()) /
            std::max(searches[i].seconds, 1e-9),
        serial_seconds / std::max(searches[i].seconds, 1e-9),
        searches[i].identical ? "true" : "false",
        i + 1 < searches.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"ranking_determinism\": [\n";
  for (size_t i = 0; i < determinism.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"strategy\": \"%s\", \"identical_topk\": %s}%s\n",
                  determinism[i].strategy,
                  determinism[i].identical ? "true" : "false",
                  i + 1 < determinism.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"async\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"requests\": %d, \"submitters\": %d, "
                "\"queue_capacity\": %zu, \"max_batch_size\": %zu, "
                "\"static_max_delay_ms\": %.2f, "
                "\"backpressure\": \"block\",\n",
                async_requests, async_submitters, flags.async_queue,
                flags.async_max_batch, flags.async_max_delay_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"serial_seconds\": %.4f, \"serial_qps\": %.2f,\n",
                async_serial_seconds, async_serial_qps);
  json += buf;
  // Legacy trajectory summary: the closed-loop delay-0 phase is the same
  // configuration earlier BENCH_*.json files recorded as the whole
  // section, so these keys stay comparable across PRs.
  std::snprintf(buf, sizeof(buf),
                "    \"seconds\": %.4f, \"qps\": %.2f, "
                "\"qps_speedup_vs_serial\": %.3f,\n",
                closed_delay0->seconds, closed_delay0->qps,
                closed_delay0->qps / std::max(async_serial_qps, 1e-9));
  json += buf;
  std::snprintf(buf, sizeof(buf), "    \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n",
                closed_delay0->p50_ms, closed_delay0->p99_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"batches\": %llu, \"max_coalesced\": %zu, "
                "\"rejected\": %llu, \"cancelled\": %llu, "
                "\"failed\": %llu, \"identical_topk\": %s,\n",
                static_cast<unsigned long long>(closed_delay0->stats.batches),
                closed_delay0->stats.max_coalesced,
                static_cast<unsigned long long>(closed_delay0->stats.rejected),
                static_cast<unsigned long long>(
                    closed_delay0->stats.cancelled),
                static_cast<unsigned long long>(closed_delay0->stats.failed),
                closed_delay0->clean ? "true" : "false");
  json += buf;
  json += "    \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const auto& phase = phases[i];
    const auto& r = phase.result;
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"loop\": \"%s\", "
                  "\"max_delay_ms\": %.2f,\n",
                  phase.name, phase.open_loop ? "open" : "closed",
                  phase.delay_ms);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "       \"seconds\": %.4f, \"qps\": %.2f, "
                  "\"qps_speedup_vs_serial\": %.3f,\n",
                  r.seconds, r.qps, r.qps / std::max(async_serial_qps, 1e-9));
    json += buf;
    if (!phase.open_loop) {
      std::snprintf(buf, sizeof(buf),
                    "       \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n", r.p50_ms,
                    r.p99_ms);
      json += buf;
    }
    const double avg_coalesced =
        r.stats.batches > 0 ? static_cast<double>(r.stats.completed) /
                                  static_cast<double>(r.stats.batches)
                            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "       \"batches\": %llu, \"max_coalesced\": %zu, "
                  "\"avg_coalesced\": %.2f, \"rejected\": %llu, "
                  "\"cancelled\": %llu, \"failed\": %llu, "
                  "\"identical_topk\": %s\n",
                  static_cast<unsigned long long>(r.stats.batches),
                  r.stats.max_coalesced, avg_coalesced,
                  static_cast<unsigned long long>(r.stats.rejected),
                  static_cast<unsigned long long>(r.stats.cancelled),
                  static_cast<unsigned long long>(r.stats.failed),
                  r.clean ? "true" : "false");
    json += buf;
    json += i + 1 < phases.size() ? "      },\n" : "      }\n";
  }
  json += "    ]\n  },\n";
  // Fault-injection phase. Key names deliberately avoid "rejected" /
  // "cancelled" / "failed": tools/run_benchmarks.sh sums those as
  // block-mode drops, and these failures are injected on purpose.
  json += "  \"faults\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"requests\": %d, \"injected\": %llu, "
                "\"site\": \"engine.score_query\", "
                "\"poisoned_ids\": \"id %% 10 == 3\",\n",
                async_requests,
                static_cast<unsigned long long>(fault_injected));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"healthy_qps\": %.2f, \"fault_qps\": %.2f, "
                "\"recovered_qps\": %.2f, "
                "\"fault_qps_ratio_vs_healthy\": %.3f,\n",
                fault_healthy.qps, fault_armed.qps, fault_recovered.qps,
                fault_armed.qps / std::max(fault_healthy.qps, 1e-9));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"completed_ok\": %llu, \"request_failures\": %llu, "
                "\"retried\": %llu, \"expired\": %llu,\n",
                static_cast<unsigned long long>(fault_armed.stats.completed),
                static_cast<unsigned long long>(fault_armed.stats.failed),
                static_cast<unsigned long long>(fault_armed.stats.retried),
                static_cast<unsigned long long>(
                    fault_armed.stats.deadline_expired));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"isolation_ok\": %s, \"recovered_clean\": %s, "
                "\"clean\": %s\n  },\n",
                fault_armed.isolation_ok ? "true" : "false",
                fault_recovered.isolation_ok && fault_recovered.faulted == 0
                    ? "true"
                    : "false",
                fault_phase_ok ? "true" : "false");
  json += buf;
  json += "  \"lsh_index\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"items\": %d, \"dim\": %d, \"tables\": %d, "
                "\"bits\": %d,\n",
                lsh_items, lsh_dim, lsh_config.num_tables,
                lsh_config.num_bits);
  json += buf;
  std::snprintf(buf, sizeof(buf), "    \"build_seconds\": %.4f,\n",
                lsh_build_seconds);
  json += buf;
  std::snprintf(
      buf, sizeof(buf),
      "    \"candidate_generation\": [\n      {\"threads\": 1, "
      "\"seconds\": %.4f, \"qps\": %.1f},\n      {\"threads\": %d, "
      "\"seconds\": %.4f, \"qps\": %.1f, \"speedup_vs_serial\": %.3f}\n"
      "    ],\n",
      query_serial_seconds,
      static_cast<double>(lsh_queries.size()) /
          std::max(query_serial_seconds, 1e-9),
      hardware, query_batch_seconds,
      static_cast<double>(lsh_queries.size()) /
          std::max(query_batch_seconds, 1e-9),
      query_serial_seconds / std::max(query_batch_seconds, 1e-9));
  json += buf;
  std::snprintf(buf, sizeof(buf), "    \"identical_candidates\": %s\n  },\n",
                candidates_identical ? "true" : "false");
  json += buf;
  // Snapshot cold start: open (mmap zero-copy and heap) must beat a full
  // rebuild, and snapshot-served rankings must be bit-identical across
  // every strategy. tools/run_benchmarks.sh gates on both.
  json += "  \"snapshot\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"file_bytes\": %zu, \"rebuild_seconds\": %.4f, "
                "\"save_seconds\": %.4f,\n",
                snapshot_bytes, rebuild_seconds, save_seconds);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"open_seconds\": %.4f, \"open_heap_seconds\": %.4f, "
                "\"open_speedup_vs_rebuild\": %.2f,\n",
                open_seconds, open_heap_seconds,
                rebuild_seconds / std::max(open_seconds, 1e-9));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"save_open_ok\": %s, \"identical_topk\": %s\n  },\n",
                snapshot_ok ? "true" : "false",
                snapshot_identical ? "true" : "false");
  json += buf;
  // Live-ingestion phase. Key names deliberately avoid "rejected" /
  // "cancelled" / "failed" (run_benchmarks.sh sums those as drops).
  json += "  \"ingest\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"tables_base\": %d, \"tables_appended\": %d, "
                "\"batch_size\": %d, \"batches\": %d, "
                "\"append_interval_ms\": %.1f,\n",
                ingest_base, ingest_appended, ingest_batch_size,
                ingest_batches, append_interval_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"requests\": %llu, \"serving_qps\": %.2f, "
                "\"p50_ms\": %.3f, \"p99_ms\": %.3f,\n",
                static_cast<unsigned long long>(ingest_requests),
                ingest_serving_qps, ingest_p50_ms, ingest_p99_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"ingest_publish_ms_mean\": %.3f, "
                "\"ingest_publish_ms_max\": %.3f,\n",
                ingest_publish_ms_mean, ingest_publish_ms_max);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"mid_compact_pause_ms\": %.3f, "
                "\"final_compact_pause_ms\": %.3f, "
                "\"background_compactions\": %llu, "
                "\"delta_segments_precompact\": %zu,\n",
                mid_compact_pause_ms, final_compact_pause_ms,
                static_cast<unsigned long long>(background_compactions),
                delta_segments_precompact);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"epoch_determinism_ok\": %s, \"clean\": %s\n  }\n",
                ingest_identical ? "true" : "false",
                ingest_clean ? "true" : "false");
  json += buf;
  json += "}\n";

  std::fputs(json.c_str(), stdout);
  if (!flags.out.empty()) {
    std::FILE* f = std::fopen(flags.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  return all_identical ? 0 : 2;
}
