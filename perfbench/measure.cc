// perfbench_measure — the measuring process of the repo benchmark.
//
// Generates one workload's normalized tables from a seed, trains them
// under the materialized (M), streaming (S) and factorized (F) strategies
// through the public core::Train* entry points, gates every training run
// on correctness, times direct probes of the storage / join / exec layers
// and, with --trace=1, traces one extra round. The last line of stdout is
// one JSON object:
//
//   {"workload": str, "attempted": int, "failed": int,
//    "metrics": {name: number, ...}}
//
// run.py builds this binary, runs it, derives per-span self times from
// the trace file and formats the benchmark result; see README.md.
//
//   perfbench_measure --workload=NAME --seed=N --seconds=S --work-dir=DIR
//                    [--scale=F] [--trace-file=PATH]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/factorml.h"
#include "exec/parallel_for.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace factorml::perfbench {
namespace {

using core::Algorithm;
using core::TrainReport;

constexpr std::array<Algorithm, 3> kAlgorithms = {
    Algorithm::kMaterialized, Algorithm::kStreaming, Algorithm::kFactorized};

// Repetitions of each layer probe (each probe metric is a median).
constexpr int kProbeReps = 3;
// The exec.region_us probe: empty parallel regions at 4 workers (the
// machine's core count), timed kRegionProbeCalls per repetition.
constexpr int kRegionProbeThreads = 4;
constexpr int kRegionProbeCalls = 2000;
// Rows per batch of the scan and join-cursor probes.
constexpr size_t kProbeBatchRows = 8192;
// Per-thread trace ring of the traced round (72-byte events, so ~466k
// events per thread); a round that still drops spans fails.
constexpr size_t kTraceBufferKb = 32 * 1024;

// The benchmark's own trace category and span names: one span around
// every call the benchmark makes into a layer.
constexpr char kCatBench[] = "bench";
constexpr const char* kTrainSpan[3] = {"train.M", "train.S", "train.F"};

enum class Family { kGmm, kNn, kLogreg, kKmeans };

// Every family's phase names (core::PhaseScope and pass names), keyed by
// metric prefix, and the name of its per-iteration closed-form step, which
// is reported family-independently as model.solve_s. Each workload reports
// every family's phases, 0 for the families it does not train, so every
// workload prints the same metric set.
struct Phases {
  std::vector<std::string> timed;
  const char* solve;  // nullptr: the family has no closed-form step
};

const std::map<std::string, Phases>& FamilyPhases() {
  static const auto* phases = new std::map<std::string, Phases>{
      {"gmm", {{"e_step", "m_step_mean", "m_step_cov"}, "finalize"}},
      {"nn",
       {{"first_layer_fwd", "upper_layers", "w1_grad", "partial_cache",
         "assemble"},
        nullptr}},
      {"logreg", {{"irls"}, "solve"}},
      {"kmeans", {{"assign"}, "update"}},
  };
  return *phases;
}

struct Workload {
  Family family = Family::kGmm;
  data::SyntheticSpec spec;
  size_t pool_pages = 8192;  // 64 MiB
  la::KernelMode kernels = la::KernelMode::kScalar;
  int64_t morsel_rows = 0;
  bool prefetch = false;
  int shards = 1;  // > 1: process shard backend over unix sockets
  // Worker threads per training call (per shard worker when sharded).
  // Multi-threaded workloads steal: on a shared host whose vCPUs run at
  // different, drifting speeds, stealing spreads the work over all of
  // them, while a static partition waits for the slowest. Their run
  // medians spread 5-10% over runs with stealing against 15-23% without.
  int threads = 1;
  bool steal = false;
};

int64_t Scaled(int64_t rows, double scale, int64_t floor_rows) {
  return std::max(floor_rows, static_cast<int64_t>(std::llround(
                                  static_cast<double>(rows) * scale)));
}

/// The four workloads. Shapes are at --scale=1; --scale shrinks every
/// table (the self-tests run at a tiny scale).
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     double scale) {
  Workload w;
  w.spec.seed = seed;
  w.spec.clusters = 5;
  const auto two_way = [&](int64_t s_rows, int64_t r_rows, bool target) {
    w.spec.s_rows = Scaled(s_rows, scale, 400);
    w.spec.s_feats = 5;
    w.spec.attrs = {data::AttributeSpec{Scaled(r_rows, scale, 8), 15}};
    w.spec.with_target = target;
  };
  if (name == "gmm-2way-cached") {
    w.family = Family::kGmm;
    two_way(400000, 1000, false);
    w.kernels = la::KernelMode::kSimd;
    w.morsel_rows = 4096;
    w.threads = 4;
    w.steal = true;
  } else if (name == "nn-2way-minibatch") {
    // The mini-batch plane has no morsels to steal: its many small static
    // regions ran 2x slower at 2 threads than at 1 and spread 15-48%.
    w.family = Family::kNn;
    two_way(100000, 250, true);
    w.kernels = la::KernelMode::kSimd;
  } else if (name == "logreg-3way-ooc") {
    w.family = Family::kLogreg;
    w.spec.s_rows = Scaled(500000, scale, 400);
    w.spec.s_feats = 5;
    w.spec.attrs = {data::AttributeSpec{Scaled(10000, scale, 8), 15},
                    data::AttributeSpec{Scaled(1000, scale, 4), 10}};
    w.spec.with_target = true;
    w.pool_pages = 512;  // 4 MiB: T and S stream through the pool
    w.prefetch = true;
    w.morsel_rows = 4096;
    w.threads = 4;
    w.steal = true;
  } else if (name == "kmeans-2way-shards") {
    w.family = Family::kKmeans;
    two_way(400000, 1000, false);
    w.kernels = la::KernelMode::kSimd;
    w.shards = 2;
    w.morsel_rows = 4096;
    w.threads = 2;
    w.steal = true;
  } else {
    return std::nullopt;
  }
  return w;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PhaseSeconds(const TrainReport& r, const std::string& phase) {
  for (const auto& p : r.phases) {
    if (p.name == phase) return p.seconds;
  }
  return 0.0;
}

/// Counter value, histogram sum (micros) or gauge value of one registry
/// series in a report's metrics delta; 0 when the run never touched it.
double MetricValue(const TrainReport& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.kind == 'h' ? static_cast<double>(m.sum)
                                              : m.value;
  }
  return 0.0;
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Tallies operations and prints why each failed one failed (stderr).
class Ledger {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Timed set-up: generates the workload's tables and builds the FK1 index
/// (data::GenerateSynthetic) into a fresh directory, from a cold pool.
/// setup_s is the median of all generations: the one trained on, plus one
/// more after every round, so set-up is sampled across the whole run like
/// the training calls.
class Setup {
 public:
  Setup(data::SyntheticSpec spec, std::filesystem::path work,
        storage::BufferPool* pool)
      : spec_(std::move(spec)), work_(std::move(work)), pool_(pool) {}

  Result<join::NormalizedRelations> Generate(const std::string& subdir) {
    const std::filesystem::path dir = work_ / subdir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
    spec_.dir = dir.string();
    pool_->Clear();
    Stopwatch watch;
    Result<join::NormalizedRelations> rel =
        data::GenerateSynthetic(spec_, pool_);
    times_.push_back(watch.ElapsedSeconds());
    return rel;
  }

  /// One more timed generation, discarded; false when it failed.
  bool Repeat() {
    const bool ok = Generate("setup-repeat").ok();
    std::error_code ec;
    std::filesystem::remove_all(work_ / "setup-repeat", ec);
    return ok;
  }

  const std::vector<double>& times() const { return times_; }

 private:
  data::SyntheticSpec spec_;
  std::filesystem::path work_;
  storage::BufferPool* pool_;
  std::vector<double> times_;
};

/// Ordered name -> value metric list, printed as a JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value) {
    values_[name] = std::isfinite(value) ? value : 0.0;
  }
  std::string ToJson() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, value] : values_) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    os << "}";
    return os.str();
  }

 private:
  std::map<std::string, double> values_;
};

/// The layer probes: direct, cold-pool calls into public layer functions
/// on the workload's own tables, each wrapped in a benchmark span.
struct ProbeTimes {
  std::vector<double> scan_s, cursor_pass_s, view_load_s, fk_index_s,
      region_us;
};

void RunProbes(join::NormalizedRelations* rel, storage::BufferPool* pool,
               Ledger* ledger, ProbeTimes* out) {
  const int64_t s_rows = rel->s.num_rows();
  const auto check = [&](bool ok, const char* probe) {
    ledger->Attempt();
    if (!ok) ledger->Fail(std::string("probe ") + probe);
  };
  {
    pool->Clear();
    obs::TraceSpan span(kCatBench, "probe.scan");
    Stopwatch watch;
    storage::TableScanner scanner(&rel->s, pool, kProbeBatchRows);
    storage::RowBatch batch;
    int64_t rows = 0;
    while (scanner.Next(&batch)) rows += static_cast<int64_t>(batch.num_rows);
    out->scan_s.push_back(watch.ElapsedSeconds());
    check(scanner.status().ok() && rows == s_rows, "scan");
  }
  {
    pool->Clear();
    obs::TraceSpan span(kCatBench, "probe.join_cursor");
    Stopwatch watch;
    join::JoinCursor cursor(rel, pool, kProbeBatchRows);
    join::JoinBatch batch;
    int64_t rows = 0;
    while (cursor.Next(&batch)) {
      rows += static_cast<int64_t>(batch.s_rows.num_rows);
    }
    out->cursor_pass_s.push_back(watch.ElapsedSeconds());
    check(cursor.status().ok() && rows == s_rows, "join_cursor");
  }
  {
    pool->Clear();
    obs::TraceSpan span(kCatBench, "probe.view_load");
    Stopwatch watch;
    bool ok = true;
    for (const storage::Table& attr : rel->attrs) {
      join::AttributeTableView view;
      ok = ok && view.Load(attr, pool).ok() &&
           view.num_rows() == attr.num_rows();
    }
    out->view_load_s.push_back(watch.ElapsedSeconds());
    check(ok, "view_load");
  }
  {
    pool->Clear();
    obs::TraceSpan span(kCatBench, "probe.fk_index");
    Stopwatch watch;
    const bool ok = rel->BuildIndex(pool).ok() &&
                    rel->fk1_index.total_rows() == s_rows;
    out->fk_index_s.push_back(watch.ElapsedSeconds());
    check(ok, "fk_index");
  }
  {
    obs::TraceSpan span(kCatBench, "probe.parallel_for");
    Stopwatch watch;
    for (int i = 0; i < kRegionProbeCalls; ++i) {
      exec::ParallelFor(kRegionProbeThreads, kRegionProbeThreads, 1,
                        [](exec::Range, int) {});
    }
    out->region_us.push_back(watch.ElapsedSeconds() * 1e6 /
                             kRegionProbeCalls);
    check(true, "parallel_for");
  }
}

double MaxAbs(const double* v, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

double MaxAbs(const std::vector<double>& v) {
  return MaxAbs(v.data(), v.size());
}

double MaxAbs(const la::Matrix& m) {
  return MaxAbs(m.data(), m.rows() * m.cols());
}

/// One model family behind the strategy-generic round loop: the training
/// call, the model distance and magnitude (over the parameters the
/// family's MaxAbsDiff compares), and the agreement tolerances the repo's
/// parity tests use across strategies. Parameters must agree to
/// param_tol * max(1, magnitude) — the tests' absolute tolerance for
/// unit-scale models, relative for models whose parameters grow large —
/// and objectives to objective_rel_tol relative.
template <typename Model>
struct FamilyRunner {
  const char* prefix;  // metric-name prefix of the family's phases
  std::function<Result<Model>(Algorithm, storage::BufferPool*, TrainReport*)>
      train;
  std::function<double(const Model&, const Model&)> diff;
  std::function<double(const Model&)> magnitude;
  double param_tol;
  double objective_rel_tol;
};

/// First-round reference of one strategy: every later round must repeat
/// it bit for bit.
template <typename Model>
struct Reference {
  double objective = 0.0;
  OpCounters ops;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  Model model;
};

template <typename Model>
class RoundRunner {
 public:
  RoundRunner(const FamilyRunner<Model>& family, storage::BufferPool* pool,
              bool deterministic_pages, Ledger* ledger)
      : family_(family),
        pool_(pool),
        deterministic_pages_(deterministic_pages),
        ledger_(ledger) {}

  /// Trains M, S and F once each, in `order`, and checks each against its
  /// reference and the three against each other. Measured rounds append
  /// their wall times and reports; returns the per-strategy walls.
  std::array<double, 3> Round(const std::array<int, 3>& order, bool measured,
                              const char* label) {
    std::array<std::optional<Model>, 3> models;
    std::array<double, 3> objectives{};
    std::array<double, 3> walls{};
    for (const int a : order) {
      const Algorithm alg = kAlgorithms[static_cast<size_t>(a)];
      const std::string tag = std::string(label) + " " +
                              core::AlgorithmPrefix(alg) + "-" +
                              family_.prefix;
      {
        obs::TraceSpan clear_span(kCatBench, "pool_clear");
        pool_->Clear();
      }
      TrainReport report;
      ledger_->Attempt();
      Stopwatch watch;
      Result<Model> result = [&] {
        obs::TraceSpan span(kCatBench, kTrainSpan[a]);
        return family_.train(alg, pool_, &report);
      }();
      walls[static_cast<size_t>(a)] = watch.ElapsedSeconds();
      if (!result.ok()) {
        ledger_->Fail(tag + ": " + result.status().ToString());
        continue;
      }
      if (!std::isfinite(report.final_objective)) {
        ledger_->Fail(tag + ": non-finite objective");
        continue;
      }
      const std::string mismatch = CheckReference(a, report, result.value());
      if (!mismatch.empty()) {
        ledger_->Fail(tag + ": differs from round 0 in " + mismatch);
        continue;
      }
      objectives[static_cast<size_t>(a)] = report.final_objective;
      models[static_cast<size_t>(a)] = std::move(result).value();
      if (measured) {
        walls_[static_cast<size_t>(a)].push_back(
            walls[static_cast<size_t>(a)]);
        reports_[static_cast<size_t>(a)].push_back(std::move(report));
      }
    }
    // Cross-strategy agreement: S and F against M.
    if (models[0].has_value()) {
      for (size_t a = 1; a < 3; ++a) {
        if (!models[a].has_value()) continue;
        const double pdiff = family_.diff(*models[0], *models[a]);
        const double odiff = std::fabs(objectives[a] - objectives[0]);
        const double scale =
            std::max(1.0, family_.magnitude(*models[0]));
        if (!(pdiff <= family_.param_tol * scale) ||
            !(odiff <= family_.objective_rel_tol * std::fabs(objectives[0]) +
                           1e-12)) {
          std::ostringstream os;
          os << label << " " << core::AlgorithmPrefix(kAlgorithms[a])
             << " vs M: param diff " << pdiff << ", objective diff " << odiff;
          ledger_->Fail(os.str());
        }
      }
    }
    return walls;
  }

  const std::vector<double>& walls(size_t a) const { return walls_[a]; }
  const std::vector<TrainReport>& reports(size_t a) const {
    return reports_[a];
  }

 private:
  /// Empty when the run repeats the strategy's first run exactly (or is
  /// that first run); otherwise the name of what differs.
  std::string CheckReference(int a, const TrainReport& r,
                             const Model& model) {
    auto& ref = refs_[static_cast<size_t>(a)];
    if (!ref.has_value()) {
      ref = Reference<Model>{r.final_objective, r.ops, r.io.pages_read,
                             r.io.pages_written, model};
      return "";
    }
    if (r.final_objective != ref->objective) return "objective";
    if (r.ops.mults != ref->ops.mults || r.ops.adds != ref->ops.adds ||
        r.ops.subs != ref->ops.subs || r.ops.exps != ref->ops.exps) {
      return "op counts";
    }
    if (deterministic_pages_ && (r.io.pages_read != ref->pages_read ||
                                 r.io.pages_written != ref->pages_written)) {
      return "page counts";
    }
    if (family_.diff(model, ref->model) != 0.0) return "parameters";
    return "";
  }

  const FamilyRunner<Model>& family_;
  storage::BufferPool* pool_;
  bool deterministic_pages_;
  Ledger* ledger_;
  std::array<std::optional<Reference<Model>>, 3> refs_;
  std::array<std::vector<double>, 3> walls_;
  std::array<std::vector<TrainReport>, 3> reports_;
};

/// Per-strategy layer metrics from the measured rounds: counts from the
/// first (the gate checks that they repeat), timings as medians.
void AddStrategyMetrics(const std::string& family_prefix, int threads,
                        const std::vector<TrainReport>& reports,
                        const std::vector<double>& walls, char tag,
                        Metrics* m) {
  const auto name = [&](const std::string& base) {
    return base + "." + std::string(1, tag);
  };
  for (const auto& [prefix, phases] : FamilyPhases()) {
    for (const std::string& phase : phases.timed) {
      m->Set(name(prefix + "." + phase + "_s"), 0.0);
    }
  }
  const auto med = [&](const std::function<double(const TrainReport&)>& f) {
    std::vector<double> v;
    for (const auto& r : reports) v.push_back(f(r));
    return Median(std::move(v));
  };
  // A strategy that failed every round still reports (zeros); the run is
  // marked incorrect by its failures.
  const TrainReport none;
  const TrainReport& first = reports.empty() ? none : reports.front();
  m->Set(name("storage.pages_read"),
         med([](const TrainReport& r) {
           return static_cast<double>(r.io.pages_read);
         }));
  m->Set(name("storage.pool_hit_rate"), med([](const TrainReport& r) {
           return Ratio(static_cast<double>(r.io.pool_hits),
                        static_cast<double>(r.io.pool_hits +
                                            r.io.pool_misses));
         }));
  m->Set(name("storage.stall_s"), med([](const TrainReport& r) {
           return static_cast<double>(r.io.stall_micros) * 1e-6;
         }));
  m->Set(name("storage.prefetch_reads"), med([](const TrainReport& r) {
           return static_cast<double>(r.io.prefetch_reads);
         }));
  m->Set(name("storage.prefetch_hits"), med([](const TrainReport& r) {
           return static_cast<double>(r.io.prefetch_hits);
         }));
  m->Set(name("storage.prefetch_useful"), med([](const TrainReport& r) {
           return Ratio(static_cast<double>(r.io.prefetch_hits),
                        static_cast<double>(r.io.prefetch_reads));
         }));
  if (tag == 'M') {
    m->Set("storage.pages_written.M",
           static_cast<double>(first.io.pages_written));
    m->Set("join.materialize_s", med([](const TrainReport& r) {
             return r.materialize_seconds;
           }));
  }
  m->Set(name("la.kernel_s"), med([](const TrainReport& r) {
           return MetricValue(r, "la.batch_kernel_micros") * 1e-6;
         }));
  m->Set(name("la.mults"), static_cast<double>(first.ops.mults));
  m->Set(name("la.adds"), static_cast<double>(first.ops.adds));
  m->Set(name("la.exps"), static_cast<double>(first.ops.exps));
  m->Set(name("exec.chunks"), MetricValue(first, "exec.chunks"));
  m->Set(name("exec.steals"), med([](const TrainReport& r) {
           return static_cast<double>(r.steals);
         }));
  // Worker busy time covers the full passes only; the mini-batch plane and
  // a process-sharded coordinator record none, and report 0 for both.
  std::vector<double> idle;
  for (size_t i = 0; i < reports.size(); ++i) {
    double busy = 0.0;
    for (const double b : reports[i].worker_busy_seconds) busy += b;
    idle.push_back(busy > 0.0 ? 1.0 - busy / (threads * walls[i]) : 0.0);
  }
  m->Set(name("exec.idle_share"), Median(std::move(idle)));
  m->Set(name("exec.busy_spread"), med([](const TrainReport& r) {
           const auto [lo, hi] = r.BusyRange();
           return Ratio(hi - lo, hi);
         }));
  m->Set(name("pipeline.slot_bytes"), MetricValue(first, "pipeline.slot_bytes"));
  m->Set(name("net.bytes_sent"), MetricValue(first, "net.bytes_sent"));
  m->Set(name("net.frames_sent"), MetricValue(first, "net.frames_sent"));
  m->Set(name("pipeline.delta_bytes"),
         MetricValue(first, "pipeline.delta_bytes"));
  const Phases& phases = FamilyPhases().at(family_prefix);
  for (const std::string& phase : phases.timed) {
    m->Set(name(family_prefix + "." + phase + "_s"),
           med([&](const TrainReport& r) { return PhaseSeconds(r, phase); }));
  }
  m->Set(name("model.solve_s"), med([&](const TrainReport& r) {
           return phases.solve == nullptr ? 0.0
                                          : PhaseSeconds(r, phases.solve);
         }));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  std::string work_dir;
  std::string trace_file;  // non-empty: run the traced round into it
};

void PrintSamples(const std::string& name, const std::vector<double>& v) {
  std::fprintf(stderr, "%s samples:", name.c_str());
  for (const double t : v) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
}

template <typename Model>
int RunWorkload(const Args& args, const Workload& w,
                join::NormalizedRelations* rel, storage::BufferPool* pool,
                Setup* setup, const FamilyRunner<Model>& family,
                Ledger* ledger) {
  Metrics m;
  RoundRunner<Model> runner(family, pool,
                            /*deterministic_pages=*/!w.prefetch && !w.steal,
                            ledger);
  const auto repeat_setup = [&] {
    ledger->Attempt();
    if (!setup->Repeat()) ledger->Fail("set-up repetition");
  };
  // Round 0 is the warm-up and the reference; then measured rounds, the
  // strategy order rotating each round, until --seconds have passed.
  runner.Round({0, 1, 2}, /*measured=*/false, "round 0");
  repeat_setup();
  Stopwatch measuring;
  for (int round = 1;; ++round) {
    const std::array<int, 3> order = {round % 3, (round + 1) % 3,
                                      (round + 2) % 3};
    const std::string label = "round " + std::to_string(round);
    runner.Round(order, /*measured=*/true, label.c_str());
    repeat_setup();
    if (measuring.ElapsedSeconds() >= args.seconds) break;
  }
  m.Set("setup_s", Median(setup->times()));
  PrintSamples("setup_s", setup->times());
  std::array<double, 3> median_walls{};
  for (size_t a = 0; a < 3; ++a) {
    const std::string tag(1, core::AlgorithmPrefix(kAlgorithms[a]));
    median_walls[a] = Median(runner.walls(a));
    PrintSamples("train_s." + tag, runner.walls(a));
    m.Set("train_s." + tag, median_walls[a]);
    AddStrategyMetrics(family.prefix, w.threads, runner.reports(a),
                       runner.walls(a), tag[0], &m);
  }
  m.Set("bench.train_samples", static_cast<double>(runner.walls(0).size()));
  m.Set("peak_rss_mb", PeakRssMb());

  ProbeTimes probes;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    RunProbes(rel, pool, ledger, &probes);
  }
  m.Set("storage.scan_s", Median(probes.scan_s));
  m.Set("join.cursor_pass_s", Median(probes.cursor_pass_s));
  m.Set("join.view_load_s", Median(probes.view_load_s));
  m.Set("join.fk_index_s", Median(probes.fk_index_s));
  m.Set("exec.region_us", Median(probes.region_us));

  if (!args.trace_file.empty()) {
    // The traced round: one more M/S/F round (fixed order) and one probe
    // pass, with the tracer on. Tracing must not perturb a single bit, so
    // the round is checked against the references like any other.
    obs::Tracer& tracer = obs::Tracer::Instance();
    tracer.Start(kTraceBufferKb);
    const std::array<double, 3> traced =
        runner.Round({0, 1, 2}, /*measured=*/false, "traced round");
    ProbeTimes unused;
    RunProbes(rel, pool, ledger, &unused);
    tracer.Stop();
    const uint64_t dropped = tracer.TotalDropped();
    if (dropped > 0) {
      ledger->Attempt();
      ledger->Fail("traced round dropped " + std::to_string(dropped) +
                   " spans");
    }
    m.Set("obs.spans_dropped", static_cast<double>(dropped));
    const double untraced =
        median_walls[0] + median_walls[1] + median_walls[2];
    m.Set("obs.trace_overhead",
          Ratio(traced[0] + traced[1] + traced[2], untraced) - 1.0);
    const Status st = tracer.WriteJson(args.trace_file, "{}");
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "{\"workload\": \"%s\", \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      args.workload.c_str(),
      static_cast<long long>(ledger->attempted()),
      static_cast<long long>(ledger->failed()), m.ToJson().c_str());
  return 0;
}

/// Copies the workload's strategy knobs into a family's options struct.
template <typename Options>
Options StrategyKnobs(const Workload& w, const std::string& temp_dir) {
  Options o;
  o.threads = w.threads;
  o.steal = w.steal;
  o.kernels = w.kernels;
  o.morsel_rows = w.morsel_rows;
  o.prefetch = w.prefetch;
  o.shards = w.shards;
  if (w.shards > 1) {
    o.shard_backend = "process";
    o.shard_transport = "unix";
  }
  o.temp_dir = temp_dir;
  return o;
}

int Run(const Args& args) {
  std::optional<Workload> found =
      MakeWorkload(args.workload, args.seed, args.scale);
  if (!found.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const std::filesystem::path work(args.work_dir);
  storage::BufferPool pool(w.pool_pages);
  Setup setup(w.spec, work, &pool);
  Result<join::NormalizedRelations> generated = setup.Generate("tables");
  if (!generated.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  join::NormalizedRelations rel = std::move(generated).value();
  const std::string temp_dir = (work / "tmp").string();
  std::filesystem::create_directories(temp_dir);

  Ledger ledger;
  const join::NormalizedRelations& r = rel;
  switch (w.family) {
    case Family::kGmm: {
      auto o = StrategyKnobs<gmm::GmmOptions>(w, temp_dir);
      o.num_components = 5;
      o.max_iters = 3;
      o.seed = args.seed;
      FamilyRunner<gmm::GmmParams> f{
          "gmm",
          [&](Algorithm a, storage::BufferPool* p, TrainReport* rep) {
            return core::TrainGmm(r, o, a, p, rep);
          },
          &gmm::GmmParams::MaxAbsDiff,
          [](const gmm::GmmParams& p) {
            double m = std::max(MaxAbs(p.pi), MaxAbs(p.mu));
            for (const la::Matrix& s : p.sigma) m = std::max(m, MaxAbs(s));
            return m;
          },
          1e-5,
          1e-6};
      return RunWorkload(args, w, &rel, &pool, &setup, f, &ledger);
    }
    case Family::kNn: {
      auto o = StrategyKnobs<nn::NnOptions>(w, temp_dir);
      o.hidden = {50};
      o.activation = nn::Activation::kSigmoid;
      o.batch_rows = 1024;
      o.epochs = 2;
      o.seed = args.seed;
      FamilyRunner<nn::Mlp> f{
          "nn",
          [&](Algorithm a, storage::BufferPool* p, TrainReport* rep) {
            return core::TrainNn(r, o, a, p, rep);
          },
          &nn::Mlp::MaxAbsDiffParams,
          [](const nn::Mlp& net) {
            double m = 0.0;
            for (const la::Matrix& w : net.w) m = std::max(m, MaxAbs(w));
            for (const auto& b : net.b) m = std::max(m, MaxAbs(b));
            return m;
          },
          1e-4,
          1e-6};
      return RunWorkload(args, w, &rel, &pool, &setup, f, &ledger);
    }
    case Family::kLogreg: {
      auto o = StrategyKnobs<logreg::LogregOptions>(w, temp_dir);
      o.max_iters = 4;
      FamilyRunner<logreg::LogregModel> f{
          "logreg",
          [&](Algorithm a, storage::BufferPool* p, TrainReport* rep) {
            return core::TrainLogreg(r, o, a, p, rep);
          },
          &logreg::LogregModel::MaxAbsDiff,
          [](const logreg::LogregModel& lr) {
            return std::max(MaxAbs(lr.w), std::fabs(lr.bias));
          },
          1e-5,
          1e-8};
      return RunWorkload(args, w, &rel, &pool, &setup, f, &ledger);
    }
    case Family::kKmeans: {
      auto o = StrategyKnobs<kmeans::KmeansOptions>(w, temp_dir);
      o.num_clusters = 8;
      o.max_iters = 5;
      FamilyRunner<kmeans::KmeansModel> f{
          "kmeans",
          [&](Algorithm a, storage::BufferPool* p, TrainReport* rep) {
            return core::TrainKmeans(r, o, a, p, rep);
          },
          &kmeans::KmeansModel::MaxAbsDiff,
          [](const kmeans::KmeansModel& km) { return MaxAbs(km.centroids); },
          1e-6,
          1e-9};
      return RunWorkload(args, w, &rel, &pool, &setup, f, &ledger);
    }
  }
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      out->workload = value;
    } else if (key == "seed") {
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      out->seconds = std::atof(value.c_str());
    } else if (key == "scale") {
      out->scale = std::atof(value.c_str());
    } else if (key == "work-dir") {
      out->work_dir = value;
    } else if (key == "trace-file") {
      out->trace_file = value;
    } else {
      return false;
    }
  }
  return !out->workload.empty() && !out->work_dir.empty() &&
         out->scale > 0.0 && out->seconds >= 0.0;
}

}  // namespace
}  // namespace factorml::perfbench

int main(int argc, char** argv) {
  factorml::perfbench::Args args;
  if (!factorml::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_measure --workload=NAME --seed=N "
                 "--seconds=S --work-dir=DIR [--scale=F] "
                 "[--trace-file=PATH]\n");
    return 2;
  }
  return factorml::perfbench::Run(args);
}
