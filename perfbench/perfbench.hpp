// Shared declarations of the two-clock benchmark (see README.md).
//
// Every workload is split into a "unit of work" function that runs one
// repetition and returns its outputs with their host timings, and a check
// function that validates those outputs against computations that do not go
// through the library (matrix_entry dot products, Freivalds products,
// properties the method must have). The self-test corrupts one output of a
// reduced-size repetition and requires its check to reject it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "costmodel/model.hpp"
#include "engine/engine.hpp"
#include "layout/block_layout.hpp"
#include "service/service.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/trace.hpp"

namespace perfbench {

using ca3dmm::BlockLayout;
using ca3dmm::i64;
using ca3dmm::ProcGrid;

// ---------------------------------------------------------------------------
// Host clocks and reporting.
// ---------------------------------------------------------------------------

double wall_now();     ///< steady_clock, seconds
double cpu_now();      ///< process user + sys CPU time, seconds
double peak_rss_mb();  ///< process peak resident set, MiB
int host_cpus();       ///< CPUs this process may run on

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Wall and CPU time of one interval.
struct Interval {
  double wall_s = 0;
  double cpu_s = 0;
};

class Stopwatch {
 public:
  Stopwatch() : w0_(wall_now()), c0_(cpu_now()) {}
  Interval elapsed() const { return {wall_now() - w0_, cpu_now() - c0_}; }

 private:
  double w0_, c0_;
};

/// Address of global element (i, j) in the per-rank buffers of `lay`, or
/// null when no rank owns it.
const double* locate(const BlockLayout& lay,
                     const std::vector<std::vector<double>>& bufs, i64 i,
                     i64 j);

/// Runs `fn` with the calling thread, and every thread it starts, confined
/// to `width` of the CPUs this process may use: block `slot` of them,
/// modulo their number. Restores the previous affinity afterwards.
void on_cpus(int slot, int width, const std::function<void()>& fn);

/// Fiber backend with at most one worker per available CPU.
void use_fibers(ca3dmm::simmpi::Cluster& cl);

/// Sums over ranks of the simulator's own counters after a run.
struct Counters {
  double vtime_s = 0;      ///< max over ranks of the final clock
  double gflop = 0;        ///< sum of RankStats::flops / 1e9
  double sent_mb = 0;      ///< sum of payload bytes sent, MiB
  double inter_node_mb = 0;
  double comm_splits = 0;
  double peak_rank_mb = 0;  ///< max over ranks of tracked peak bytes, MiB
  std::optional<ca3dmm::simmpi::TraceAggregate> trace;  ///< traced runs only
};
Counters read_counters(const ca3dmm::simmpi::Cluster& cl);

// ---------------------------------------------------------------------------
// fig3-p3072: one-shot CA3DMM at the executed top of Fig. 3.
// ---------------------------------------------------------------------------

struct Fig3Spec {
  i64 n = 960;
  int P = 3072;
  ProcGrid grid{16, 16, 12};
  int ranks_per_node = 16;
  int samples = 64;  ///< C entries checked per repetition
  int cpus = 2;      ///< CPUs of a repetition, one fiber worker each
};

struct Fig3Rep {
  double setup_s = 0;
  Interval host;
  Counters ctr;
  double predicted_s = 0;  ///< costmodel::predict for the same multiply
  BlockLayout c_layout;
  std::vector<std::vector<double>> c;  ///< per-rank C blocks
};

ca3dmm::simmpi::Machine fig3_machine(const Fig3Spec& s);
Fig3Rep fig3_once(const Fig3Spec& s, std::uint64_t seed, bool traced);
bool fig3_check(const Fig3Spec& s, std::uint64_t seed, const Fig3Rep& r,
                std::string* why);

// ---------------------------------------------------------------------------
// purify-p8: McWeeny purification to a stated idempotency tolerance on a
// persistent engine.
// ---------------------------------------------------------------------------

struct PurifySpec {
  i64 n = 1024;
  int P = 8;
  int pr = 2, pc = 4;  ///< the application's 2-D block layout
  int ranks_per_node = 4;
  double tol = 1e-9;   ///< stop once ||X^2 - X||_F < tol
  int max_iter = 40;
  int samples = 32;    ///< entries of the first product checked
  int cpus = 2;        ///< CPUs of a repetition, one fiber worker each
};

struct PurifyRep {
  double setup_s = 0;  ///< cluster, X0, engine plan (cold plan_for); median
                       ///< of 5 set-ups
  Interval host;       ///< the solve, after the plan is built
  double vtime_s = 0;  ///< virtual makespan of the solve
  int iterations = 0;
  bool converged = false;
  std::vector<double> residuals;     ///< ||X^2 - X||_F per iteration
  std::vector<double> multiply_vs;   ///< per multiply, max over ranks
  Counters ctr;
  ca3dmm::engine::EngineStats engine;  ///< rank 0
  BlockLayout layout;
  std::vector<std::vector<double>> x;         ///< final X, per rank
  std::vector<std::vector<double>> first_x2;  ///< X0 * X0, per rank
};

ca3dmm::simmpi::Machine purify_machine(const PurifySpec& s);
double purify_x0(std::uint64_t seed, i64 i, i64 j, i64 n);
PurifyRep purify_once(const PurifySpec& s, std::uint64_t seed, bool traced);
bool purify_check(const PurifySpec& s, std::uint64_t seed, const PurifyRep& r,
                  std::string* why);

// ---------------------------------------------------------------------------
// service-p16: open-loop multi-tenant load through PgemmService.
// ---------------------------------------------------------------------------

struct ServiceSpec {
  int tenants = 8;
  int requests_each = 250;
  double mean_gap_s = 0.024;  ///< per tenant, virtual seconds
  int P = 16;
  int cpus = 1;  ///< CPUs of a repetition, one fiber worker each
};

struct ServiceRep {
  double setup_s = 0;  ///< load generation, pricing, cluster
  Interval host;
  Counters ctr;
  i64 requests = 0;
  std::vector<ca3dmm::service::ServiceRequest> load;
  ca3dmm::service::ServiceReport report;
};

ca3dmm::simmpi::Machine service_machine();
ServiceRep service_once(const ServiceSpec& s, std::uint64_t seed,
                        bool traced);
bool service_check(const ServiceRep& r, std::string* why);

// ---------------------------------------------------------------------------
// model-fig3: costmodel::predict for every Fig. 3 point.
// ---------------------------------------------------------------------------

struct ProblemClass {
  const char* name;
  i64 m, n, k;
};

struct ModelSpec {
  std::vector<ProblemClass> classes;
  std::vector<int> Ps;
};
ModelSpec model_full();

struct ModelPoint {
  int cls = 0;
  int P = 0;
  ca3dmm::costmodel::Algo algo{};
  bool custom = false;
  ca3dmm::costmodel::Prediction pred;
};

struct ModelRep {
  double setup_s = 0;  ///< sweep construction and grid solving
  Interval host;
  std::vector<ModelPoint> points;
};

ModelRep model_once(const ModelSpec& s, std::uint64_t seed);
bool model_check(const ModelSpec& s, const ModelRep& r, std::string* why);

// ---------------------------------------------------------------------------
// Per-layer probes of the traced run.
// ---------------------------------------------------------------------------

/// Parameters the probes take from the workload being traced.
struct ProbeContext {
  i64 plan_m = 0, plan_n = 0, plan_k = 0;  ///< core.plan_ms shape
  int plan_P = 0;
  std::optional<ProcGrid> plan_grid;
  /// Engine probe: shape, rank count, machine and (optionally) grid.
  i64 engine_n = 0;
  int engine_P = 0;
  std::optional<ProcGrid> engine_grid;
  ca3dmm::simmpi::Machine engine_machine;
  bool engine_2d_layout = false;  ///< purify's 2-D layout, else native
  int engine_pr = 1, engine_pc = 1;
  i64 gemm_m = 0, gemm_n = 0, gemm_k = 0;  ///< purify's local block
};

Metrics run_probes(const ProbeContext& ctx, const char* self_path);

/// Child-process entry: one Cluster::run with an empty body at P ranks;
/// prints the host seconds it took and the process's peak RSS in MiB.
int probe_empty_run_main(int P);

}  // namespace perfbench
