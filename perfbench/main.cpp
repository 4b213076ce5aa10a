// perfbench: the two-clock benchmark of this repository (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Untraced runs (--trace 0) repeat the workload's unit of work until S
// seconds of host time have passed, check every output, and print the
// end-to-end metrics. Traced runs (--trace 1) run one untraced and one
// traced unit, then the per-layer probes, and print the per-layer metrics.
// The last line of stdout is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "core/plan.hpp"
#include "linalg/gemm.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using ca3dmm::simmpi::Machine;
using ca3dmm::simmpi::Phase;

constexpr double kMiB = 1 << 20;

struct Result {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  Metrics metrics;
};

/// Records a failed check: the run stays alive but reports correct=false.
void reject(Result& res, const char* workload, const std::string& why) {
  std::printf("CHECK FAILED [%s]: %s\n", workload, why.c_str());
  res.correct = false;
}

void print_result(const Result& res) {
  std::printf("\n");
  for (const Metric& m : res.metrics)
    std::printf("  %-32s %16.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = ca3dmm::strprintf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      res.correct ? "true" : "false", static_cast<long long>(res.attempted),
      static_cast<long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += ca3dmm::strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i ? ", " : "", m.name.c_str(), v,
                              m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Host-side samples of one repetition. The peak RSS is read once, after
/// the first repetition: later ones only add allocator fragmentation, which
/// varies from process to process.
struct Sample {
  double setup_s, host_s, cpu_s;
  double rss_mb = peak_rss_mb();
};

/// End-to-end metrics shared by every workload; the virtual-clock ones are
/// supplied by the workload (see README.md for each workload's definition).
/// With `warmup`, the first repetition only warms the process up (page
/// faults, allocator) and its host times are left out.
Metrics end_to_end(const std::vector<Sample>& samples, bool warmup,
                   double vtime_s, double pct_peak, double peak_rank_mb,
                   double p50_vs, double p99_vs) {
  std::vector<double> setup, host, cpu;
  const double rss_mb = samples.empty() ? 0.0 : samples.front().rss_mb;
  for (size_t i = warmup && samples.size() > 1; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    setup.push_back(s.setup_s);
    host.push_back(s.host_s);
    cpu.push_back(s.cpu_s);
  }
  return {{"setup_s", median(setup), "s"},
          {"host_s", median(host), "s"},
          {"host_cpu_s", median(cpu), "s"},
          {"peak_rss_mb", rss_mb, "MiB"},
          {"vtime_s", vtime_s, "vs"},
          {"pct_peak", pct_peak, "%"},
          {"peak_rank_mb", peak_rank_mb, "MiB"},
          {"p50_latency_vs", p50_vs, "vs"},
          {"p99_latency_vs", p99_vs, "vs"}};
}

/// The simulator-counter half of the per-layer metrics.
Metrics layer_counters(const Counters& c) {
  const auto phase_max = [&](Phase p) {
    return c.trace ? c.trace->phases[static_cast<size_t>(p)].vtime_max : 0.0;
  };
  double skew = 0;
  if (c.trace)
    for (const auto& ph : c.trace->phases) skew += ph.skew_avg;
  return {{"linalg.gflop", c.gflop, "GFLOP"},
          {"simmpi.sent_mb", c.sent_mb, "MiB"},
          {"simmpi.inter_node_mb", c.inter_node_mb, "MiB"},
          {"simmpi.comm_splits", c.comm_splits, "count"},
          {"core.redistribute_vs", phase_max(Phase::kRedistribute), "vs"},
          {"core.replicate_vs", phase_max(Phase::kReplicate), "vs"},
          {"core.shift_vs", phase_max(Phase::kShift), "vs"},
          {"core.compute_vs", phase_max(Phase::kCompute), "vs"},
          {"core.reduce_vs", phase_max(Phase::kReduce), "vs"},
          {"core.misc_vs", phase_max(Phase::kMisc), "vs"},
          {"core.skew_vs", skew, "vs"}};
}

/// Engine and service counters; zero on workloads that use neither.
struct ServingCounters {
  double requests = 0, plan_hit_rate = 0, pool_hit_rate = 0;
  double completed = 0, host_ms_per_request = 0, queue_wait_p99_vs = 0,
         exec_p99_vs = 0;
};

Metrics layer_serving(const ServingCounters& s) {
  return {{"engine.requests", s.requests, "count"},
          {"engine.plan_hit_rate", s.plan_hit_rate, "ratio"},
          {"engine.pool_hit_rate", s.pool_hit_rate, "ratio"},
          {"service.completed", s.completed, "count"},
          {"service.host_ms_per_request", s.host_ms_per_request, "ms"},
          {"service.queue_wait_p99_vs", s.queue_wait_p99_vs, "vs"},
          {"service.exec_p99_vs", s.exec_p99_vs, "vs"}};
}

ServingCounters engine_counters(const ca3dmm::engine::EngineStats& e) {
  ServingCounters s;
  s.requests = static_cast<double>(e.requests);
  s.plan_hit_rate = e.plan_hit_rate();
  s.pool_hit_rate = e.pool.hit_rate();
  return s;
}

// The probe parameters every workload shares unless it has its own: the
// purification engine shape and its local GEMM block.
const PurifySpec kPurify{};

ProbeContext base_probe_context() {
  ProbeContext ctx;
  ctx.engine_n = kPurify.n;
  ctx.engine_P = kPurify.P;
  ctx.engine_machine = purify_machine(kPurify);
  ctx.engine_2d_layout = true;
  ctx.engine_pr = kPurify.pr;
  ctx.engine_pc = kPurify.pc;
  const ProcGrid g =
      ca3dmm::Ca3dmmPlan::make(kPurify.n, kPurify.n, kPurify.n, kPurify.P)
          .grid();
  ctx.gemm_m = kPurify.n / g.pm;
  ctx.gemm_n = kPurify.n / g.pn;
  ctx.gemm_k = kPurify.n / g.pk;
  return ctx;
}

/// Appends the probes, the counters and the trace overhead, in the order of
/// BENCHMARK.json's per_layer list.
void finish_traced(Result& res, const Counters& traced,
                   const ServingCounters& serving, const ProbeContext& ctx,
                   double untraced_host_s, double traced_host_s,
                   const char* self_path) {
  const Metrics probes = run_probes(ctx, self_path);
  const Metrics counters = layer_counters(traced);
  ServingCounters with_host = serving;
  if (serving.completed == 0) {
    // Workloads without a service time a small serve (8 tenants x 16
    // requests) so that this host figure is measured on every workload.
    ServiceSpec small;
    small.requests_each = 16;
    ServiceRep r;
    on_cpus(0, small.cpus, [&] { r = service_once(small, 1, false); });
    with_host.host_ms_per_request =
        1e3 * r.host.wall_s / static_cast<double>(r.requests);
  }
  const Metrics serve = layer_serving(with_host);
  std::map<std::string, Metric> by_name;
  for (const Metrics* part : {&probes, &counters, &serve})
    for (const Metric& m : *part) by_name[m.name] = m;
  by_name["bench.trace_overhead_s"] = {"bench.trace_overhead_s",
                                       traced_host_s - untraced_host_s, "s"};
  static const char* const kOrder[] = {
      "linalg.gemm_gflops", "linalg.gflop", "simmpi.run_empty_s",
      "simmpi.run_rss_mb", "simmpi.alltoallv_s", "simmpi.split_s",
      "simmpi.allgather_us", "simmpi.sent_mb", "simmpi.inter_node_mb",
      "simmpi.comm_splits", "core.redistribute_vs", "core.replicate_vs",
      "core.shift_vs", "core.compute_vs", "core.reduce_vs", "core.misc_vs",
      "core.skew_vs", "core.plan_ms", "layout.volume_ms",
      "costmodel.predict_ca3dmm_ms", "costmodel.predict_cosma_ms",
      "costmodel.predict_ctf_ms", "costmodel.predict_custom_ms",
      "costmodel.quote_ms", "engine.requests", "engine.plan_hit_rate",
      "engine.pool_hit_rate", "engine.multiply_s", "engine.plan_build_ms",
      "service.completed", "service.host_ms_per_request",
      "service.queue_wait_p99_vs", "service.exec_p99_vs",
      "bench.trace_overhead_s"};
  for (const char* name : kOrder) res.metrics.push_back(by_name.at(name));
}

/// Repeats `unit` until `seconds` of host time have passed (at least
/// twice), each repetition confined to the next block of `cpus` CPUs: the
/// speed of a CPU on a shared host differs from another's and drifts, and
/// rotating keeps the median from hinging on where the scheduler placed the
/// threads. Holding a repetition to part of the machine, with no more fiber
/// workers than its CPUs, also keeps other load on the host from stretching
/// the scheduler's lock waits.
template <typename Unit>
void repeat_for(double seconds, int cpus, Unit&& unit) {
  const double t0 = wall_now();
  int rep = 0;
  do {
    on_cpus(rep++, cpus, unit);
  } while (rep < 2 || wall_now() - t0 < seconds);
}

/// `unit()` confined to block `slot` of `cpus` CPUs, as in repeat_for.
template <typename Unit>
auto pinned(int slot, int cpus, Unit&& unit) {
  decltype(unit()) r;
  on_cpus(slot, cpus, [&] { r = unit(); });
  return r;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Result run_fig3(std::uint64_t seed, double seconds, bool trace,
                const char* self) {
  const Fig3Spec spec;
  Result res;
  std::vector<Sample> samples;
  std::optional<Fig3Rep> first;
  const auto unit = [&](bool traced) -> std::optional<Fig3Rep> {
    ++res.attempted;
    try {
      Fig3Rep r = fig3_once(spec, seed, traced);
      std::string why;
      if (!fig3_check(spec, seed, r, &why)) reject(res, "fig3-p3072", why);
      if (first && r.ctr.vtime_s != first->ctr.vtime_s)
        reject(res, "fig3-p3072", "vtime differs between repetitions");
      std::printf("fig3-p3072: setup %.3f s, multiply %.3f s wall / %.3f s "
                  "cpu, vtime %.9g s%s\n",
                  r.setup_s, r.host.wall_s, r.host.cpu_s, r.ctr.vtime_s,
                  traced ? " (traced)" : "");
      return r;
    } catch (const std::exception& e) {
      ++res.failed;
      std::printf("fig3-p3072: multiply failed: %s\n", e.what());
      return std::nullopt;
    }
  };
  const Machine mach = fig3_machine(spec);
  if (!trace) {
    repeat_for(seconds, spec.cpus, [&] {
      std::optional<Fig3Rep> r = unit(false);
      if (!r) return;
      samples.push_back({r->setup_s, r->host.wall_s, r->host.cpu_s});
      r->c.clear();
      if (!first) first = std::move(r);
    });
    if (!first) return res;
    const double v = first->ctr.vtime_s;
    const double pct = 100.0 * ca3dmm::gemm_flops(spec.n, spec.n, spec.n) /
                       (v * spec.P * mach.rank_peak_flops());
    // One multiply per repetition: its vtime is every latency sample.
    res.metrics =
        end_to_end(samples, true, v, pct, first->ctr.peak_rank_mb, v, v);
    return res;
  }
  // Untraced, traced, untraced: the overhead compares two warm units.
  const auto untraced = [&] { return unit(false); };
  first = pinned(0, spec.cpus, untraced);
  std::optional<Fig3Rep> traced =
      pinned(1, spec.cpus, [&] { return unit(true); });
  std::optional<Fig3Rep> plain = pinned(1, spec.cpus, untraced);
  if (!first || !plain || !traced) return res;
  ProbeContext ctx = base_probe_context();
  ctx.plan_m = ctx.plan_n = ctx.plan_k = spec.n;
  ctx.plan_P = spec.P;
  ctx.plan_grid = spec.grid;
  finish_traced(res, traced->ctr, {}, ctx, plain->host.wall_s,
                traced->host.wall_s, self);
  return res;
}

Result run_purify(std::uint64_t seed, double seconds, bool trace,
                  const char* self) {
  const PurifySpec spec = kPurify;
  Result res;
  std::vector<Sample> samples;
  std::optional<PurifyRep> first;
  const auto unit = [&](bool traced) -> std::optional<PurifyRep> {
    try {
      PurifyRep r = purify_once(spec, seed, traced);
      res.attempted += static_cast<i64>(r.multiply_vs.size());
      std::string why;
      if (!purify_check(spec, seed, r, &why)) reject(res, "purify-p8", why);
      if (first && (r.vtime_s != first->vtime_s ||
                    r.iterations != first->iterations))
        reject(res, "purify-p8", "solve differs between repetitions");
      std::printf("purify-p8: setup %.3f s, solve %.3f s wall / %.3f s cpu, "
                  "%d iterations, residual %.3e, vtime %.9g s%s\n",
                  r.setup_s, r.host.wall_s, r.host.cpu_s, r.iterations,
                  r.residuals.empty() ? 0.0 : r.residuals.back(), r.vtime_s,
                  traced ? " (traced)" : "");
      return r;
    } catch (const std::exception& e) {
      // A failed solve counts as its full round of multiplies.
      res.attempted += 2 * spec.max_iter;
      res.failed += 2 * spec.max_iter;
      std::printf("purify-p8: solve failed: %s\n", e.what());
      return std::nullopt;
    }
  };
  if (!trace) {
    repeat_for(seconds, spec.cpus, [&] {
      std::optional<PurifyRep> r = unit(false);
      if (!r) return;
      samples.push_back({r->setup_s, r->host.wall_s, r->host.cpu_s});
      r->x.clear();
      r->first_x2.clear();
      if (!first) first = std::move(r);
    });
    if (!first) return res;
    const double mults = static_cast<double>(first->multiply_vs.size());
    const double pct =
        100.0 * mults * ca3dmm::gemm_flops(spec.n, spec.n, spec.n) /
        (first->vtime_s * spec.P * purify_machine(spec).rank_peak_flops());
    res.metrics = end_to_end(samples, true, first->vtime_s, pct,
                             first->ctr.peak_rank_mb,
                             percentile(first->multiply_vs, 0.5),
                             percentile(first->multiply_vs, 0.99));
    return res;
  }
  // Untraced, traced, untraced: the overhead compares two warm units.
  const auto untraced = [&] { return unit(false); };
  first = pinned(0, spec.cpus, untraced);
  std::optional<PurifyRep> traced =
      pinned(1, spec.cpus, [&] { return unit(true); });
  std::optional<PurifyRep> plain = pinned(1, spec.cpus, untraced);
  if (!first || !plain || !traced) return res;
  ProbeContext ctx = base_probe_context();
  ctx.plan_m = ctx.plan_n = ctx.plan_k = spec.n;
  ctx.plan_P = spec.P;
  finish_traced(res, traced->ctr, engine_counters(traced->engine), ctx,
                plain->host.wall_s, traced->host.wall_s, self);
  return res;
}

Result run_service(std::uint64_t seed, double seconds, bool trace,
                   const char* self) {
  const ServiceSpec spec;
  Result res;
  std::vector<Sample> samples;
  std::optional<ServiceRep> first;
  const auto unit = [&](bool traced) -> std::optional<ServiceRep> {
    try {
      ServiceRep r = service_once(spec, seed, traced);
      res.attempted += r.requests;
      for (const auto& rec : r.report.records)
        if (rec.verdict != static_cast<int>(
                               ca3dmm::service::Verdict::kCompleted))
          ++res.failed;
      std::string why;
      if (!service_check(r, &why)) reject(res, "service-p16", why);
      if (first && r.ctr.vtime_s != first->ctr.vtime_s)
        reject(res, "service-p16", "vtime differs between repetitions");
      std::printf("service-p16: setup %.3f s, serve %.3f s wall / %.3f s "
                  "cpu, %lld requests%s\n",
                  r.setup_s, r.host.wall_s, r.host.cpu_s,
                  static_cast<long long>(r.requests),
                  traced ? " (traced)" : "");
      return r;
    } catch (const std::exception& e) {
      const i64 n = static_cast<i64>(spec.tenants) * spec.requests_each;
      res.attempted += n;
      res.failed += n;
      std::printf("service-p16: serve failed: %s\n", e.what());
      return std::nullopt;
    }
  };
  const auto latencies = [](const ServiceRep& r) {
    std::vector<double> total, wait, exec;
    for (const auto& rec : r.report.records) {
      total.push_back(rec.finish_s - rec.arrival_s);
      wait.push_back(rec.start_s - rec.arrival_s);
      exec.push_back(rec.finish_s - rec.start_s);
    }
    return std::tuple{total, wait, exec};
  };
  if (!trace) {
    repeat_for(seconds, spec.cpus, [&] {
      std::optional<ServiceRep> r = unit(false);
      if (!r) return;
      samples.push_back({r->setup_s, r->host.wall_s, r->host.cpu_s});
      if (!first) first = std::move(r);
    });
    if (!first) return res;
    const auto [total, wait, exec] = latencies(*first);
    double makespan = 0, flops = 0;
    for (const auto& rec : first->report.records)
      makespan = std::max(makespan, rec.finish_s);
    for (const auto& q : first->load)
      flops += q.batch * ca3dmm::gemm_flops(q.m, q.n, q.k);
    const double pct = 100.0 * flops /
                       (makespan * spec.P * service_machine().rank_peak_flops());
    std::printf("service-p16: latency over %zu completed requests\n",
                total.size());
    res.metrics = end_to_end(samples, true, makespan, pct,
                             first->ctr.peak_rank_mb, percentile(total, 0.5),
                             percentile(total, 0.99));
    return res;
  }
  // Untraced, traced, untraced: the overhead compares two warm units.
  const auto untraced = [&] { return unit(false); };
  first = pinned(0, spec.cpus, untraced);
  std::optional<ServiceRep> traced =
      pinned(1, spec.cpus, [&] { return unit(true); });
  std::optional<ServiceRep> plain = pinned(1, spec.cpus, untraced);
  if (!first || !plain || !traced) return res;
  ServingCounters sc = engine_counters(traced->report.engine);
  const auto [total, wait, exec] = latencies(*traced);
  sc.completed = static_cast<double>(total.size());
  sc.host_ms_per_request =
      1e3 * plain->host.wall_s / static_cast<double>(plain->requests);
  sc.queue_wait_p99_vs = percentile(wait, 0.99);
  sc.exec_p99_vs = percentile(exec, 0.99);
  ProbeContext ctx = base_probe_context();
  // The service's most frequent shape (iterative and square tenants).
  ctx.plan_m = ctx.plan_n = ctx.plan_k = 96;
  ctx.plan_P = spec.P;
  ctx.plan_grid = ProcGrid{2, 4, 2};
  ctx.engine_n = 96;
  ctx.engine_P = spec.P;
  ctx.engine_grid = ProcGrid{2, 4, 2};
  ctx.engine_machine = service_machine();
  ctx.engine_2d_layout = false;
  finish_traced(res, traced->ctr, sc, ctx, plain->host.wall_s,
                traced->host.wall_s, self);
  return res;
}

Result run_model(std::uint64_t seed, double seconds, bool trace,
                 const char* self) {
  const ModelSpec spec = model_full();
  Result res;
  std::vector<Sample> samples;
  std::optional<ModelRep> first;
  const auto unit = [&]() -> std::optional<ModelRep> {
    try {
      ModelRep r = model_once(spec, seed);
      res.attempted += static_cast<i64>(r.points.size());
      std::string why;
      if (!model_check(spec, r, &why)) reject(res, "model-fig3", why);
      std::printf("model-fig3: setup %.6f s, sweep %.3f s wall / %.3f s cpu, "
                  "%zu predictions\n",
                  r.setup_s, r.host.wall_s, r.host.cpu_s, r.points.size());
      return r;
    } catch (const std::exception& e) {
      const i64 n = static_cast<i64>(spec.classes.size() * spec.Ps.size()) *
                    3 * 2;  // algorithms x layouts
      res.attempted += n;
      res.failed += n;
      std::printf("model-fig3: sweep failed: %s\n", e.what());
      return std::nullopt;
    }
  };
  if (!trace) {
    repeat_for(seconds, 1, [&] {
      std::optional<ModelRep> r = unit();
      if (!r) return;
      samples.push_back({r->setup_s, r->host.wall_s, r->host.cpu_s});
      if (!first) first = std::move(r);
    });
    if (!first) return res;
    const ca3dmm::simmpi::Machine mach = ca3dmm::simmpi::Machine::phoenix_mpi();
    double vsum = 0, peak = 0, top_pct = 0;
    std::vector<double> t;
    for (const ModelPoint& p : first->points) {
      t.push_back(p.pred.t_total);
      peak = std::max(peak, static_cast<double>(p.pred.peak_bytes) / kMiB);
      const ProblemClass& pc = spec.classes[static_cast<size_t>(p.cls)];
      if (p.cls == 0 && p.P == spec.Ps.back() && !p.custom &&
          p.algo == ca3dmm::costmodel::Algo::kCa3dmm)
        top_pct = p.pred.pct_peak(pc.m, pc.n, pc.k, p.P, mach);
    }
    // Summed in sorted order: the seed shuffles the evaluation order, and
    // the sum must not move with it.
    std::sort(t.begin(), t.end());
    for (double x : t) vsum += x;
    res.metrics = end_to_end(samples, false, vsum, top_pct, peak,
                             percentile(t, 0.5), percentile(t, 0.99));
    return res;
  }
  // Nothing in a sweep is traced: the overhead is the spread of two sweeps.
  std::optional<ModelRep> plain = pinned(0, 1, unit);
  std::optional<ModelRep> again = pinned(0, 1, unit);
  if (!plain || !again) return res;
  ProbeContext ctx = base_probe_context();
  ctx.plan_m = ctx.plan_n = ctx.plan_k = 50000;
  ctx.plan_P = spec.Ps.back();
  finish_traced(res, Counters{}, {}, ctx, plain->host.wall_s,
                again->host.wall_s, self);
  return res;
}

}  // namespace

int selftest_main();

/// Latency versus arrival rate of the service-p16 load, three seeds per
/// rate: the measurement that places ServiceSpec::mean_gap_s below the knee.
int rate_sweep_main() {
  std::printf("%8s %5s %9s %8s %12s %12s %12s\n", "gap_ms", "seed",
              "requests", "refused", "p50_vs", "p99_vs", "makespan_vs");
  for (double gap_ms : {3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 24.0}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ServiceSpec spec;
      spec.mean_gap_s = gap_ms * 1e-3;
      const ServiceRep r = service_once(spec, seed, false);
      std::vector<double> lat;
      double makespan = 0;
      i64 refused = 0;
      for (const auto& rec : r.report.records) {
        if (rec.verdict !=
            static_cast<int>(ca3dmm::service::Verdict::kCompleted)) {
          ++refused;
          continue;
        }
        lat.push_back(rec.finish_s - rec.arrival_s);
        makespan = std::max(makespan, rec.finish_s);
      }
      std::printf("%8.1f %5llu %9lld %8lld %12.6f %12.6f %12.6f\n", gap_ms,
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(r.requests),
                  static_cast<long long>(refused), percentile(lat, 0.5),
                  percentile(lat, 0.99), makespan);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig3-p3072|purify-p8|service-p16|"
               "model-fig3 --seed N --seconds S --trace 0|1\n"
               "       %s --selftest | --rate-sweep\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest_main();
    if (a == "--rate-sweep") return rate_sweep_main();
    if (a == "--probe-empty-run" && has_value)
      return probe_empty_run_main(std::atoi(argv[++i]));
    if (a == "--workload" && has_value)
      workload = argv[++i];
    else if (a == "--seed" && has_value)
      seed = std::atoll(argv[++i]);
    else if (a == "--seconds" && has_value)
      seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_value)
      trace = std::atoi(argv[++i]);
    else
      return usage(argv[0]);
  }
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1))
    return usage(argv[0]);

  char self[PATH_MAX] = {};
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) std::snprintf(self, sizeof self, "%s", argv[0]);

  const auto s = static_cast<std::uint64_t>(seed);
  std::printf("perfbench %s seed %llu, %.0f s, trace %d, %d host CPUs\n",
              workload.c_str(), static_cast<unsigned long long>(s), seconds,
              trace, host_cpus());
  Result res;
  if (workload == "fig3-p3072")
    res = run_fig3(s, seconds, trace == 1, self);
  else if (workload == "purify-p8")
    res = run_purify(s, seconds, trace == 1, self);
  else if (workload == "service-p16")
    res = run_service(s, seconds, trace == 1, self);
  else if (workload == "model-fig3")
    res = run_model(s, seconds, trace == 1, self);
  else
    return usage(argv[0]);
  if (res.metrics.empty()) res.correct = false;
  print_result(res);
  return res.correct ? 0 : 1;
}
