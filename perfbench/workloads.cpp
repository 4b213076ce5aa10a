// The four workloads of the two-clock benchmark: one repetition each, plus
// the output checks. See perfbench.hpp for the split.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "costmodel/admission.hpp"
#include "perfbench.hpp"
#include "service/loadgen.hpp"
#include "simmpi/comm.hpp"

namespace perfbench {

using ca3dmm::Ca3dmmOptions;
using ca3dmm::Ca3dmmPlan;
using ca3dmm::matrix_entry;
using ca3dmm::Rect;
using ca3dmm::Rng;
using ca3dmm::splitmix64;
using ca3dmm::costmodel::Algo;
using ca3dmm::costmodel::Workload;
using ca3dmm::simmpi::Cluster;
using ca3dmm::simmpi::Comm;
using ca3dmm::simmpi::Machine;
using ca3dmm::simmpi::RankStats;

// ---------------------------------------------------------------------------
// Host clocks and reporting.
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process's own address space.
  // ru_maxrss is not: exec() folds the parent's peak into it.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f && kib < 0 && std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
  if (f) std::fclose(f);
  if (kib < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void on_cpus(int slot, int width, const std::function<void()>& fn) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0) return fn();
  std::vector<int> avail;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &saved)) avail.push_back(cpu);
  const int n = static_cast<int>(avail.size());
  width = std::clamp(width, 1, n);
  cpu_set_t some;
  CPU_ZERO(&some);
  for (int i = 0; i < width; ++i)
    CPU_SET(avail[static_cast<size_t>((slot * width + i) % n)], &some);
  sched_setaffinity(0, sizeof(some), &some);
  try {
    fn();
  } catch (...) {
    sched_setaffinity(0, sizeof(saved), &saved);
    throw;
  }
  sched_setaffinity(0, sizeof(saved), &saved);
}

void use_fibers(Cluster& cl) {
  cl.set_backend(Cluster::Backend::kFibers);
  cl.set_fiber_workers(std::min(host_cpus(), cl.nranks()));
}

Counters read_counters(const Cluster& cl) {
  Counters c;
  const RankStats agg = cl.aggregate_stats();
  c.vtime_s = agg.vtime;
  c.gflop = agg.flops / 1e9;
  c.inter_node_mb = agg.total_inter_bytes() / (1 << 20);
  c.peak_rank_mb = static_cast<double>(agg.peak_bytes) / (1 << 20);
  for (int r = 0; r < cl.nranks(); ++r) {
    c.sent_mb += cl.stats(r).total_bytes_sent() / (1 << 20);
    c.comm_splits += static_cast<double>(cl.stats(r).comm_splits);
  }
  if (cl.trace_config().enabled) c.trace = ca3dmm::simmpi::aggregate_trace(cl);
  return c;
}

namespace {

/// Per-rank local buffers of `lay` filled from `entry(i, j)`.
template <typename Entry>
std::vector<std::vector<double>> fill_all(const BlockLayout& lay,
                                          Entry&& entry) {
  std::vector<std::vector<double>> out(static_cast<size_t>(lay.nranks()));
  for (int r = 0; r < lay.nranks(); ++r) {
    std::vector<double>& buf = out[static_cast<size_t>(r)];
    buf.reserve(static_cast<size_t>(lay.local_size(r)));
    for (const Rect& rc : lay.rects_of(r))
      for (i64 i = rc.r.lo; i < rc.r.hi; ++i)
        for (i64 j = rc.c.lo; j < rc.c.hi; ++j) buf.push_back(entry(i, j));
  }
  return out;
}

}  // namespace

const double* locate(const BlockLayout& lay,
                     const std::vector<std::vector<double>>& bufs, i64 i,
                     i64 j) {
  for (int r = 0; r < lay.nranks(); ++r) {
    const std::vector<Rect>& rects = lay.rects_of(r);
    for (size_t x = 0; x < rects.size(); ++x)
      if (rects[x].r.contains(i) && rects[x].c.contains(j))
        return bufs[static_cast<size_t>(r)].data() +
               lay.local_offset(r, x, i, j);
  }
  return nullptr;
}

namespace {

/// Sampled positions of an m x n result: two corners, then seeded draws.
std::vector<std::pair<i64, i64>> sample_positions(std::uint64_t seed, i64 m,
                                                  i64 n, int count) {
  std::vector<std::pair<i64, i64>> out = {{0, 0}, {m - 1, n - 1}};
  Rng rng(splitmix64(seed ^ 0xc0ffeeULL));
  while (static_cast<int>(out.size()) < count)
    out.emplace_back(rng.uniform(0, m - 1), rng.uniform(0, n - 1));
  return out;
}

/// Checks sampled entries of C = A * B (A is m x k, B is k x n) against
/// dot products of the generator functions, with a bound scaled by the sum
/// of absolute products (the summation order differs from the library's).
template <typename EntryA, typename EntryB>
bool check_product_samples(const BlockLayout& c_lay,
                           const std::vector<std::vector<double>>& c,
                           i64 m, i64 n, i64 k, EntryA&& a, EntryB&& b,
                           std::uint64_t seed, int samples, std::string* why) {
  for (const auto& [i, j] : sample_positions(seed, m, n, samples)) {
    long double ref = 0, mag = 0;
    for (i64 t = 0; t < k; ++t) {
      const long double p =
          static_cast<long double>(a(i, t)) * static_cast<long double>(b(t, j));
      ref += p;
      mag += std::fabs(p);
    }
    const double* got = locate(c_lay, c, i, j);
    const double err =
        got ? static_cast<double>(std::fabs(*got - ref)) : INFINITY;
    if (!(err <= 1e-12 * static_cast<double>(mag) + 1e-300)) {
      *why = ca3dmm::strprintf("C(%lld,%lld) = %.17g, expected %.17g",
                               static_cast<long long>(i),
                               static_cast<long long>(j), got ? *got : NAN,
                               static_cast<double>(ref));
      return false;
    }
  }
  return true;
}

bool rel_close(double a, double b, double rtol) {
  return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
}

/// Repetitions of a set-up too short to time once.
constexpr int kSetupRepeats = 15;

std::uint64_t seed_of(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

}  // namespace

// ---------------------------------------------------------------------------
// fig3-p3072
// ---------------------------------------------------------------------------

Machine fig3_machine(const Fig3Spec& s) {
  // Node boundaries aligned with the 256-rank Cannon groups, as in
  // bench_fig3_strong_scaling's executed points.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = s.ranks_per_node;
  mach.cores_per_node = s.ranks_per_node;
  return mach;
}

Fig3Rep fig3_once(const Fig3Spec& s, std::uint64_t seed, bool traced) {
  Fig3Rep rep;
  const Machine mach = fig3_machine(s);
  Ca3dmmOptions opt;
  opt.force_grid = s.grid;
  const std::uint64_t sa = seed_of(seed, 1), sb = seed_of(seed, 2);
  std::optional<Cluster> cl;
  Ca3dmmPlan plan;
  BlockLayout a_lay, b_lay;
  std::vector<std::vector<double>> a, b;
  // Set-up is short, so it is repeated and its median reported.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = wall_now();
    cl.reset();
    cl.emplace(s.P, mach);
    use_fibers(*cl);
    cl->set_trace(traced);
    plan = Ca3dmmPlan::make(s.n, s.n, s.n, s.P, opt);
    a_lay = plan.a_native();
    b_lay = plan.b_native();
    rep.c_layout = plan.c_native();
    a = fill_all(a_lay,
                 [&](i64 i, i64 j) { return matrix_entry<double>(sa, i, j); });
    b = fill_all(b_lay,
                 [&](i64 i, i64 j) { return matrix_entry<double>(sb, i, j); });
    rep.c.assign(static_cast<size_t>(s.P), {});
    for (int r = 0; r < s.P; ++r)
      rep.c[static_cast<size_t>(r)].assign(
          static_cast<size_t>(rep.c_layout.local_size(r)), 0.0);
    setups.push_back(wall_now() - t0);
  }
  rep.setup_s = median(setups);

  const Stopwatch sw;
  cl->run([&](Comm& world) {
    const size_t me = static_cast<size_t>(world.rank());
    ca3dmm::ca3dmm_multiply<double>(world, plan, false, false, a_lay,
                                    a[me].data(), b_lay, b[me].data(),
                                    rep.c_layout, rep.c[me].data());
  });
  rep.host = sw.elapsed();
  rep.ctr = read_counters(*cl);

  Workload w{s.n, s.n, s.n};
  w.force_grid = s.grid;
  rep.predicted_s = ca3dmm::costmodel::predict(Algo::kCa3dmm, w, s.P, mach)
                        .t_total;
  return rep;
}

bool fig3_check(const Fig3Spec& s, std::uint64_t seed, const Fig3Rep& r,
                std::string* why) {
  if (!rel_close(r.ctr.vtime_s, r.predicted_s, 1e-6)) {
    *why = ca3dmm::strprintf("executed vtime %.12g s != predicted %.12g s",
                             r.ctr.vtime_s, r.predicted_s);
    return false;
  }
  const std::uint64_t sa = seed_of(seed, 1), sb = seed_of(seed, 2);
  return check_product_samples(
      r.c_layout, r.c, s.n, s.n, s.n,
      [&](i64 i, i64 j) { return matrix_entry<double>(sa, i, j); },
      [&](i64 i, i64 j) { return matrix_entry<double>(sb, i, j); }, seed,
      s.samples, why);
}

// ---------------------------------------------------------------------------
// purify-p8
// ---------------------------------------------------------------------------

Machine purify_machine(const PurifySpec& s) {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = s.ranks_per_node;
  mach.cores_per_node = s.ranks_per_node;
  return mach;
}

double purify_x0(std::uint64_t seed, i64 i, i64 j, i64 n) {
  // The trial density matrix of examples/density_purification.cpp: half the
  // spectrum near 0.85, half near 0.15, plus small symmetric noise, so
  // McWeeny's iteration converges quadratically and trace(X) -> n/2.
  const double noise = 0.2 / static_cast<double>(n);
  const double sym =
      matrix_entry<double>(seed, std::min(i, j), std::max(i, j));
  const double diag = (i < n / 2) ? 0.85 : 0.15;
  return (i == j ? diag : 0.0) + noise * sym;
}

namespace {

/// Host seconds of the solve's set-up alone, on a cluster of its own: the
/// cluster, X0, an engine and a cold plan_for, up to the barrier after it.
double purify_setup_trial(const PurifySpec& s, std::uint64_t sx) {
  const double t0 = wall_now();
  Cluster cl(s.P, purify_machine(s));
  use_fibers(cl);
  const BlockLayout lay = BlockLayout::grid_2d(s.n, s.n, s.pr, s.pc);
  const auto x =
      fill_all(lay, [&](i64 i, i64 j) { return purify_x0(sx, i, j, s.n); });
  double t_ready = 0;
  cl.run([&](Comm& world) {
    ca3dmm::engine::PgemmEngine eng(world);
    eng.plan_for(s.n, s.n, s.n);
    world.barrier();
    if (world.rank() == 0) t_ready = wall_now();
  });
  return t_ready - t0;
}

/// Set-up trials per solve besides the solve's own set-up.
constexpr int kPurifySetupTrials = 4;

}  // namespace

PurifyRep purify_once(const PurifySpec& s, std::uint64_t seed, bool traced) {
  PurifyRep rep;
  const i64 n = s.n;
  const std::uint64_t sx = seed_of(seed, 3);
  // Set-up is short next to its spread, so it is repeated and its median
  // reported.
  std::vector<double> setups;
  for (int k = 0; k < kPurifySetupTrials; ++k)
    setups.push_back(purify_setup_trial(s, sx));
  const double t0 = wall_now();
  Cluster cl(s.P, purify_machine(s));
  use_fibers(cl);
  cl.set_trace(traced);
  rep.layout = BlockLayout::grid_2d(n, n, s.pr, s.pc);
  rep.x = fill_all(rep.layout,
                   [&](i64 i, i64 j) { return purify_x0(sx, i, j, n); });
  rep.first_x2.resize(static_cast<size_t>(s.P));
  const double setup_host = wall_now() - t0;

  std::vector<double> start_v(static_cast<size_t>(s.P)),
      end_v(static_cast<size_t>(s.P));
  std::vector<std::vector<double>> mult_v(static_cast<size_t>(s.P));
  double t_ready = 0;
  Stopwatch sw_ready;  // restarted by rank 0 once the plan is built
  const double t_run = wall_now();
  cl.run([&](Comm& world) {
    const int me = world.rank();
    const size_t ume = static_cast<size_t>(me);
    std::vector<double>& x = rep.x[ume];
    std::vector<double> x2(x.size()), x3(x.size());
    ca3dmm::engine::PgemmEngine eng(world);
    eng.plan_for(n, n, n);
    world.barrier();
    if (me == 0) {
      t_ready = wall_now();
      sw_ready = Stopwatch();
    }
    start_v[ume] = world.now();

    ca3dmm::engine::Request<double> sq;  // X2 = X * X
    sq.m = sq.n = sq.k = n;
    sq.a_layout = sq.b_layout = sq.c_layout = &rep.layout;
    sq.a = x.data();
    sq.b = x.data();
    sq.c = x2.data();
    ca3dmm::engine::Request<double> cube = sq;  // X3 = X2 * X
    cube.a = x2.data();
    cube.c = x3.data();
    const auto timed = [&](const ca3dmm::engine::Request<double>& req) {
      const double c0 = world.now();
      eng.multiply(req);
      mult_v[ume].push_back(world.now() - c0);
    };

    for (int t = 0; t < s.max_iter; ++t) {
      timed(sq);
      if (t == 0) rep.first_x2[ume] = x2;
      timed(cube);
      double loc[2] = {0.0, 0.0};  // ||X^2 - X||_F^2 part, trace(X_new)
      i64 pos = 0;
      for (const Rect& r : rep.layout.rects_of(me))
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j, ++pos) {
            const size_t p = static_cast<size_t>(pos);
            const double d = x2[p] - x[p];
            loc[0] += d * d;
            x[p] = 3.0 * x2[p] - 2.0 * x3[p];
            if (i == j) loc[1] += x[p];
          }
      double glob[2] = {0.0, 0.0};
      world.allreduce(loc, glob, 2);
      const double residual = std::sqrt(glob[0]);
      if (me == 0) {
        rep.residuals.push_back(residual);
        rep.iterations = t + 1;
      }
      if (residual < s.tol) {
        if (me == 0) rep.converged = true;
        break;
      }
    }
    end_v[ume] = world.now();
    if (me == 0) rep.engine = eng.stats();
  });
  rep.host = sw_ready.elapsed();
  setups.push_back(setup_host + (t_ready - t_run));
  rep.setup_s = median(setups);
  rep.ctr = read_counters(cl);
  rep.vtime_s = *std::max_element(end_v.begin(), end_v.end()) -
                *std::min_element(start_v.begin(), start_v.end());
  // Per-multiply latency: the slowest rank's clock delta.
  for (size_t q = 0; q < mult_v[0].size(); ++q) {
    double m = 0;
    for (const auto& v : mult_v) m = std::max(m, v[q]);
    rep.multiply_vs.push_back(m);
  }
  return rep;
}

bool purify_check(const PurifySpec& s, std::uint64_t seed, const PurifyRep& r,
                  std::string* why) {
  const i64 n = s.n;
  if (!r.converged) {
    *why = ca3dmm::strprintf("no convergence to %.1e in %d iterations", s.tol,
                             r.iterations);
    return false;
  }
  // Assemble the final X on the host.
  std::vector<double> X(static_cast<size_t>(n * n));
  for (int rk = 0; rk < s.P; ++rk) {
    i64 pos = 0;
    for (const Rect& rc : r.layout.rects_of(rk))
      for (i64 i = rc.r.lo; i < rc.r.hi; ++i)
        for (i64 j = rc.c.lo; j < rc.c.hi; ++j)
          X[static_cast<size_t>(i * n + j)] =
              r.x[static_cast<size_t>(rk)][static_cast<size_t>(pos++)];
  }
  const auto at = [&](i64 i, i64 j) { return X[static_cast<size_t>(i * n + j)]; };
  double asym = 0, trace = 0;
  for (i64 i = 0; i < n; ++i) {
    trace += at(i, i);
    for (i64 j = i + 1; j < n; ++j)
      asym = std::max(asym, std::fabs(at(i, j) - at(j, i)));
  }
  if (!(asym <= s.tol)) {
    *why = ca3dmm::strprintf("X not symmetric: max |X_ij - X_ji| = %.3e", asym);
    return false;
  }
  if (!(std::fabs(trace - static_cast<double>(n / 2)) <= 1e-6)) {
    *why = ca3dmm::strprintf("trace(X) = %.12g, expected %lld", trace,
                             static_cast<long long>(n / 2));
    return false;
  }
  // Idempotency, Freivalds-style: ||X(Xv) - Xv|| / ||v|| for seeded v,
  // computed here without the library's GEMM.
  Rng rng(seed_of(seed, 4));
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> v(static_cast<size_t>(n)), xv(v.size()), xxv(v.size());
    double vn = 0;
    for (double& e : v) {
      e = rng.uniform01() - 0.5;
      vn += e * e;
    }
    const auto matvec = [&](const std::vector<double>& in,
                            std::vector<double>& out) {
      for (i64 i = 0; i < n; ++i) {
        double acc = 0;
        for (i64 j = 0; j < n; ++j) acc += at(i, j) * in[static_cast<size_t>(j)];
        out[static_cast<size_t>(i)] = acc;
      }
    };
    matvec(v, xv);
    matvec(xv, xxv);
    double dn = 0;
    for (size_t i = 0; i < v.size(); ++i)
      dn += (xxv[i] - xv[i]) * (xxv[i] - xv[i]);
    const double rel = std::sqrt(dn / vn);
    if (!(rel <= s.tol)) {
      *why = ca3dmm::strprintf("X not idempotent: ||(X^2 - X)v||/||v|| = %.3e",
                               rel);
      return false;
    }
  }
  const std::uint64_t sx = seed_of(seed, 3);
  const auto x0 = [&](i64 i, i64 j) { return purify_x0(sx, i, j, n); };
  return check_product_samples(r.layout, r.first_x2, n, n, n, x0, x0, seed,
                               s.samples, why);
}

// ---------------------------------------------------------------------------
// service-p16
// ---------------------------------------------------------------------------

Machine service_machine() {
  // The fig5 drift-gate machine: P = 16 as 4 nodes x 4 ranks.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  return mach;
}

ServiceRep service_once(const ServiceSpec& s, std::uint64_t seed,
                        bool traced) {
  using namespace ca3dmm::service;
  ServiceRep rep;
  ServiceConfig cfg;
  std::optional<Cluster> cl;
  // Set-up is short, so it is repeated and its median reported.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = wall_now();
    LoadSpec spec;
    spec.seed = seed_of(seed, 5);
    spec.tenants = default_profiles(s.tenants, s.requests_each);
    for (TenantProfile& p : spec.tenants) p.mean_gap_s = s.mean_gap_s;
    GeneratedLoad load = generate_load(spec, s.P);
    // Pool budget as in tools/loadgen: twice the largest predicted peak.
    ca3dmm::costmodel::CostOracle oracle(s.P, service_machine());
    i64 max_peak = 0;
    for (const ServiceRequest& r : load.requests) {
      Workload w{r.m, r.n, r.k};
      w.force_grid = r.opt.force_grid;
      max_peak =
          std::max(max_peak, oracle.quote(Algo::kCa3dmm, w).peak_bytes);
    }
    cfg = ServiceConfig{};
    cfg.tenants = load.tenants;
    cfg.memory_budget_bytes = 2 * max_peak;
    cl.reset();
    cl.emplace(s.P, service_machine());
    use_fibers(*cl);
    cl->set_trace(traced);
    rep.load = std::move(load.requests);
    setups.push_back(wall_now() - t0);
  }
  rep.setup_s = median(setups);
  rep.requests = static_cast<i64>(rep.load.size());

  const Stopwatch sw;
  cl->run([&](Comm& world) {
    PgemmService svc(world, cfg);
    ServiceReport r = svc.serve(rep.load);
    if (world.rank() == 0) rep.report = std::move(r);
  });
  rep.host = sw.elapsed();
  rep.ctr = read_counters(*cl);
  return rep;
}

bool service_check(const ServiceRep& r, std::string* why) {
  using ca3dmm::service::Verdict;
  if (static_cast<i64>(r.report.records.size()) != r.requests) {
    *why = ca3dmm::strprintf("%zu records for %lld requests",
                             r.report.records.size(),
                             static_cast<long long>(r.requests));
    return false;
  }
  std::vector<double> arrival_of;
  for (const auto& rec : r.report.records) {
    const auto it = std::find_if(r.load.begin(), r.load.end(),
                                 [&](const auto& q) { return q.id == rec.id; });
    const char* bad = nullptr;
    if (it == r.load.end() || it->arrival_s != rec.arrival_s)
      bad = "record does not match a scheduled arrival";
    else if (rec.verdict != static_cast<int>(Verdict::kCompleted) || !rec.done)
      bad = "request not completed";
    else if (!rel_close(rec.executed_s, rec.predicted_s, 1e-6))
      bad = "executed vtime differs from its quote";
    else if (!(rec.start_s >= rec.arrival_s))
      bad = "started before it arrived";
    else if (!(std::fabs(rec.finish_s - rec.start_s - rec.executed_s) <=
               1e-12 * std::max(1.0, rec.finish_s)))
      bad = "finish - start != executed";
    if (bad) {
      *why = ca3dmm::strprintf(
          "request %lld: %s (arrival %.9g start %.9g finish %.9g executed "
          "%.9g quote %.9g)",
          static_cast<long long>(rec.id), bad, rec.arrival_s, rec.start_s,
          rec.finish_s, rec.executed_s, rec.predicted_s);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// model-fig3
// ---------------------------------------------------------------------------

ModelSpec model_full() {
  return {{{"square", 50000, 50000, 50000},
           {"large-K", 6000, 6000, 1200000},
           {"large-M", 1200000, 6000, 6000},
           {"flat", 100000, 100000, 5000}},
          {192, 384, 768, 1536, 3072}};
}

namespace {

/// Grids the paper reports (Table II, P = 3072) that the solver reproduces.
struct PaperGrid {
  const char* cls;
  int P;
  ProcGrid grid;
};
constexpr PaperGrid kPaperGrids[] = {
    {"square", 3072, {16, 16, 12}},
    {"large-K", 3072, {3, 3, 341}},
    {"flat", 3072, {32, 32, 3}},
};

}  // namespace

ModelRep model_once(const ModelSpec& s, std::uint64_t seed) {
  ModelRep rep;
  const Machine mach = Machine::phoenix_mpi();
  // Set-up is short, so it is repeated and its median reported.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = wall_now();
    rep.points.clear();
    for (int c = 0; c < static_cast<int>(s.classes.size()); ++c)
      for (int P : s.Ps)
        for (Algo algo : {Algo::kCa3dmm, Algo::kCosma, Algo::kCtf})
          for (bool custom : {false, true}) {
            ModelPoint p;
            p.cls = c;
            p.P = P;
            p.algo = algo;
            p.custom = custom;
            rep.points.push_back(p);
          }
    // The seed fixes the evaluation order; predictions do not depend on it.
    Rng rng(seed_of(seed, 6));
    for (size_t i = rep.points.size(); i > 1; --i)
      std::swap(rep.points[i - 1],
                rep.points[static_cast<size_t>(
                    rng.uniform(0, static_cast<i64>(i) - 1))]);
    setups.push_back(wall_now() - t0);
  }
  rep.setup_s = median(setups);

  const Stopwatch sw;
  for (ModelPoint& p : rep.points) {
    const ProblemClass& pc = s.classes[static_cast<size_t>(p.cls)];
    Workload w{pc.m, pc.n, pc.k};
    w.custom_layout = p.custom;
    p.pred = ca3dmm::costmodel::predict(p.algo, w, p.P, mach);
  }
  rep.host = sw.elapsed();
  return rep;
}

bool model_check(const ModelSpec& s, const ModelRep& r, std::string* why) {
  const auto find = [&](int cls, int P, Algo algo,
                        bool custom) -> const ModelPoint* {
    for (const ModelPoint& p : r.points)
      if (p.cls == cls && p.P == P && p.algo == algo && p.custom == custom)
        return &p;
    return nullptr;
  };
  for (const ModelPoint& p : r.points) {
    const double t = p.pred.t_total;
    if (!(std::isfinite(t) && t > 0)) {
      *why = ca3dmm::strprintf("%s P=%d %s: t_total %g",
                               s.classes[static_cast<size_t>(p.cls)].name, p.P,
                               ca3dmm::costmodel::algo_name(p.algo), t);
      return false;
    }
  }
  for (int c = 0; c < static_cast<int>(s.classes.size()); ++c)
    for (int P : s.Ps)
      for (bool custom : {false, true}) {
        const ModelPoint* ca = find(c, P, Algo::kCa3dmm, custom);
        const ModelPoint* ctf = find(c, P, Algo::kCtf, custom);
        if (!ca || !ctf) {
          *why = "sweep point missing";
          return false;
        }
        if (!(ctf->pred.t_total > ca->pred.t_total)) {
          *why = ca3dmm::strprintf(
              "%s P=%d %s layout: CTF %.6g s not slower than CA3DMM %.6g s",
              s.classes[static_cast<size_t>(c)].name, P,
              custom ? "custom" : "native", ctf->pred.t_total,
              ca->pred.t_total);
          return false;
        }
      }
  for (const PaperGrid& pg : kPaperGrids)
    for (int c = 0; c < static_cast<int>(s.classes.size()); ++c) {
      if (std::string(s.classes[static_cast<size_t>(c)].name) != pg.cls)
        continue;
      for (bool custom : {false, true}) {
        const ModelPoint* ca = find(c, pg.P, Algo::kCa3dmm, custom);
        if (ca == nullptr) continue;
        const ProcGrid& g = ca->pred.grid;
        if (!(g == pg.grid)) {
          *why = ca3dmm::strprintf(
              "%s P=%d: grid %dx%dx%d, paper %dx%dx%d", pg.cls, pg.P, g.pm,
              g.pn, g.pk, pg.grid.pm, pg.grid.pn, pg.grid.pk);
          return false;
        }
      }
    }
  return true;
}

}  // namespace perfbench
