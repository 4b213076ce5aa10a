// Per-layer probes of the traced run: host timings of the benchmark's own
// calls into each module's public functions. Sub-millisecond calls are
// repeated and averaged; nothing inside the library is instrumented.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "costmodel/admission.hpp"
#include "linalg/gemm.hpp"
#include "perfbench.hpp"
#include "simmpi/comm.hpp"

extern char** environ;

namespace perfbench {

using ca3dmm::Ca3dmmOptions;
using ca3dmm::Ca3dmmPlan;
using ca3dmm::matrix_entry;
using ca3dmm::costmodel::Algo;
using ca3dmm::costmodel::Workload;
using ca3dmm::simmpi::Cluster;
using ca3dmm::simmpi::Comm;
using ca3dmm::simmpi::Machine;

namespace {

constexpr int kBigP = 3072;          ///< the executed top of Fig. 3
constexpr i64 kSquare = 50000;       ///< Fig. 3's square class
constexpr double kMinProbeS = 0.25;  ///< minimum host time per mean probe

/// Mean seconds per call of `fn`, over at least `min_calls` calls and
/// kMinProbeS of host time.
double mean_seconds(const std::function<void()>& fn, int min_calls = 3) {
  fn();  // warm caches and lazy set-up
  int calls = 0;
  const double t0 = wall_now();
  double t = t0;
  while (calls < min_calls || t - t0 < kMinProbeS) {
    fn();
    ++calls;
    t = wall_now();
  }
  return (t - t0) / calls;
}

/// Median seconds of `reps` calls (for calls that take tens of ms or more).
double median_seconds(const std::function<void()>& fn, int reps) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = wall_now();
    fn();
    t.push_back(wall_now() - t0);
  }
  return median(t);
}

Metrics probe_gemm(const ProbeContext& ctx) {
  const i64 m = ctx.gemm_m, n = ctx.gemm_n, k = ctx.gemm_k;
  std::vector<double> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n)),
      c(static_cast<size_t>(m * n));
  for (i64 i = 0; i < m * k; ++i)
    a[static_cast<size_t>(i)] = matrix_entry<double>(11, i / k, i % k);
  for (i64 i = 0; i < k * n; ++i)
    b[static_cast<size_t>(i)] = matrix_entry<double>(12, i / n, i % n);
  const double s = mean_seconds([&] {
    ca3dmm::gemm_blocked<double>(false, false, m, n, k, 1.0, a.data(),
                                 b.data(), c.data());
  });
  return {{"linalg.gemm_gflops", ca3dmm::gemm_flops(m, n, k) / s / 1e9,
           "GFLOP/s"}};
}

/// Host time and peak RSS of an empty Cluster::run at kBigP, measured in a
/// child process so the RSS is the run's own, not the benchmark's.
Metrics probe_empty_run(const char* self_path) {
  std::vector<double> secs, rss;
  for (int rep = 0; rep < 3; ++rep) {
    int fds[2];
    if (pipe(fds) != 0) break;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    const std::string p = std::to_string(kBigP);
    char* argv[] = {const_cast<char*>(self_path),
                    const_cast<char*>("--probe-empty-run"),
                    const_cast<char*>(p.c_str()), nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self_path, &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string out;
    char buf[256];
    for (ssize_t got; rc == 0 && (got = read(fds[0], buf, sizeof buf)) > 0;)
      out.append(buf, static_cast<size_t>(got));
    close(fds[0]);
    if (rc != 0) break;
    int status = 0;
    double s = 0, mb = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 ||
        std::sscanf(out.c_str(), "%lf %lf", &s, &mb) != 2)
      break;
    secs.push_back(s);
    rss.push_back(mb);
  }
  return {{"simmpi.run_empty_s", median(secs), "s"},
          {"simmpi.run_rss_mb", median(rss), "MiB"}};
}

/// Host seconds rank 0 sees around `op`, bracketed by world barriers; the
/// host cost of one bare barrier pair is measured the same way and removed.
Metrics probe_world_collectives() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 16;
  mach.cores_per_node = 16;
  Cluster cl(kBigP, mach);
  use_fibers(cl);
  std::vector<double> barrier_s, a2a_s, split_s;
  cl.run([&](Comm& world) {
    const int P = world.size(), me = world.rank();
    std::vector<ca3dmm::i64> sc(static_cast<size_t>(P), 0),
        sd(static_cast<size_t>(P), 0), rc(static_cast<size_t>(P), 0),
        rd(static_cast<size_t>(P), 0);
    sc[static_cast<size_t>((me + 1) % P)] = 8;
    rc[static_cast<size_t>((me + P - 1) % P)] = 8;
    double sbuf = me, rbuf = 0;
    const auto timed = [&](std::vector<double>& out,
                           const std::function<void()>& op) {
      world.barrier();
      const double t0 = wall_now();
      op();
      world.barrier();
      if (me == 0) out.push_back(wall_now() - t0);
    };
    for (int rep = 0; rep < 3; ++rep) {
      timed(barrier_s, [] {});
      timed(a2a_s, [&] {
        world.alltoallv_bytes(&sbuf, sc, sd, &rbuf, rc, rd);
      });
      timed(split_s, [&] { (void)world.split(me % 2, me); });
    }
  });
  const double base = median(barrier_s);
  return {{"simmpi.alltoallv_s", median(a2a_s) - base, "s"},
          {"simmpi.split_s", median(split_s) - base, "s"}};
}

Metrics probe_small_allgather() {
  constexpr int kCalls = 2000;
  Cluster cl(16, service_machine());
  use_fibers(cl);
  double secs = 0;
  cl.run([&](Comm& world) {
    double mine = world.rank();
    std::vector<double> all(static_cast<size_t>(world.size()));
    world.barrier();
    const double t0 = wall_now();
    for (int i = 0; i < kCalls; ++i) world.allgather(&mine, 1, all.data());
    world.barrier();
    if (world.rank() == 0) secs = wall_now() - t0;
  });
  return {{"simmpi.allgather_us", secs / kCalls * 1e6, "us"}};
}

Metrics probe_plan(const ProbeContext& ctx) {
  Ca3dmmOptions opt;
  opt.force_grid = ctx.plan_grid;
  const double s = mean_seconds([&] {
    (void)Ca3dmmPlan::make(ctx.plan_m, ctx.plan_n, ctx.plan_k, ctx.plan_P,
                           opt);
  });
  return {{"core.plan_ms", s * 1e3, "ms"}};
}

Metrics probe_layout_and_model() {
  const Ca3dmmPlan plan = Ca3dmmPlan::make(kSquare, kSquare, kSquare, kBigP);
  const BlockLayout col = BlockLayout::col_1d(kSquare, kSquare, kBigP);
  const BlockLayout nat = plan.a_native();
  const double vol = median_seconds(
      [&] { (void)ca3dmm::redistribution_volume(col, nat, false, 8); }, 3);

  const Machine mach = Machine::phoenix_mpi();
  const Workload w{kSquare, kSquare, kSquare};
  const auto predict_ms = [&](Algo algo) {
    return 1e3 * mean_seconds(
                     [&] { (void)ca3dmm::costmodel::predict(algo, w, kBigP, mach); });
  };
  Workload wc = w;
  wc.custom_layout = true;
  const double custom = median_seconds(
      [&] { (void)ca3dmm::costmodel::predict(Algo::kCa3dmm, wc, kBigP, mach); },
      3);

  Workload ws{96, 96, 96};
  ws.force_grid = ProcGrid{2, 4, 2};
  const Machine smach = service_machine();
  const double quote = mean_seconds([&] {
    ca3dmm::costmodel::CostOracle oracle(16, smach);
    (void)oracle.quote(Algo::kCa3dmm, ws);
  }, 20);
  return {{"layout.volume_ms", vol * 1e3, "ms"},
          {"costmodel.predict_ca3dmm_ms", predict_ms(Algo::kCa3dmm), "ms"},
          {"costmodel.predict_cosma_ms", predict_ms(Algo::kCosma), "ms"},
          {"costmodel.predict_ctf_ms", predict_ms(Algo::kCtf), "ms"},
          {"costmodel.predict_custom_ms", custom * 1e3, "ms"},
          {"costmodel.quote_ms", quote * 1e3, "ms"}};
}

/// Cold plan_for (plan + communicator splits) and a warm multiply on a
/// persistent engine, timed by rank 0 between barriers.
Metrics probe_engine(const ProbeContext& ctx) {
  constexpr int kColdPlans = 200;
  const i64 n = ctx.engine_n;
  Ca3dmmOptions opt;
  opt.force_grid = ctx.engine_grid;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(n, n, n, ctx.engine_P, opt);
  const BlockLayout a_lay =
      ctx.engine_2d_layout
          ? BlockLayout::grid_2d(n, n, ctx.engine_pr, ctx.engine_pc)
          : plan.a_native();
  const BlockLayout b_lay = ctx.engine_2d_layout ? a_lay : plan.b_native();
  const BlockLayout c_lay = ctx.engine_2d_layout ? a_lay : plan.c_native();
  Cluster cl(ctx.engine_P, ctx.engine_machine);
  use_fibers(cl);
  double plan_s = 0;
  std::vector<double> mult_s;
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b,
        c(static_cast<size_t>(c_lay.local_size(me)));
    for (const auto& [lay, seed, out] :
         {std::tuple{&a_lay, 21, &a}, std::tuple{&b_lay, 22, &b}})
      for (const ca3dmm::Rect& r : lay->rects_of(me))
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j)
            out->push_back(matrix_entry<double>(seed, i, j));
    ca3dmm::engine::PgemmEngine eng(world);
    world.barrier();
    const double t0 = wall_now();
    for (int i = 0; i < kColdPlans; ++i) {
      eng.clear();
      (void)eng.plan_for(n, n, n, opt);
    }
    world.barrier();
    if (me == 0) plan_s = (wall_now() - t0) / kColdPlans;

    ca3dmm::engine::Request<double> req;
    req.m = req.n = req.k = n;
    req.a_layout = &a_lay;
    req.b_layout = &b_lay;
    req.c_layout = &c_lay;
    req.a = a.data();
    req.b = b.data();
    req.c = c.data();
    req.opt = opt;
    eng.multiply(req);  // warm: plan, communicators and pool are cached
    for (int rep = 0; rep < 3; ++rep) {
      world.barrier();
      const double t1 = wall_now();
      eng.multiply(req);
      world.barrier();
      if (me == 0) mult_s.push_back(wall_now() - t1);
    }
  });
  return {{"engine.plan_build_ms", plan_s * 1e3, "ms"},
          {"engine.multiply_s", median(mult_s), "s"}};
}

}  // namespace

Metrics run_probes(const ProbeContext& ctx, const char* self_path) {
  Metrics out;
  for (Metrics part :
       {probe_gemm(ctx), probe_empty_run(self_path), probe_world_collectives(),
        probe_small_allgather(), probe_plan(ctx), probe_layout_and_model(),
        probe_engine(ctx)})
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

int probe_empty_run_main(int P) {
  Cluster cl(P, Machine::phoenix_mpi());
  use_fibers(cl);
  const double t0 = wall_now();
  cl.run([](Comm&) {});
  std::printf("%.9f %.6f\n", wall_now() - t0, peak_rss_mb());
  return 0;
}

}  // namespace perfbench
