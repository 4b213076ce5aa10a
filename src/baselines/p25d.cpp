#include "baselines/p25d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::PhaseScope;
using simmpi::TrackedBuffer;

namespace {

constexpr int kTagAlignA = 501;
constexpr int kTagAlignB = 502;
constexpr int kTagShiftA = 503;
constexpr int kTagShiftB = 504;

inline int wrap(int v, int q) { return ((v % q) + q) % q; }

}  // namespace

P25dPlan P25dPlan::make(i64 m, i64 n, i64 k, int nranks,
                        std::optional<std::pair<int, int>> force_qc) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "2.5D needs positive dimensions");
  P25dPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  if (force_qc) {
    p.q_ = force_qc->first;
    p.c_ = force_qc->second;
    CA_REQUIRE(p.q_ >= 1 && p.c_ >= 1 && p.active() <= nranks,
               "bad forced 2.5D grid %d^2 x %d", p.q_, p.c_);
    return p;
  }
  // Choose (q, c): c <= q (classic feasibility), maximize utilization, then
  // minimize the composite objective of the equivalent q x q x c grid.
  int best_active = 0;
  double best_cost = 1e300;
  for (int c = 1; c * c * c <= nranks; ++c) {
    const int q = static_cast<int>(std::sqrt(static_cast<double>(nranks / c)));
    for (int qq = std::max(1, q - 1); qq <= q + 1; ++qq) {
      if (qq * qq * c > nranks || c > qq) continue;
      const int active = qq * qq * c;
      const double cost = grid_objective(m, n, k, ProcGrid{qq, qq, c});
      if (active > best_active ||
          (active == best_active && cost < best_cost)) {
        best_active = active;
        best_cost = cost;
        p.q_ = qq;
        p.c_ = c;
      }
    }
  }
  return p;
}

const PlanLayouts<3>::Set& P25dPlan::natives() const {
  return natives_.get([&] {
    return PlanLayouts<3>::Set{make_a_native(), make_b_native(),
                                make_c_native()};
  });
}

BlockLayout P25dPlan::make_a_native() const {
  // Layer 0 only: rank (i, j, 0) = j*q + i owns A(i-block, j-block).
  BlockLayout l(m_, k_, nranks_);
  for (int i = 0; i < q_; ++i)
    for (int j = 0; j < q_; ++j) {
      const Rect r{block_range(m_, q_, i), block_range(k_, q_, j)};
      if (!r.empty()) l.add_rect(j * q_ + i, r);
    }
  return l;
}

BlockLayout P25dPlan::make_b_native() const {
  BlockLayout l(k_, n_, nranks_);
  for (int i = 0; i < q_; ++i)
    for (int j = 0; j < q_; ++j) {
      const Rect r{block_range(k_, q_, i), block_range(n_, q_, j)};
      if (!r.empty()) l.add_rect(j * q_ + i, r);
    }
  return l;
}

BlockLayout P25dPlan::make_c_native() const {
  // Each C(i, j) block is row-split across the c layers after the
  // reduce-scatter.
  BlockLayout l(m_, n_, nranks_);
  for (int layer = 0; layer < c_; ++layer)
    for (int i = 0; i < q_; ++i)
      for (int j = 0; j < q_; ++j) {
        const Range rows = block_range(m_, q_, i);
        const Range sub = block_range(rows.size(), c_, layer);
        const Rect r{Range{rows.lo + sub.lo, rows.lo + sub.hi},
                     block_range(n_, q_, j)};
        if (!r.empty()) l.add_rect(layer * q_ * q_ + j * q_ + i, r);
      }
  return l;
}

template <typename T>
void p25d_multiply(Comm& world, const P25dPlan& plan, bool trans_a,
                   bool trans_b, const BlockLayout& a_layout, const T* a_local,
                   const BlockLayout& b_layout, const T* b_local,
                   const BlockLayout& c_layout, T* c_local) {
  CA_REQUIRE(world.size() == plan.nranks(), "plan is for %d ranks, comm has %d",
             plan.nranks(), world.size());
  const int me = world.rank();
  const int q = plan.q(), c = plan.c();
  const bool is_active = me < plan.active();
  const int layer = me / (q * q);
  const int idx = me % (q * q);
  const int i = idx % q, j = idx / q;
  const i64 m = plan.m(), n = plan.n(), k = plan.k();

  const BlockLayout& a_native = plan.a_native();
  const BlockLayout& b_native = plan.b_native();
  const BlockLayout& c_native = plan.c_native();

  // A and B blocks live on layer 0 initially; every active rank still sizes
  // its (replicated) block buffers (the 2.5D extra-memory cost).
  const i64 mb = block_size(m, q, i), nb = block_size(n, q, j);
  const i64 kb_max = ceil_div(k, q);
  auto kpart = [&](int t) { return block_size(k, q, wrap(t, q)); };

  TrackedBuffer<T> a_init(a_native.local_size(me));
  TrackedBuffer<T> b_init(b_native.local_size(me));
  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, a_layout, a_local, a_native, a_init.data(),
                    trans_a);
    redistribute<T>(world, b_layout, b_local, b_native, b_init.data(),
                    trans_b);
  }

  Comm active = world.split(is_active ? 0 : -1, me);
  TrackedBuffer<T> c_result;

  if (is_active) {
    Comm grid = active.split(layer, idx);         // my layer's q x q grid
    Comm depth = active.split(c /*offset*/ + idx, layer);  // fixed (i, j)
    CA_ASSERT(grid.size() == q * q && depth.size() == c);

    // ---- replicate layer 0's blocks down the layer dimension ----
    TrackedBuffer<T> a_cur(mb * kb_max), b_cur(kb_max * nb);
    {
      PhaseScope ps(world, Phase::kReplicate);
      if (layer == 0 && a_init.size() > 0)
        std::memcpy(a_cur.data(), a_init.data(),
                    static_cast<size_t>(a_init.size()) * sizeof(T));
      depth.bcast(a_cur.data(), mb * kpart(j), 0);
      if (layer == 0 && b_init.size() > 0)
        std::memcpy(b_cur.data(), b_init.data(),
                    static_cast<size_t>(b_init.size()) * sizeof(T));
      depth.bcast(b_cur.data(), kpart(i) * nb, 0);
    }
    a_init.release();
    b_init.release();

    // ---- layer-specific Cannon alignment ----
    // Layer `layer` executes global shift steps [off, off + steps): align so
    // that this rank holds A(i, i+j+off) and B(i+j+off, j).
    const i64 off64 = block_start(q, c, layer);
    const int off = static_cast<int>(off64);
    const int steps = static_cast<int>(block_size(q, c, layer));
    TrackedBuffer<T> a_nxt(mb * kb_max), b_nxt(kb_max * nb);
    {
      PhaseScope ps(world, Phase::kShift);
      // A: I hold (i, j); the rank needing mine has j' with
      // wrap(j' + i + off) == j.
      const int dstA = wrap(j - i - off, q) * q + i;
      grid.sendrecv(a_cur.data(), mb * kpart(j), dstA, a_nxt.data(),
                    mb * kpart(i + j + off), wrap(j + i + off, q) * q + i,
                    kTagAlignA);
      a_cur.swap(a_nxt);
      // B: the rank needing mine has i' with wrap(i' + j + off) == i.
      const int dstB = j * q + wrap(i - j - off, q);
      grid.sendrecv(b_cur.data(), kpart(i) * nb, dstB, b_nxt.data(),
                    kpart(i + j + off) * nb, j * q + wrap(i + j + off, q),
                    kTagAlignB);
      b_cur.swap(b_nxt);
    }

    // ---- my share of the Cannon steps ----
    TrackedBuffer<T> c_partial(mb * nb);
    const int left = wrap(j - 1, q) * q + i;
    const int right = wrap(j + 1, q) * q + i;
    const int up = j * q + wrap(i - 1, q);
    const int down = j * q + wrap(i + 1, q);
    for (int t = 0; t < steps; ++t) {
      const i64 kb = kpart(i + j + off + t);
      const i64 kb_next = kpart(i + j + off + t + 1);
      double budget = 0;
      if (t < steps - 1) {
        PhaseScope ps(world, Phase::kShift);
        grid.sendrecv(a_cur.data(), mb * kb, left, a_nxt.data(), mb * kb_next,
                      right, kTagShiftA);
        budget = grid.last_op_cost();
        grid.sendrecv(b_cur.data(), kb * nb, up, b_nxt.data(), kb_next * nb,
                      down, kTagShiftB);
        budget += grid.last_op_cost();
      }
      {
        PhaseScope ps(world, Phase::kCompute);
        gemm_blocked<T>(false, false, mb, nb, kb, T{1}, a_cur.data(), kb,
                        b_cur.data(), nb, c_partial.data(), nb);
        world.charge_compute_overlap_budget(
            gemm_flops(mb, nb, kb),
            gemm_operand_bytes(mb, nb, kb, sizeof(T)) +
                (t == 0 ? gemm_result_bytes(mb, nb, sizeof(T)) : 0.0),
            budget);
      }
      a_cur.swap(a_nxt);
      b_cur.swap(b_nxt);
    }
    a_cur.release();
    a_nxt.release();
    b_cur.release();
    b_nxt.release();

    // ---- reduce partial C across layers (row split) ----
    if (c > 1) {
      PhaseScope ps(world, Phase::kReduce);
      std::vector<i64> counts(static_cast<size_t>(c));
      for (int l2 = 0; l2 < c; ++l2)
        counts[static_cast<size_t>(l2)] = block_size(mb, c, l2) * nb;
      c_result.resize(counts[static_cast<size_t>(layer)]);
      depth.reduce_scatter(c_partial.data(), c_result.data(), counts);
    } else {
      c_result = std::move(c_partial);
    }
  }

  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, c_native, c_result.data(), c_layout, c_local,
                    false);
  }
}

template void p25d_multiply<float>(Comm&, const P25dPlan&, bool, bool,
                                   const BlockLayout&, const float*,
                                   const BlockLayout&, const float*,
                                   const BlockLayout&, float*);
template void p25d_multiply<double>(Comm&, const P25dPlan&, bool, bool,
                                    const BlockLayout&, const double*,
                                    const BlockLayout&, const double*,
                                    const BlockLayout&, double*);

}  // namespace ca3dmm
