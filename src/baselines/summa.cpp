#include "baselines/summa.hpp"

#include <algorithm>
#include <cstring>

#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::PhaseScope;
using simmpi::TrackedBuffer;

SummaPlan SummaPlan::make(i64 m, i64 n, i64 k, int nranks,
                          std::optional<std::pair<int, int>> force_grid) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "SUMMA needs positive dimensions");
  SummaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  if (force_grid) {
    p.pr_ = force_grid->first;
    p.pc_ = force_grid->second;
    CA_REQUIRE(p.pr_ * p.pc_ <= nranks, "forced SUMMA grid exceeds ranks");
    return p;
  }
  // Best 2-D factorization under the same composite objective as CA3DMM's
  // solver, with pk pinned to 1 (SUMMA has no k parallelism).
  int max_active = 1;
  for (int pr = 1; pr <= nranks && pr <= m; ++pr)
    max_active = std::max(
        max_active, pr * static_cast<int>(std::min<i64>(n, nranks / pr)));
  const int min_active =
      std::min(static_cast<int>(0.95 * nranks), max_active);
  double best = 1e300;
  for (int pr = 1; pr <= nranks && pr <= m; ++pr) {
    const int pc_lim = static_cast<int>(std::min<i64>(n, nranks / pr));
    for (int pc = 1; pc <= pc_lim; ++pc) {
      if (pr * pc < min_active) continue;
      const double cost = grid_objective(m, n, k, ProcGrid{pr, pc, 1});
      if (cost < best) {
        best = cost;
        p.pr_ = pr;
        p.pc_ = pc;
      }
    }
  }
  return p;
}

const PlanLayouts<3>::Set& SummaPlan::natives() const {
  return natives_.get([&] {
    return PlanLayouts<3>::Set{make_a_native(), make_b_native(),
                                make_c_native()};
  });
}

BlockLayout SummaPlan::make_a_native() const {
  // Grid ranks are row-major over (pr, pc); idle ranks own nothing.
  BlockLayout l(m_, k_, nranks_);
  for (int i = 0; i < pr_; ++i)
    for (int j = 0; j < pc_; ++j) {
      const Rect r{block_range(m_, pr_, i), block_range(k_, pc_, j)};
      if (!r.empty()) l.add_rect(i * pc_ + j, r);
    }
  return l;
}

BlockLayout SummaPlan::make_b_native() const {
  BlockLayout l(k_, n_, nranks_);
  for (int i = 0; i < pr_; ++i)
    for (int j = 0; j < pc_; ++j) {
      const Rect r{block_range(k_, pr_, i), block_range(n_, pc_, j)};
      if (!r.empty()) l.add_rect(i * pc_ + j, r);
    }
  return l;
}

BlockLayout SummaPlan::make_c_native() const {
  BlockLayout l(m_, n_, nranks_);
  for (int i = 0; i < pr_; ++i)
    for (int j = 0; j < pc_; ++j) {
      const Rect r{block_range(m_, pr_, i), block_range(n_, pc_, j)};
      if (!r.empty()) l.add_rect(i * pc_ + j, r);
    }
  return l;
}

template <typename T>
void summa_multiply(Comm& world, const SummaPlan& plan, bool trans_a,
                    bool trans_b, const BlockLayout& a_layout, const T* a_local,
                    const BlockLayout& b_layout, const T* b_local,
                    const BlockLayout& c_layout, T* c_local, i64 panel_kb) {
  CA_REQUIRE(world.size() == plan.nranks(), "plan is for %d ranks, comm has %d",
             plan.nranks(), world.size());
  const int me = world.rank();
  const int pr = plan.pr(), pc = plan.pc();
  const bool is_active = me < plan.active();
  const int gi = me / pc, gj = me % pc;
  const i64 m = plan.m(), n = plan.n(), k = plan.k();

  const BlockLayout& a_native = plan.a_native();
  const BlockLayout& b_native = plan.b_native();
  const BlockLayout& c_native = plan.c_native();

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
  TrackedBuffer<T> c_blk;

  if (is_active) {
    Comm row = active.split(gi, gj);
    Comm col = active.split(pr + gj, gi);
    const Range mr = block_range(m, pr, gi);
    const Range nc = block_range(n, pc, gj);
    const Range a_kr = block_range(k, pc, gj);  // my A block's k columns
    const Range b_kr = block_range(k, pr, gi);  // my B block's k rows
    const i64 mb = mr.size(), nb = nc.size();
    c_blk.resize(mb * nb);

    // Panel walk: intervals never straddle an A column-block or B row-block
    // boundary; panel_kb further caps the width.
    i64 kb_max = 0;
    {
      i64 k0 = 0;
      while (k0 < k) {
        i64 k1 = std::min(block_range(k, pc, block_of_index(k, pc, k0)).hi,
                          block_range(k, pr, block_of_index(k, pr, k0)).hi);
        if (panel_kb > 0) k1 = std::min(k1, k0 + panel_kb);
        kb_max = std::max(kb_max, k1 - k0);
        k0 = k1;
      }
    }
    TrackedBuffer<T> a_panel(mb * kb_max), b_panel(kb_max * nb);

    i64 k0 = 0;
    while (k0 < k) {
      const int a_owner_col = static_cast<int>(block_of_index(k, pc, k0));
      const int b_owner_row = static_cast<int>(block_of_index(k, pr, k0));
      i64 k1 = std::min(block_range(k, pc, a_owner_col).hi,
                        block_range(k, pr, b_owner_row).hi);
      if (panel_kb > 0) k1 = std::min(k1, k0 + panel_kb);
      const i64 w = k1 - k0;
      double overlap_budget = 0;
      {
        PhaseScope ps(world, Phase::kShift);
        if (gj == a_owner_col) {
          // Pack my columns [k0, k1) into the panel.
          const i64 off = k0 - a_kr.lo;
          for (i64 r = 0; r < mb; ++r)
            std::memcpy(a_panel.data() + r * w,
                        a_init.data() + r * a_kr.size() + off,
                        static_cast<size_t>(w) * sizeof(T));
        }
        row.bcast(a_panel.data(), mb * w, a_owner_col);
        overlap_budget = world.last_op_cost();
        if (gi == b_owner_row)
          std::memcpy(b_panel.data(), b_init.data() + (k0 - b_kr.lo) * nb,
                      static_cast<size_t>(w * nb) * sizeof(T));
        col.bcast(b_panel.data(), w * nb, b_owner_row);
        overlap_budget += world.last_op_cost();
      }
      {
        PhaseScope ps(world, Phase::kCompute);
        gemm_blocked<T>(false, false, mb, nb, w, T{1}, a_panel.data(), w,
                        b_panel.data(), nb, c_blk.data(), nb);
        const double bytes =
            gemm_operand_bytes(mb, nb, w, sizeof(T)) +
            (k0 == 0 ? gemm_result_bytes(mb, nb, sizeof(T)) : 0.0);
        world.charge_compute_overlap_budget(gemm_flops(mb, nb, w), bytes,
                                            overlap_budget);
      }
      k0 = k1;
    }
  }

  // The initial operand buffers are dead once the panel loop finishes.
  a_init.release();
  b_init.release();

  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, c_native, c_blk.data(), c_layout, c_local, false);
  }
}

template void summa_multiply<float>(Comm&, const SummaPlan&, bool, bool,
                                    const BlockLayout&, const float*,
                                    const BlockLayout&, const float*,
                                    const BlockLayout&, float*, i64);
template void summa_multiply<double>(Comm&, const SummaPlan&, bool, bool,
                                     const BlockLayout&, const double*,
                                     const BlockLayout&, const double*,
                                     const BlockLayout&, double*, i64);

}  // namespace ca3dmm
