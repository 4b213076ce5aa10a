#include "baselines/cosma_like.hpp"

#include <algorithm>

#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::PhaseScope;
using simmpi::TrackedBuffer;

CosmaPlan CosmaPlan::make(i64 m, i64 n, i64 k, int nranks,
                          std::optional<ProcGrid> force_grid) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "COSMA baseline needs positive dimensions");
  CosmaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  p.grid_ = force_grid.value_or(find_grid_cosma(m, n, k, nranks));
  CA_REQUIRE(p.grid_.active() <= nranks, "forced grid exceeds rank count");

  // Strategy: repeatedly split the largest not-yet-split dimension by its
  // whole grid factor (the multi-way generalization of CARMA's bisection the
  // paper describes; e.g. 32x32x64 on 2x2x4 -> k/4, then m/2, then n/2).
  double em = static_cast<double>(m), en = static_cast<double>(n),
         ek = static_cast<double>(k);
  bool left_m = p.grid_.pm > 1, left_n = p.grid_.pn > 1,
       left_k = p.grid_.pk > 1;
  while (left_m || left_n || left_k) {
    char pick = 0;
    double best = -1;
    if (left_k && ek > best) {
      pick = 'k';
      best = ek;
    }
    if (left_m && em > best) {
      pick = 'm';
      best = em;
    }
    if (left_n && en > best) {
      pick = 'n';
      best = en;
    }
    switch (pick) {
      case 'k':
        p.steps_.push_back({'k', p.grid_.pk});
        ek /= p.grid_.pk;
        left_k = false;
        break;
      case 'm':
        p.steps_.push_back({'m', p.grid_.pm});
        em /= p.grid_.pm;
        left_m = false;
        break;
      default:
        p.steps_.push_back({'n', p.grid_.pn});
        en /= p.grid_.pn;
        left_n = false;
        break;
    }
  }
  return p;
}

CosmaPlan CosmaPlan::make_carma(i64 m, i64 n, i64 k, int nranks) {
  CA_REQUIRE(nranks > 0 && (nranks & (nranks - 1)) == 0,
             "CARMA requires a power-of-two process count, got %d", nranks);
  CosmaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  // Recursive bisection of the largest current dimension (Demmel et al.).
  double em = static_cast<double>(m), en = static_cast<double>(n),
         ek = static_cast<double>(k);
  int pm = 1, pn = 1, pk = 1;
  for (int P = nranks; P > 1; P /= 2) {
    if (ek >= em && ek >= en) {
      p.steps_.push_back({'k', 2});
      ek /= 2;
      pk *= 2;
    } else if (em >= en) {
      p.steps_.push_back({'m', 2});
      em /= 2;
      pm *= 2;
    } else {
      p.steps_.push_back({'n', 2});
      en /= 2;
      pn *= 2;
    }
  }
  p.grid_ = ProcGrid{pm, pn, pk};
  return p;
}

CosmaPlan::Codes CosmaPlan::codes(int world_rank) const {
  Codes c;
  if (world_rank >= active()) return c;
  c.active = true;
  int g = active();
  int q = world_rank;
  for (const CosmaStep& st : steps_) {
    const int sub_sz = g / st.ways;
    const int sub = q / sub_sz;
    q %= sub_sz;
    g = sub_sz;
    switch (st.dim) {
      case 'm': c.mi = c.mi * st.ways + sub; break;
      case 'n': c.ni = c.ni * st.ways + sub; break;
      case 'k': c.ki = c.ki * st.ways + sub; break;
      default: CA_ASSERT(false);
    }
  }
  return c;
}

namespace {

/// Row slice `idx` of `parts` of a leaf rect.
Rect row_slice(const Rect& leaf, int parts, int idx) {
  const Range rows = block_range(leaf.r.size(), parts, idx);
  return Rect{Range{leaf.r.lo + rows.lo, leaf.r.lo + rows.hi}, leaf.c};
}

}  // namespace

const PlanLayouts<3>::Set& CosmaPlan::natives() const {
  return natives_.get([&] {
    return PlanLayouts<3>::Set{make_a_native(), make_b_native(),
                                make_c_native()};
  });
}

BlockLayout CosmaPlan::make_a_native() const {
  BlockLayout l(m_, k_, nranks_);
  for (int r = 0; r < active(); ++r) {
    const Codes c = codes(r);
    const Rect leaf{m_leaf(c.mi), k_leaf(c.ki)};
    const Rect mine = row_slice(leaf, grid_.pn, c.ni);
    if (!mine.empty()) l.add_rect(r, mine);
  }
  return l;
}

BlockLayout CosmaPlan::make_b_native() const {
  BlockLayout l(k_, n_, nranks_);
  for (int r = 0; r < active(); ++r) {
    const Codes c = codes(r);
    const Rect leaf{k_leaf(c.ki), n_leaf(c.ni)};
    const Rect mine = row_slice(leaf, grid_.pm, c.mi);
    if (!mine.empty()) l.add_rect(r, mine);
  }
  return l;
}

BlockLayout CosmaPlan::make_c_native() const {
  BlockLayout l(m_, n_, nranks_);
  for (int r = 0; r < active(); ++r) {
    const Codes c = codes(r);
    const Rect leaf{m_leaf(c.mi), n_leaf(c.ni)};
    const Rect mine = row_slice(leaf, grid_.pk, c.ki);
    if (!mine.empty()) l.add_rect(r, mine);
  }
  return l;
}

template <typename T>
void cosma_multiply(Comm& world, const CosmaPlan& plan, bool trans_a,
                    bool trans_b, const BlockLayout& a_layout, const T* a_local,
                    const BlockLayout& b_layout, const T* b_local,
                    const BlockLayout& c_layout, T* c_local) {
  CA_REQUIRE(world.size() == plan.nranks(), "plan is for %d ranks, comm has %d",
             plan.nranks(), world.size());
  const int me = world.rank();
  const CosmaPlan::Codes co = plan.codes(me);
  const ProcGrid& g = plan.grid();

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

  Comm active = world.split(co.active ? 0 : -1, me);
  TrackedBuffer<T> c_result;

  if (co.active) {
    const Range mr = plan.m_leaf(co.mi), nr = plan.n_leaf(co.ni),
                kr = plan.k_leaf(co.ki);
    const i64 mb = mr.size(), nb = nr.size(), kb = kr.size();

    // ---- replicate A across the p_n group sharing (mi, ki) ----
    TrackedBuffer<T> a_blk, b_blk;
    const T* a_ptr = a_init.data();
    const T* b_ptr = b_init.data();
    if (g.pn > 1) {
      Comm ga = active.split(co.mi * g.pk + co.ki, co.ni);
      CA_ASSERT(ga.size() == g.pn);
      PhaseScope ps(world, Phase::kReplicate);
      std::vector<i64> counts(static_cast<size_t>(g.pn));
      for (int t = 0; t < g.pn; ++t)
        counts[static_cast<size_t>(t)] =
            block_size(mb, g.pn, t) * kb * static_cast<i64>(sizeof(T));
      a_blk.resize(mb * kb);
      ga.allgatherv_bytes(a_init.data(), counts[static_cast<size_t>(co.ni)],
                          a_blk.data(), counts);
      a_ptr = a_blk.data();
      a_init.release();
    }
    // ---- replicate B across the p_m group sharing (ki, ni) ----
    if (g.pm > 1) {
      Comm gb = active.split(g.pm * g.pk /*disjoint color space*/ +
                                 co.ki * g.pn + co.ni,
                             co.mi);
      CA_ASSERT(gb.size() == g.pm);
      PhaseScope ps(world, Phase::kReplicate);
      std::vector<i64> counts(static_cast<size_t>(g.pm));
      for (int t = 0; t < g.pm; ++t)
        counts[static_cast<size_t>(t)] =
            block_size(kb, g.pm, t) * nb * static_cast<i64>(sizeof(T));
      b_blk.resize(kb * nb);
      gb.allgatherv_bytes(b_init.data(), counts[static_cast<size_t>(co.mi)],
                          b_blk.data(), counts);
      b_ptr = b_blk.data();
      b_init.release();
    }

    // ---- one local GEMM ----
    TrackedBuffer<T> c_partial(mb * nb);
    {
      PhaseScope ps(world, Phase::kCompute);
      gemm_blocked<T>(false, false, mb, nb, kb, T{1}, a_ptr, kb, b_ptr, nb,
                      c_partial.data(), nb);
      // CTF mode: charge the derated contraction rate.
      const double frac =
          plan.ctf_mode() ? world.machine().ctf_gemm_fraction() : 1.0;
      world.charge_compute(gemm_flops(mb, nb, kb) / frac,
                           gemm_bytes(mb, nb, kb, sizeof(T)));
    }
    a_blk.release();
    b_blk.release();
    a_init.release();
    b_init.release();

    // ---- reduce partial C across the p_k group sharing (mi, ni) ----
    if (g.pk > 1) {
      Comm gc = active.split(co.mi * g.pn + co.ni, co.ki);
      CA_ASSERT(gc.size() == g.pk);
      PhaseScope ps(world, Phase::kReduce);
      std::vector<i64> counts(static_cast<size_t>(g.pk));
      for (int t = 0; t < g.pk; ++t)
        counts[static_cast<size_t>(t)] = block_size(mb, g.pk, t) * nb;
      c_result.resize(counts[static_cast<size_t>(co.ki)]);
      // Row slices: the partial C buffer is already segment-ordered. COSMA
      // "crafts the binary reduction tree" itself (paper §IV-B), so it does
      // not hit the MPI library's large-message reduce-scatter degradation.
      gc.reduce_scatter(c_partial.data(), c_result.data(), counts,
                        /*custom_tree=*/true);
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

template void cosma_multiply<float>(Comm&, const CosmaPlan&, bool, bool,
                                    const BlockLayout&, const float*,
                                    const BlockLayout&, const float*,
                                    const BlockLayout&, float*);
template void cosma_multiply<double>(Comm&, const CosmaPlan&, bool, bool,
                                     const BlockLayout&, const double*,
                                     const BlockLayout&, const double*,
                                     const BlockLayout&, double*);

}  // namespace ca3dmm
