#include "baselines/ctf_like.hpp"

#include "layout/redistribute.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::PhaseScope;
using simmpi::TrackedBuffer;

const PlanLayouts<4>::Set& CtfPlan::remaps() const {
  return remaps_.get([&] {
    const i64 m = inner.m(), n = inner.n(), k = inner.k();
    const int P = inner.nranks();
    return PlanLayouts<4>::Set{
        BlockLayout::col_1d(m, k, P), BlockLayout::col_1d(k, m, P),
        BlockLayout::col_1d(k, n, P), BlockLayout::col_1d(n, k, P)};
  });
}

template <typename T>
void ctf_multiply(Comm& world, const CtfPlan& plan, bool trans_a, bool trans_b,
                  const BlockLayout& a_layout, const T* a_local,
                  const BlockLayout& b_layout, const T* b_local,
                  const BlockLayout& c_layout, T* c_local) {
  const CosmaPlan& p = plan.inner;
  const int me = world.rank();
  // CTF's internal mapping stage: operands are shuffled into the framework's
  // own (cyclic) distribution before the contraction kernel sees them. We
  // model that as one extra full redistribution hop per operand.
  const BlockLayout& a_cyc = plan.a_remap(trans_a);
  const BlockLayout& b_cyc = plan.b_remap(trans_b);
  TrackedBuffer<T> a_tmp(a_cyc.local_size(me));
  TrackedBuffer<T> b_tmp(b_cyc.local_size(me));
  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, a_layout, a_local, a_cyc, a_tmp.data(), false);
    redistribute<T>(world, b_layout, b_local, b_cyc, b_tmp.data(), false);
  }
  cosma_multiply<T>(world, p, trans_a, trans_b, a_cyc, a_tmp.data(), b_cyc,
                    b_tmp.data(), c_layout, c_local);
}

template void ctf_multiply<float>(Comm&, const CtfPlan&, bool, bool,
                                  const BlockLayout&, const float*,
                                  const BlockLayout&, const float*,
                                  const BlockLayout&, float*);
template void ctf_multiply<double>(Comm&, const CtfPlan&, bool, bool,
                                   const BlockLayout&, const double*,
                                   const BlockLayout&, const double*,
                                   const BlockLayout&, double*);

}  // namespace ca3dmm
