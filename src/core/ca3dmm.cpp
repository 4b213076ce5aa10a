#include "core/ca3dmm.hpp"

#include <cstring>

#include "simmpi/cluster.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::PhaseScope;
using simmpi::TrackedBuffer;

namespace {

/// Assembles the post-replication A Cannon block from the c all-gathered
/// slices. Slice g is (mb x ksub_g) row-major; slices are column ranges of
/// the full (mb x kb) block, in order, so we interleave them column-wise.
template <typename T>
void assemble_a_block(const T* gathered, i64 mb,
                      const std::vector<i64>& sub_sizes, T* block) {
  i64 kb = 0;
  for (i64 sz : sub_sizes) kb += sz;
  i64 src_off = 0, col_off = 0;
  for (i64 sz : sub_sizes) {
    // An empty slice may come with no buffer at all (memcpy from null is
    // undefined even for zero bytes).
    if (sz == 0) continue;
    for (i64 r = 0; r < mb; ++r)
      std::memcpy(block + r * kb + col_off, gathered + src_off + r * sz,
                  static_cast<size_t>(sz) * sizeof(T));
    src_off += mb * sz;
    col_off += sz;
  }
}

/// Algorithm-1 execution body. When `cached` is non-null its pre-split
/// communicators are used and no split cost is charged; when null, every
/// split happens at the same program point as always (so one-shot virtual
/// times are unchanged and the cost model stays pinned to the engine).
template <typename T>
void ca3dmm_execute(Comm& world, const Ca3dmmPlan& plan, PlanComms* cached,
                    bool trans_a, bool trans_b, const BlockLayout& a_layout,
                    const T* a_local, const BlockLayout& b_layout,
                    const T* b_local, const BlockLayout& c_layout,
                    T* c_local) {
  // Precondition validation. Every check below depends only on arguments
  // that MPI semantics require to be identical on all ranks (or on this
  // rank's own buffers), and runs before any communication: a bad input
  // raises the same ca3dmm::Error on every rank collectively instead of
  // diverging into a hang.
  CA_REQUIRE(world.valid(), "ca3dmm_multiply needs a valid communicator");
  CA_REQUIRE(world.size() == plan.nranks(), "plan is for %d ranks, comm has %d",
             plan.nranks(), world.size());
  const i64 m = plan.m(), n = plan.n(), k = plan.k();
  CA_REQUIRE(m > 0 && n > 0 && k > 0, "plan is empty (default-constructed?)");
  CA_REQUIRE(a_layout.nranks() == world.size() &&
                 b_layout.nranks() == world.size() &&
                 c_layout.nranks() == world.size(),
             "operand layouts must cover exactly the %d ranks of the "
             "communicator (got A:%d B:%d C:%d)",
             world.size(), a_layout.nranks(), b_layout.nranks(),
             c_layout.nranks());
  CA_REQUIRE(c_layout.rows() == m && c_layout.cols() == n,
             "C layout is %lld x %lld, plan computes %lld x %lld",
             static_cast<long long>(c_layout.rows()),
             static_cast<long long>(c_layout.cols()),
             static_cast<long long>(m), static_cast<long long>(n));
  CA_REQUIRE((trans_a ? a_layout.cols() : a_layout.rows()) == m &&
                 (trans_a ? a_layout.rows() : a_layout.cols()) == k,
             "A layout is %lld x %lld, plan needs op(A) = %lld x %lld",
             static_cast<long long>(a_layout.rows()),
             static_cast<long long>(a_layout.cols()),
             static_cast<long long>(m), static_cast<long long>(k));
  CA_REQUIRE((trans_b ? b_layout.cols() : b_layout.rows()) == k &&
                 (trans_b ? b_layout.rows() : b_layout.cols()) == n,
             "B layout is %lld x %lld, plan needs op(B) = %lld x %lld",
             static_cast<long long>(b_layout.rows()),
             static_cast<long long>(b_layout.cols()),
             static_cast<long long>(k), static_cast<long long>(n));
  const Ca3dmmOptions& opt = plan.options();
  CA_REQUIRE(opt.min_kblk >= 0,
             "min_kblk must be >= 0 (0 = one GEMM per shift), got %lld",
             static_cast<long long>(opt.min_kblk));

  const int me = world.rank();
  CA_REQUIRE(a_local != nullptr || a_layout.local_size(me) == 0,
             "rank %d: A local buffer is null but the layout assigns it "
             "%lld elements",
             me, static_cast<long long>(a_layout.local_size(me)));
  CA_REQUIRE(b_local != nullptr || b_layout.local_size(me) == 0,
             "rank %d: B local buffer is null but the layout assigns it "
             "%lld elements",
             me, static_cast<long long>(b_layout.local_size(me)));
  CA_REQUIRE(c_local != nullptr || c_layout.local_size(me) == 0,
             "rank %d: C local buffer is null but the layout assigns it "
             "%lld elements",
             me, static_cast<long long>(c_layout.local_size(me)));
  const RankCoord co = plan.coord(me);
  const int s = plan.s(), c = plan.c(), pk = plan.grid().pk;
  if (cached) {
    CA_REQUIRE(co.active == cached->active.valid(),
               "rank %d: cached communicators do not match the plan "
               "(active comm %s but rank is %s)",
               me, cached->active.valid() ? "valid" : "invalid",
               co.active ? "active" : "idle");
    CA_REQUIRE(!co.active || cached->cannon.size() == s * s,
               "rank %d: cached Cannon comm has %d ranks, plan needs %d",
               me, cached->cannon.valid() ? cached->cannon.size() : 0, s * s);
  }

  const BlockLayout& a_native = plan.a_native();
  const BlockLayout& b_native = plan.b_native();
  const BlockLayout& c_native = plan.c_native();

  // ---- step 4 (Alg. 1): redistribute A and B (all ranks participate) ----
  TrackedBuffer<T> a_init(a_native.local_size(me));
  TrackedBuffer<T> b_init(b_native.local_size(me));
  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, a_layout, a_local, a_native, a_init.data(),
                    trans_a);
    redistribute<T>(world, b_layout, b_local, b_native, b_init.data(),
                    trans_b);
  }

  // Communicator splits. Colors are disjoint per split call; inactive ranks
  // pass color -1 (undefined).
  Comm active_local;
  if (!cached) active_local = world.split(co.active ? 0 : -1, me);
  Comm& active = cached ? cached->active : active_local;

  TrackedBuffer<T> c_result;  // my final C block (c_native local data)

  if (co.active) {
    const i64 mb = plan.m_range(co.I).size();
    const i64 nb = plan.n_range(co.J).size();

    Engine2dShape sh;
    sh.s = s;
    sh.i = co.i;
    sh.j = co.j;
    sh.mb = mb;
    sh.nb = nb;
    for (int t = 0; t < s; ++t)
      sh.kpart_sizes.push_back(plan.kpart(co.gk, t).size());
    sh.abft = opt.abft;
    sh.overlap = opt.overlap;

    Comm cannon_local;
    if (!cached) cannon_local = active.split(co.gk * c + co.gc, co.j * s + co.i);
    Comm& cannon = cached ? cached->cannon : cannon_local;
    CA_ASSERT(cannon.size() == s * s);

    // ---- step 5: replicate A or B across the c Cannon groups ----
    TrackedBuffer<T> a_blk, b_blk;
    const T* a_ptr = a_init.data();
    const T* b_ptr = b_init.data();
    if (c > 1) {
      Comm repl_local;
      if (!cached)
        repl_local = active.split(co.gk * s * s + co.j * s + co.i, co.gc);
      Comm& repl = cached ? cached->repl : repl_local;
      CA_ASSERT(repl.size() == c);
      if (opt.coll) repl.set_collective_config(*opt.coll);
      PhaseScope ps(world, Phase::kReplicate);
      if (plan.replicates_a()) {
        std::vector<i64> sub_elems(static_cast<size_t>(c));
        std::vector<i64> sub_bytes(static_cast<size_t>(c));
        std::vector<i64> sub_cols(static_cast<size_t>(c));
        for (int g = 0; g < c; ++g) {
          const Range r = plan.ksub(co.gk, co.j, g);
          sub_cols[static_cast<size_t>(g)] = r.size();
          sub_elems[static_cast<size_t>(g)] = mb * r.size();
          sub_bytes[static_cast<size_t>(g)] =
              sub_elems[static_cast<size_t>(g)] * static_cast<i64>(sizeof(T));
        }
        TrackedBuffer<T> gathered(mb * plan.kpart(co.gk, co.j).size());
        repl.allgatherv_bytes(a_init.data(),
                              sub_bytes[static_cast<size_t>(co.gc)],
                              gathered.data(), sub_bytes);
        a_blk.resize(mb * plan.kpart(co.gk, co.j).size());
        simmpi::trace_marker("ca3dmm:assemble A",
                             static_cast<double>(a_blk.size()) * sizeof(T));
        assemble_a_block<T>(gathered.data(), mb, sub_cols, a_blk.data());
        a_ptr = a_blk.data();
        a_init.release();
      } else {
        // B slices are row ranges: the all-gather output is already the
        // row-major block.
        std::vector<i64> sub_bytes(static_cast<size_t>(c));
        for (int g = 0; g < c; ++g)
          sub_bytes[static_cast<size_t>(g)] =
              plan.ksub(co.gk, co.i, g).size() * nb *
              static_cast<i64>(sizeof(T));
        b_blk.resize(plan.kpart(co.gk, co.i).size() * nb);
        repl.allgatherv_bytes(b_init.data(),
                              sub_bytes[static_cast<size_t>(co.gc)],
                              b_blk.data(), sub_bytes);
        b_ptr = b_blk.data();
        b_init.release();
      }
    }

    // ---- step 6: 2-D engine computes the partial C block ----
    TrackedBuffer<T> c_partial(mb * nb);
    const auto release_inputs = [&] {
      a_blk.release();
      b_blk.release();
      a_init.release();
      b_init.release();
    };
    if (opt.use_summa)
      summa_2d<T>(cannon, sh, a_ptr, b_ptr, c_partial.data(), release_inputs);
    else
      cannon_2d<T>(cannon, sh, a_ptr, b_ptr, c_partial.data(), opt.min_kblk,
                   release_inputs);

    // ---- step 7: reduce-scatter partial C across the pk k-task groups ----
    if (pk > 1) {
      Comm reduce_local;
      if (!cached)
        reduce_local = active.split((co.gc * s + co.j) * s + co.i, co.gk);
      Comm& reduce = cached ? cached->reduce : reduce_local;
      CA_ASSERT(reduce.size() == pk);
      if (opt.coll) reduce.set_collective_config(*opt.coll);
      PhaseScope ps(world, Phase::kReduce);
      // Pack column sub-blocks in destination (gk) order.
      simmpi::trace_marker("ca3dmm:pack C",
                           static_cast<double>(mb * nb) * sizeof(T));
      TrackedBuffer<T> packed(mb * nb);
      std::vector<i64> counts(static_cast<size_t>(pk));
      i64 pos = 0;
      const Range nj = plan.n_range(co.J);
      for (int g = 0; g < pk; ++g) {
        const Range sub = plan.c_sub_cols(co.J, g);
        counts[static_cast<size_t>(g)] = mb * sub.size();
        for (i64 r = 0; r < mb; ++r) {
          std::memcpy(packed.data() + pos,
                      c_partial.data() + r * nb + (sub.lo - nj.lo),
                      static_cast<size_t>(sub.size()) * sizeof(T));
          pos += sub.size();
        }
      }
      CA_ASSERT(pos == mb * nb);
      // The packed buffer holds everything; the partial block is dead.
      c_partial.release();
      c_result.resize(counts[static_cast<size_t>(co.gk)]);
      reduce.reduce_scatter(packed.data(), c_result.data(), counts);
    } else {
      c_result = std::move(c_partial);
    }
  } else {
    c_result.resize(0);
  }

  // ---- step 8: redistribute C to the caller's layout (all ranks) ----
  {
    PhaseScope ps(world, Phase::kRedistribute);
    redistribute<T>(world, c_native, c_result.data(), c_layout, c_local,
                    false);
  }
}

}  // namespace

PlanComms PlanComms::make(Comm& world, const Ca3dmmPlan& plan) {
  CA_REQUIRE(world.valid(), "PlanComms::make needs a valid communicator");
  CA_REQUIRE(world.size() == plan.nranks(),
             "plan is for %d ranks, comm has %d", plan.nranks(), world.size());
  CA_REQUIRE(plan.m() > 0, "plan is empty (default-constructed?)");
  const int me = world.rank();
  const RankCoord co = plan.coord(me);
  const int s = plan.s(), c = plan.c(), pk = plan.grid().pk;
  PlanComms pc;
  pc.active = world.split(co.active ? 0 : -1, me);
  if (!co.active) return pc;
  pc.cannon = pc.active.split(co.gk * c + co.gc, co.j * s + co.i);
  CA_ASSERT(pc.cannon.size() == s * s);
  if (c > 1) {
    pc.repl = pc.active.split(co.gk * s * s + co.j * s + co.i, co.gc);
    CA_ASSERT(pc.repl.size() == c);
  }
  if (pk > 1) {
    pc.reduce = pc.active.split((co.gc * s + co.j) * s + co.i, co.gk);
    CA_ASSERT(pc.reduce.size() == pk);
  }
  return pc;
}

template <typename T>
void ca3dmm_multiply(Comm& world, const Ca3dmmPlan& plan, bool trans_a,
                     bool trans_b, const BlockLayout& a_layout,
                     const T* a_local, const BlockLayout& b_layout,
                     const T* b_local, const BlockLayout& c_layout,
                     T* c_local) {
  ca3dmm_execute<T>(world, plan, nullptr, trans_a, trans_b, a_layout, a_local,
                    b_layout, b_local, c_layout, c_local);
}

template <typename T>
void ca3dmm_multiply(Comm& world, const Ca3dmmPlan& plan, PlanComms& comms,
                     bool trans_a, bool trans_b, const BlockLayout& a_layout,
                     const T* a_local, const BlockLayout& b_layout,
                     const T* b_local, const BlockLayout& c_layout,
                     T* c_local) {
  ca3dmm_execute<T>(world, plan, &comms, trans_a, trans_b, a_layout, a_local,
                    b_layout, b_local, c_layout, c_local);
}

template void ca3dmm_multiply<float>(Comm&, const Ca3dmmPlan&, bool, bool,
                                     const BlockLayout&, const float*,
                                     const BlockLayout&, const float*,
                                     const BlockLayout&, float*);
template void ca3dmm_multiply<double>(Comm&, const Ca3dmmPlan&, bool, bool,
                                      const BlockLayout&, const double*,
                                      const BlockLayout&, const double*,
                                      const BlockLayout&, double*);
template void ca3dmm_multiply<float>(Comm&, const Ca3dmmPlan&, PlanComms&,
                                     bool, bool, const BlockLayout&,
                                     const float*, const BlockLayout&,
                                     const float*, const BlockLayout&, float*);
template void ca3dmm_multiply<double>(Comm&, const Ca3dmmPlan&, PlanComms&,
                                      bool, bool, const BlockLayout&,
                                      const double*, const BlockLayout&,
                                      const double*, const BlockLayout&,
                                      double*);

}  // namespace ca3dmm
