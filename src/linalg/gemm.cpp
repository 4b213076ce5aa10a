#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define CA_GEMM_X86 1
#else
#define CA_GEMM_X86 0
#endif

namespace ca3dmm {

namespace {

// Cache blocking parameters (elements). MC x KC panel of A and KC x NC panel
// of B stay resident while the micro-kernel streams C. KC is part of the
// bit-order contract (gemm.hpp); MC and NC only affect speed.
constexpr i64 kMC = 128;
constexpr i64 kKC = kGemmKBlock;
constexpr i64 kNC = 512;

/// Reads op(A)(i, p): A stored row-major with row stride lda.
template <typename T>
inline T at_a(const T* a, i64 lda, bool ta, i64 i, i64 p) {
  return ta ? a[p * lda + i] : a[i * lda + p];
}

template <typename T>
inline T at_b(const T* b, i64 ldb, bool tb, i64 p, i64 j) {
  return tb ? b[j * ldb + p] : b[p * ldb + j];
}

/// Packs op(A)(i0:i0+mc, p0:p0+kc) into column-of-row-tiles order: tile rows
/// of MR, contiguous in p.
template <i64 MR, typename T>
void pack_a(const T* a, i64 lda, bool ta, i64 i0, i64 mc, i64 p0, i64 kc,
            T* pa) {
  for (i64 it = 0; it < mc; it += MR) {
    const i64 mr = std::min(MR, mc - it);
    for (i64 p = 0; p < kc; ++p) {
      for (i64 r = 0; r < mr; ++r)
        *pa++ = at_a(a, lda, ta, i0 + it + r, p0 + p);
      for (i64 r = mr; r < MR; ++r) *pa++ = T{};
    }
  }
}

template <i64 NR, typename T>
void pack_b(const T* b, i64 ldb, bool tb, i64 p0, i64 kc, i64 j0, i64 nc,
            T* pb) {
  for (i64 jt = 0; jt < nc; jt += NR) {
    const i64 nr = std::min(NR, nc - jt);
    for (i64 p = 0; p < kc; ++p) {
      for (i64 r = 0; r < nr; ++r)
        *pb++ = at_b(b, ldb, tb, p0 + p, j0 + jt + r);
      for (i64 r = nr; r < NR; ++r) *pb++ = T{};
    }
  }
}

/// The one micro-kernel source: adds alpha times the product of a packed A
/// tile and a packed B tile into a full MR x (NV vectors of VB bytes) tile
/// of C. Each lane does the scalar contract of gemm.hpp as separate IEEE
/// multiplies and adds (ca_linalg is built with -ffp-contract=off, so none
/// fuse into an FMA). The accumulators are a fully unrolled array of
/// vectors, which the compiler keeps in registers.
template <typename T, int VB, i64 MR, i64 NV>
[[gnu::always_inline]] inline void micro_kernel(i64 kc, T alpha,
                                                const T* __restrict pa,
                                                const T* __restrict pb,
                                                T* __restrict c, i64 ldc) {
  typedef T V __attribute__((vector_size(VB)));
  constexpr i64 L = VB / static_cast<int>(sizeof(T));
  constexpr i64 NR = NV * L;
  V acc[MR][NV];
#pragma GCC unroll 8
  for (i64 i = 0; i < MR; ++i)
#pragma GCC unroll 4
    for (i64 v = 0; v < NV; ++v) acc[i][v] = V{};
  for (i64 p = 0; p < kc; ++p) {
    const T* __restrict a = pa + p * MR;
    V b[NV];
#pragma GCC unroll 4
    for (i64 v = 0; v < NV; ++v)
      std::memcpy(&b[v], pb + p * NR + v * L, sizeof(V));
#pragma GCC unroll 8
    for (i64 i = 0; i < MR; ++i) {
      const T ai = a[i];
#pragma GCC unroll 4
      for (i64 v = 0; v < NV; ++v) acc[i][v] += ai * b[v];
    }
  }
#pragma GCC unroll 8
  for (i64 i = 0; i < MR; ++i)
#pragma GCC unroll 4
    for (i64 v = 0; v < NV; ++v) {
      V cv;
      std::memcpy(&cv, c + i * ldc + v * L, sizeof(V));
      cv += alpha * acc[i][v];
      std::memcpy(c + i * ldc + v * L, &cv, sizeof(V));
    }
}

/// Thread-local scratch, reused across gemm_blocked calls: each Cannon step
/// (and each aggregated multi-shift flush) calls gemm_blocked once, and with
/// many simmpi ranks per process the per-call allocation of two panel
/// buffers showed up as allocator contention. `edge` holds one micro-tile of
/// C for tiles cut short by the matrix edge; it lives here rather than on
/// the stack, which is a small fiber stack when simmpi runs ranks as fibers.
template <typename T, i64 MR, i64 NR>
struct Scratch {
  std::vector<T> pa, pb, edge;
  static Scratch& get() {
    static thread_local Scratch s{
        std::vector<T>(static_cast<size_t>(((kMC + MR - 1) / MR) * MR * kKC)),
        std::vector<T>(static_cast<size_t>(((kNC + NR - 1) / NR) * NR * kKC)),
        std::vector<T>(static_cast<size_t>(MR * NR))};
    return s;
  }
};

/// The packed, cache-blocked loop nest around micro_kernel<T, VB, MR, NV>.
/// Always inlined, so each ISA entry point below compiles packing and
/// kernel for its own instruction set.
template <typename T, int VB, i64 MR, i64 NV>
[[gnu::always_inline]] inline void gemm_packed(bool trans_a, bool trans_b,
                                               i64 m, i64 n, i64 k, T alpha,
                                               const T* a, i64 lda, const T* b,
                                               i64 ldb, T* c, i64 ldc) {
  constexpr i64 NR = NV * (VB / static_cast<int>(sizeof(T)));
  Scratch<T, MR, NR>& scratch = Scratch<T, MR, NR>::get();
  T* pa = scratch.pa.data();
  T* pb = scratch.pb.data();
  T* edge = scratch.edge.data();
  for (i64 j0 = 0; j0 < n; j0 += kNC) {
    const i64 nc = std::min(kNC, n - j0);
    for (i64 p0 = 0; p0 < k; p0 += kKC) {
      const i64 kc = std::min(kKC, k - p0);
      pack_b<NR>(b, ldb, trans_b, p0, kc, j0, nc, pb);
      for (i64 i0 = 0; i0 < m; i0 += kMC) {
        const i64 mc = std::min(kMC, m - i0);
        pack_a<MR>(a, lda, trans_a, i0, mc, p0, kc, pa);
        for (i64 jt = 0; jt < nc; jt += NR) {
          const i64 nr = std::min(NR, nc - jt);
          const T* pbt = pb + (jt / NR) * NR * kc;
          for (i64 it = 0; it < mc; it += MR) {
            const i64 mr = std::min(MR, mc - it);
            const T* pat = pa + (it / MR) * MR * kc;
            T* ct = c + (i0 + it) * ldc + (j0 + jt);
            // An edge tile runs the full-tile kernel on a copy of its valid
            // corner; the lanes outside it compute values nobody reads.
            const bool cut = mr < MR || nr < NR;
            if (cut)
              for (i64 i = 0; i < mr; ++i)
                std::copy_n(ct + i * ldc, nr, edge + i * NR);
            micro_kernel<T, VB, MR, NV>(kc, alpha, pat, pbt, cut ? edge : ct,
                                        cut ? NR : ldc);
            if (cut)
              for (i64 i = 0; i < mr; ++i)
                std::copy_n(edge + i * NR, nr, ct + i * ldc);
          }
        }
      }
    }
  }
}

template <typename T>
using GemmFn = void (*)(bool, bool, i64, i64, i64, T, const T*, i64, const T*,
                        i64, T*, i64);

// One entry point per ISA, each with the micro-tile that fits its register
// file: AVX-512F 8 x 3 zmm (24 of 32 registers accumulate), AVX2 6 x 2 ymm
// (12 of 16), and the portable baseline 4 x 8 elements in 16-byte vectors.
#if CA_GEMM_X86
template <typename T>
[[gnu::target("avx512f")]] void gemm_avx512f(bool ta, bool tb, i64 m, i64 n,
                                             i64 k, T alpha, const T* a,
                                             i64 lda, const T* b, i64 ldb,
                                             T* c, i64 ldc) {
  gemm_packed<T, 64, 8, 3>(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

template <typename T>
[[gnu::target("avx2")]] void gemm_avx2(bool ta, bool tb, i64 m, i64 n, i64 k,
                                       T alpha, const T* a, i64 lda,
                                       const T* b, i64 ldb, T* c, i64 ldc) {
  gemm_packed<T, 32, 6, 2>(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
#endif

template <typename T>
void gemm_generic(bool ta, bool tb, i64 m, i64 n, i64 k, T alpha, const T* a,
                  i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  gemm_packed<T, 16, 4, 8 / (16 / sizeof(T))>(ta, tb, m, n, k, alpha, a, lda,
                                               b, ldb, c, ldc);
}

template <typename T>
struct Variant {
  const char* isa;
  GemmFn<T> fn;
};

/// Every variant this CPU (and its OS) can run, widest first.
template <typename T>
std::vector<Variant<T>> runnable_variants() {
  std::vector<Variant<T>> v;
#if CA_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f"))
    v.push_back({"avx512f", gemm_avx512f<T>});
  if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", gemm_avx2<T>});
#endif
  v.push_back({"generic", gemm_generic<T>});
  return v;
}

/// The widest runnable variant, picked once per process.
template <typename T>
const Variant<T>& dispatched() {
  static const Variant<T> variant = runnable_variants<T>().front();
  return variant;
}

}  // namespace

const char* gemm_kernel_isa() { return dispatched<double>().isa; }

template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  for (i64 i = 0; i < m; ++i)
    for (i64 p = 0; p < k; ++p) {
      const T ai = at_a(a, lda, trans_a, i, p);
      if (ai == T{}) continue;
      for (i64 j = 0; j < n; ++j)
        c[i * ldc + j] += alpha * ai * at_b(b, ldb, trans_b, p, j);
    }
}

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  dispatched<T>().fn(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                     ldc);
}

template <typename T>
bool gemm_blocked_on(const char* isa, bool trans_a, bool trans_b, i64 m,
                     i64 n, i64 k, T alpha, const T* a, i64 lda, const T* b,
                     i64 ldb, T* c, i64 ldc) {
  for (const Variant<T>& v : runnable_variants<T>()) {
    if (std::strcmp(v.isa, isa) != 0) continue;
    if (m != 0 && n != 0 && k != 0)
      v.fn(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return true;
  }
  return false;
}

template void gemm_ref<float>(bool, bool, i64, i64, i64, float, const float*,
                              i64, const float*, i64, float*, i64);
template void gemm_ref<double>(bool, bool, i64, i64, i64, double, const double*,
                               i64, const double*, i64, double*, i64);
template void gemm_blocked<float>(bool, bool, i64, i64, i64, float,
                                  const float*, i64, const float*, i64, float*,
                                  i64);
template void gemm_blocked<double>(bool, bool, i64, i64, i64, double,
                                   const double*, i64, const double*, i64,
                                   double*, i64);
template bool gemm_blocked_on<float>(const char*, bool, bool, i64, i64, i64,
                                     float, const float*, i64, const float*,
                                     i64, float*, i64);
template bool gemm_blocked_on<double>(const char*, bool, bool, i64, i64, i64,
                                      double, const double*, i64,
                                      const double*, i64, double*, i64);

}  // namespace ca3dmm
