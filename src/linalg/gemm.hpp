// Local (shared-memory) GEMM kernels.
//
// The paper offloads local matrix multiplication to an optimized BLAS (MKL /
// cuBLAS); none is available here, so the library ships its own packed,
// cache-blocked kernel. Simulated compute time is charged from the machine
// model, so the kernel's host speed never changes a virtual time; it bounds
// how fast executed runs finish on the host.
//
//   gemm_ref        — triple-loop reference, the tolerance oracle for tests
//   gemm_blocked    — packed, cache-blocked kernel used by the algorithms
//   gemm_kernel_isa — name of the micro-kernel variant gemm_blocked runs
//   gemm_flops      — flop count charged to the virtual clock
//
// Dispatch. gemm_blocked has one micro-kernel source, compiled once per ISA
// (AVX-512F, AVX2 and a portable 16-byte-vector baseline), each with the
// micro-tile that fits its register file. The first call picks the widest
// variant the CPU supports; there is no option to choose another.
//
// Bit-order contract. Every variant computes each element of C exactly as
//
//   for each k block [p0, p0 + kGemmKBlock), in ascending order:
//     acc = 0;  for p in the block, ascending: acc += op(A)(i,p) * op(B)(p,j);
//     c(i,j) += alpha * acc;
//
// with every multiply and add a separate IEEE operation (ca_linalg is built
// with -ffp-contract=off, so none fuses into an FMA). C is therefore
// bit-identical on every host and every dispatched variant, whatever the
// compiler flags; tests/test_gemm.cpp pins it with a scalar oracle.
#pragma once

#include "common/partition.hpp"
#include "linalg/matrix.hpp"

namespace ca3dmm {

/// Length of the k blocks of the bit-order contract above.
inline constexpr i64 kGemmKBlock = 256;

/// Micro-kernel variant gemm_blocked dispatches to on this host:
/// "avx512f", "avx2" or "generic".
const char* gemm_kernel_isa();

/// C (m x n, row stride ldc) += alpha * op(A) * op(B); op is transpose iff
/// trans_x. A is stored row-major as (m x k) with row stride lda when
/// !trans_a, as (k x m) when trans_a; similarly B.
template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc);

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc);

/// gemm_blocked on the named variant instead of the dispatched one, so tests
/// can pin the bit-order contract on every variant this CPU can run.
/// Returns false, and leaves C alone, when this CPU cannot run `isa`.
template <typename T>
bool gemm_blocked_on(const char* isa, bool trans_a, bool trans_b, i64 m, i64 n,
                     i64 k, T alpha, const T* a, i64 lda, const T* b, i64 ldb,
                     T* c, i64 ldc);

/// Dense (tight leading dimension) convenience overloads.
template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, const T* b, T* c) {
  gemm_ref(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
           trans_b ? k : n, c, n);
}

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, const T* b, T* c) {
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
               trans_b ? k : n, c, n);
}

/// Convenience: C += A * B on Matrix objects (no transposes).
template <typename T>
void gemm_acc(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c) {
  CA_REQUIRE(a.cols() == b.rows() && a.rows() == c.rows() &&
                 b.cols() == c.cols(),
             "gemm shape mismatch: (%lld x %lld)(%lld x %lld) -> (%lld x %lld)",
             static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
             static_cast<long long>(b.rows()), static_cast<long long>(b.cols()),
             static_cast<long long>(c.rows()), static_cast<long long>(c.cols()));
  gemm_blocked<T>(false, false, a.rows(), b.cols(), a.cols(), T{1}, a.data(),
                  b.data(), c.data());
}

/// Flops of one GEMM call (multiply + add).
inline double gemm_flops(i64 m, i64 n, i64 k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Bytes of operand/result data touched by one GEMM call (used by the GPU
/// device model for PCIe staging cost).
inline double gemm_bytes(i64 m, i64 n, i64 k, i64 esize) {
  return static_cast<double>(esize) *
         (static_cast<double>(m) * k + static_cast<double>(k) * n +
          2.0 * static_cast<double>(m) * n);
}

/// Bytes of the A/B panels only — what a multi-step engine stages per call
/// when the C accumulator stays resident on the device across steps.
inline double gemm_operand_bytes(i64 m, i64 n, i64 k, i64 esize) {
  return static_cast<double>(esize) *
         (static_cast<double>(m) * k + static_cast<double>(k) * n);
}

/// One-time staging of the C block (download + upload).
inline double gemm_result_bytes(i64 m, i64 n, i64 esize) {
  return 2.0 * static_cast<double>(esize) * static_cast<double>(m) *
         static_cast<double>(n);
}

}  // namespace ca3dmm
