#pragma once

/// \file blas.hpp
/// Complex dense kernels standing in for cuBLAS: GEMM (ops N/T/C), rank-k
/// overlap products, and level-1 helpers. The two hot paths in PT-CN,
/// LOBPCG and ACE are
///   S = X^H * Y   (overlap matrices, Alg. 3 step 2): register tiles of 2x4
///                 outputs, each with its own accumulator over the rows
///   Y = X * S     (subspace rotations, Alg. 3 step 4): each element of 4
///                 columns of Y takes the updates of a run of 4 columns of X
///                 in registers, sharing every load of X across the 4
/// on two-lane [re, im] vectors (lanes.hpp). Tiling changes only the loop
/// structure: every output element is computed with the same IEEE
/// operations in the same order as the one-element loop (for A^H B: acc =
/// +0, then acc += conj(a_il) * b_lj for l = 0..k-1; for A B: after the
/// beta pass, c_ij += (alpha * b_lj) * a_il for l = 0..k-1, skipping
/// alpha * b_lj == 0), so results are bit-identical to the one-element
/// reference loops in tests/test_linalg.cpp (LinalgBits). Kernels are single-threaded on the
/// calling thread and allocate nothing.

#include <span>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::linalg {

/// C = alpha * op(A) * op(B) + beta * C, with op in {'N','T','C'}.
void gemm(char opa, char opb, Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta,
          CMatrix& c);

/// Convenience: returns A^H * B (the overlap of two wavefunction blocks).
CMatrix overlap(const CMatrix& a, const CMatrix& b);

/// overlap() into caller-owned storage (resized); the allocation-free form
/// for hot paths whose result matrix lives in a workspace arena slot.
void overlap_into(const CMatrix& a, const CMatrix& b, CMatrix& s);

/// y += alpha * x
void axpy(Complex alpha, std::span<const Complex> x, std::span<Complex> y);

/// Conjugated dot product: sum_i conj(x_i) * y_i.
Complex dotc(std::span<const Complex> x, std::span<const Complex> y);

/// Euclidean norm.
double nrm2(std::span<const Complex> x);

/// x *= alpha
void scal(Complex alpha, std::span<Complex> x);

/// Frobenius norm of a matrix.
double frobenius_norm(const CMatrix& a);

}  // namespace pwdft::linalg
