#pragma once

/// \file cholesky.hpp
/// Cholesky factorization and the triangular solve used for wavefunction
/// re-orthogonalization at the end of each PT-CN step (paper §3.4):
///   S = Psi^H Psi = L L^H,   Psi_ortho = Psi L^{-H}.

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::linalg {

/// In-place lower Cholesky factorization of a Hermitian positive definite
/// matrix. On return the lower triangle (incl. diagonal) holds L and the
/// strict upper triangle is zeroed. Throws pwdft::Error if not HPD.
void potrf_lower(CMatrix& a);

/// X := X * L^{-H} where L is lower triangular (from potrf_lower).
/// This orthonormalizes the columns of X when L came from X^H X.
/// Column j is x_j -= conj(L(j,k)) x_k for k = 0..j-1 in order (skipping
/// L(j,k) == 0), then x_j *= 1 / L(j,j). Blocks of 4 columns share the loads
/// of every finished column, each element taking runs of 4 updates in
/// registers; the per-element operations and their order are those of the
/// column loop, so the result is bit-identical to the reference loop in
/// tests/test_linalg.cpp. Throws pwdft::Error on a zero diagonal.
void trsm_right_lower_conj(CMatrix& x, const CMatrix& l);

/// Solve L y = b (forward substitution), L lower triangular, in place.
void solve_lower(const CMatrix& l, Complex* b);

/// Solve L^H y = b (back substitution), in place.
void solve_lower_conj(const CMatrix& l, Complex* b);

}  // namespace pwdft::linalg
