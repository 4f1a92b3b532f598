#pragma once

/// \file heig.hpp
/// Hermitian eigensolver (cyclic complex Jacobi). Used for the Rayleigh-Ritz
/// step of LOBPCG and for small subspace diagonalizations; matrix sizes in
/// this code are at most a few hundred, where Jacobi is robust and accurate.
///
/// Each rotation updates columns p and q of A and V in contiguous,
/// vectorized passes (lanes.hpp). The row update of rows p and q is the
/// conjugate of the fresh columns outside the 2x2 block: the hermitized A
/// stays exactly Hermitian off the diagonal, so the mirrored rows carry the
/// bits the row loop would compute (only the sign of an exactly zero part
/// may differ, which never reaches a nonzero value). The 2x2 block is
/// computed by the row formulas. Rotations, thresholds and the sweep test
/// are those of the textbook loop, so eigenvalues and eigenvectors are
/// bit-identical to the reference row-and-column Jacobi kept in
/// tests/test_linalg.cpp (LinalgBits). A different
/// solver (e.g. tridiagonal QL) would pick another eigenvector basis
/// inside degenerate multiplets and move every downstream result.

#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::linalg {

/// Computes all eigenvalues (ascending) and eigenvectors of a Hermitian
/// matrix. Only the values implied by hermitizing (A + A^H)/2 are used.
/// On return, v.col(k) is the eigenvector for evals[k], and V is unitary.
void heig(const CMatrix& a, std::vector<double>& evals, CMatrix& v);

}  // namespace pwdft::linalg
