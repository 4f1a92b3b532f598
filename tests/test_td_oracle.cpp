// Where the PT-CN fixed-point loop stops: an oracle from the mathematics of
// the iteration, not from an earlier output. The loop's preconditioner and
// mixer change the path to a step's fixed point, never the fixed point, so
// the distance between a solve at rho_tol and a much tighter reference solve
// must stay inside the geometric tail that the loop's own observed
// contraction rate predicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ham/density.hpp"
#include "scf/scf.hpp"
#include "td/field.hpp"
#include "td/ptcn.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

constexpr double kDt50as = 50.0 / constants::as_per_au_time;

/// Hybrid Si8 at Ecut 3 with a ground state converged to 1e-9, kicked by
/// a = 0.01 along z.
struct StepFixture {
  StepFixture()
      : setup(test::make_si8_setup(3.0, 1)),
        species(pseudo::PseudoSpecies::silicon(true)),
        hamiltonian(setup, species, test::fast_hybrid_options()),
        bands(16, 1),
        occ(16, 2.0),
        kick({0.0, 0.0, 0.01}, -1.0) {
    scf::GroundStateSolver solver(setup, hamiltonian);
    psi0 = solver.initial_guess(occ.size(), 42);
    scf::ScfOptions opt;
    opt.max_iter = 60;
    opt.tol_rho = 1e-9;
    opt.lobpcg.max_iter = 6;
    opt.hybrid_outer_max = 6;
    opt.hybrid_outer_tol = 1e-8;
    solver.solve(psi0, occ, opt);
  }

  struct Solve {
    std::vector<double> rho;  ///< density after the step
    td::PtCnStepReport report;
  };

  /// One 50-as PT-CN step from psi0. The step is bit-deterministic, so two
  /// calls that differ only in max_scf share every iterate up to the
  /// earlier stop.
  Solve step(double rho_tol, int max_scf, bool sp_comm) {
    td::PtCnOptions opt;
    opt.dt = kDt50as;
    opt.rho_tol = rho_tol;
    opt.max_scf = max_scf;
    opt.sp_comm = sp_comm;
    td::PtCnPropagator prop(hamiltonian, bands, opt, 1);
    par::SerialComm comm;
    CMatrix psi = psi0;
    Solve s;
    s.report = prop.step(psi, occ, 0.0, kick, comm);
    s.rho = ham::compute_density(setup, hamiltonian.fft_dense(), psi, occ, comm);
    return s;
  }

  ham::PlanewaveSetup setup;
  pseudo::PseudoSpecies species;
  ham::Hamiltonian hamiltonian;
  par::BlockPartition bands;
  std::vector<double> occ;
  td::DeltaKick kick;
  CMatrix psi0;
};

TEST(PtCnOracle, StopsWithinTheContractionTailOfTheFixedPoint) {
  StepFixture f;
  for (const double rho_tol : {1e-6, 1e-7}) {
    for (const bool sp_comm : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "rho_tol " << rho_tol << " sp_comm " << sp_comm);
      const auto run = f.step(rho_tol, 60, sp_comm);
      ASSERT_TRUE(run.report.converged);
      const int n = run.report.scf_iterations;
      ASSERT_GE(n, 3) << "the rate estimate needs the last three density changes";
      // e_k = |rho_k - rho_{k-1}|: the change the loop measured at iteration
      // k, recovered by stopping the same step one and two iterations early.
      const double e_n = run.report.rho_error;
      const double e_n1 = f.step(rho_tol, n - 1, sp_comm).report.rho_error;
      const double e_n2 = f.step(rho_tol, n - 2, sp_comm).report.rho_error;
      const double q = std::max(e_n / e_n1, e_n1 / e_n2);
      ASSERT_LT(q, 1.0) << "the loop must contract over its last iterations";

      const auto ref = f.step(rho_tol / 100.0, 200, sp_comm);
      ASSERT_TRUE(ref.report.converged);
      const double dist = ham::density_error(f.setup, run.rho, ref.rho);

      // Derivation. The loop stops at the first N with e_N < rho_tol. If it
      // keeps contracting at a rate <= q from there, e_{N+k} <= q^k e_N, so
      // the fixed point rho* lies within sum_{k>=1} q^k e_N = q/(1-q) e_N
      // < q/(1-q) rho_tol of rho_N. The reference stops the same way at
      // rho_tol/100, so at the same rate its own tail is at most
      // q/(1-q) rho_tol/100. density_error is an L1 norm, and the triangle
      // inequality gives |rho_N - rho_ref| <= q/(1-q) rho_tol (1 + 1/100).
      // q is the larger of the last two ratios, not the last one: Anderson
      // mixing does not contract at a steady rate, and a single small last
      // ratio (0.105 on one 1e-7 solve) understates the tail. Both sides
      // pass through the step's Cholesky re-orthonormalization, the
      // identity on an orthonormal block; Psi_f is orthonormal up to the
      // converged residual, so it moves the distance only at second order.
      const double bound = q / (1.0 - q) * rho_tol * 1.01;
      std::printf("rho_tol %.0e sp_comm %d: N %d e_N-2 %.3e e_N-1 %.3e e_N %.3e q %.3f "
                  "distance %.3e bound %.3e margin %.2f\n",
                  rho_tol, static_cast<int>(sp_comm), n, e_n2, e_n1, e_n, q, dist, bound,
                  bound / dist);
      EXPECT_LE(dist, bound);
    }
  }
}

}  // namespace
}  // namespace pwdft
