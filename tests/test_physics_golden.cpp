// Golden-value physics regression: a small-silicon hybrid ground state plus
// a 5-step PT-CN propagation with frozen in-source reference values. The
// FFT oracle (tests/test_fft_oracle.cpp) proves the transforms against an
// independent DFT; this layer proves the *physics pipeline on top of them*
// — a kernel or scheduling change that silently perturbs the total energy,
// the band eigenvalues, or the current (dipole-velocity) trace fails tier-1
// instead of only showing up in the benches.
//
// Tolerances: the engine is bit-identical at any thread count
// (docs/threading.md), so width never moves these numbers, and the one FFT
// kernel gives every line the same bits however lines are grouped into
// runs. An FFT that rounds differently in the last bit (table twiddles in
// place of the exact butterfly leaves) moves energies by ~1e-8 Ha and
// currents by ~3e-10 a.u. through the converged SCF fixed points, an order
// or more inside the tolerances — which still catch any real physics
// change (those move these digits at 1e-4 or more).
//
// Regenerate after an *intended* physics change with:
//   PWDFT_GOLDEN_PRINT=1 ./build/test_physics_golden

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/simulation.hpp"
#include "td/field.hpp"

namespace pwdft {
namespace {

core::SimulationOptions golden_options() {
  core::SimulationOptions opt;
  opt.cells[0] = opt.cells[1] = opt.cells[2] = 1;  // Si8
  opt.ecut = 3.0;
  opt.dense_factor = 1;
  opt.hybrid = true;
  opt.scf.tol_rho = 1e-7;
  opt.scf.lobpcg.max_iter = 6;
  opt.scf.hybrid_outer_max = 3;
  opt.scf.hybrid_outer_tol = 1e-7;
  opt.seed = 42;
  return opt;
}

constexpr double kKick = 0.02;  ///< delta-kick amplitude along z at t = 0+
constexpr int kSteps = 5;

core::PropagateOptions golden_propagation(const td::ExternalField& field) {
  core::PropagateOptions popt;
  popt.integrator = core::Integrator::kPtCn;
  popt.dt_as = 50.0;
  popt.steps = kSteps;
  popt.field = &field;
  popt.ptcn.rho_tol = 1e-7;
  return popt;
}

// ---- Frozen reference values (regeneration note above) ------------------
// Generated 2026-07. Ground state: Si8, Ecut = 3 Ha, LDA phase + 3 hybrid
// outers.
constexpr double kTotalEnergy = -30.5278743911242;  // Ha
constexpr std::size_t kNumBands = 16;
constexpr double kEigenvalues[kNumBands] = {
    -0.204579247614072,  -0.0624837381320679, -0.0624837380346080,
    -0.0619853658915997, -0.0619853658788842, -0.0619853658479276,
    -0.0612893049079709, 0.0288956073557961,  0.0288956073643569,
    0.0288956074039492,  0.0295719049834277,  0.0295719050207155,
    0.0295719050475380,  0.136547214441234,   0.136547214441776,
    0.136547214444076,
};
// PT-CN trace under the z delta kick: j_z(t) (the dipole-velocity trace)
// and total energy per step, samples at t = 0, dt, ..., 5 dt. The t = 0
// sample already sees the kick (a = kappa for t >= 0), so its energy sits
// Ne * kappa^2 / 2 above the ground state.
constexpr double kCurrentZ[kSteps + 1] = {
    0.000592357617755711,  0.000451272319331256,  0.000149435185281872,
    -0.000156139562711248, -0.000447543982032571, -0.000732890965190251,
};
constexpr double kEnergyTrace[kSteps + 1] = {
    -30.5214743911242, -30.5214743521994, -30.5214744066879,
    -30.5214745144787, -30.5214747144030, -30.5214751456382,
};

// ACE-mode ground state: the compressed operator drives the inner LOBPCG,
// so three hybrid outers land within ~5e-6 Ha of the pair-solve fixed point
// (both loops would meet at the same point as outers -> infinity; the frozen
// constant pins the 3-outer trajectory exactly).
constexpr double kAceTotalEnergy = -30.5278690536373;  // Ha
// ACE-mode MTS propagation (use_ace on, PT-CN mts_interval = 2, drift bound
// disabled so the cadence alone schedules the rebuilds): the exchange
// operator is frozen through every inner iteration and across every second
// step. At this deliberately large dt (50 as) the frozen operator lags the
// orbitals enough that the trace visibly departs from the exact one (~1e-4
// on currents, a few mHa of energy drift) — the frozen constants pin that
// approximation so a change to the refresh machinery cannot hide in it.
// Same delta kick, samples at t = 0, dt, ..., 5 dt.
constexpr double kCurrentZAceMts[kSteps + 1] = {
    0.000592357617755709,  0.000407722210573941, 3.53967472141115e-05,
    -0.000200116135489659, -0.000453019842178321, -0.000676123222235212,
};
constexpr double kEnergyTraceAceMts[kSteps + 1] = {
    -30.5214690536373, -30.5226794660583, -30.5253395971300,
    -30.5260750864209, -30.5279655678913, -30.5285402381442,
};
// Forced-early-refresh continuation (2 more steps with mts_interval = 100
// and a zero drift tolerance, so the monitored bound — not the cadence —
// triggers the rebuild on every step).
constexpr double kCurrentZAceForced[3] = {
    -0.000676123222235212, -0.000876843110967922, -0.00104159349792582,
};
/// How far ACE/MTS results may sit from the *exact* references: the ACE
/// ground state after 3 outers (energy / eigenvalues), and the MTS current
/// trace vs the per-inner-iteration exact trace. Looser than the frozen
/// self-gates above by design — these bound the approximation, the frozen
/// constants pin the implementation.
constexpr double kAceVsExactEnergyTol = 1e-5;    ///< Ha
constexpr double kAceVsExactEigvalTol = 5e-5;    ///< Ha
constexpr double kMtsVsExactCurrentTol = 2e-4;   ///< a.u.

constexpr double kEnergyTol = 5e-7;   ///< Ha
constexpr double kEigvalTol = 5e-7;   ///< Ha
constexpr double kCurrentTol = 1e-8;  ///< a.u.

struct GoldenRun {
  scf::ScfResult gs;
  std::vector<td::TimePoint> trace;
};

const GoldenRun& golden_run() {
  static const GoldenRun run = [] {
    core::Simulation sim(golden_options());
    GoldenRun r;
    r.gs = sim.ground_state();
    td::DeltaKick kick({0.0, 0.0, kKick}, 0.0);
    r.trace = sim.propagate(golden_propagation(kick));
    if (std::getenv("PWDFT_GOLDEN_PRINT")) {
      std::printf("kTotalEnergy = %.15g;\n", r.gs.energy.total());
      std::printf("kEigenvalues[%zu] = {\n", r.gs.eigenvalues.size());
      for (double e : r.gs.eigenvalues) std::printf("    %.15g,\n", e);
      std::printf("};\nkCurrentZ = {\n");
      for (const auto& p : r.trace) std::printf("    %.15g,\n", p.current[2]);
      std::printf("};\nkEnergyTrace = {\n");
      for (const auto& p : r.trace) std::printf("    %.15g,\n", p.energy);
      std::printf("};\n");
    }
    return r;
  }();
  return run;
}

/// ACE-mode run: same golden problem with exchange applied through the
/// compressed operator. The ground state must land on the SAME frozen
/// energy/eigenvalue references as the exact run (ACE is exact on the
/// registered orbital span, and every SCF outer step refreshes the
/// projectors); the MTS propagation gates its own frozen traces.
struct AceGoldenRun {
  scf::ScfResult gs;
  std::vector<td::TimePoint> mts_trace;     ///< 5 steps, mts_interval = 2
  std::vector<td::TimePoint> forced_trace;  ///< 2 steps, drift bound forces refresh
};

const AceGoldenRun& ace_golden_run() {
  static const AceGoldenRun run = [] {
    auto opt = golden_options();
    opt.use_ace = true;
    core::Simulation sim(opt);
    AceGoldenRun r;
    r.gs = sim.ground_state();
    td::DeltaKick kick({0.0, 0.0, kKick}, 0.0);
    auto popt = golden_propagation(kick);
    popt.ptcn.mts_interval = 2;
    popt.ptcn.mts_drift_tol = 1e9;  // cadence-only schedule; the bound is gated below
    r.mts_trace = sim.propagate(popt);
    popt.steps = 2;
    popt.ptcn.mts_interval = 100;
    popt.ptcn.mts_drift_tol = 0.0;  // every step trips the monitored bound
    r.forced_trace = sim.propagate(popt);
    if (std::getenv("PWDFT_GOLDEN_PRINT")) {
      std::printf("kAceTotalEnergy = %.15g;\nkCurrentZAceMts = {\n", r.gs.energy.total());
      for (const auto& p : r.mts_trace) std::printf("    %.15g,\n", p.current[2]);
      std::printf("};\nkEnergyTraceAceMts = {\n");
      for (const auto& p : r.mts_trace) std::printf("    %.15g,\n", p.energy);
      std::printf("};\nkCurrentZAceForced = {\n");
      for (const auto& p : r.forced_trace) std::printf("    %.15g,\n", p.current[2]);
      std::printf("};\n");
    }
    return r;
  }();
  return run;
}

TEST(PhysicsGolden, GroundStateTotalEnergy) {
  const auto& run = golden_run();
  EXPECT_TRUE(run.gs.converged);
  EXPECT_NEAR(run.gs.energy.total(), kTotalEnergy, kEnergyTol);
}

TEST(PhysicsGolden, GroundStateBandEigenvalues) {
  const auto& run = golden_run();
  ASSERT_EQ(run.gs.eigenvalues.size(), kNumBands);
  for (std::size_t j = 0; j < kNumBands; ++j)
    EXPECT_NEAR(run.gs.eigenvalues[j], kEigenvalues[j], kEigvalTol) << "band " << j;
}

TEST(PhysicsGolden, PtCnCurrentTraceUnderKick) {
  const auto& run = golden_run();
  ASSERT_EQ(run.trace.size(), static_cast<std::size_t>(kSteps) + 1);
  for (std::size_t s = 0; s < run.trace.size(); ++s)
    EXPECT_NEAR(run.trace[s].current[2], kCurrentZ[s], kCurrentTol) << "step " << s;
  // The kick must actually excite a current (the trace is not trivially 0).
  EXPECT_GT(std::abs(run.trace[1].current[2]), 1e-5);
}

TEST(PhysicsGolden, PtCnEnergyTraceUnderKick) {
  const auto& run = golden_run();
  for (std::size_t s = 0; s < run.trace.size(); ++s)
    EXPECT_NEAR(run.trace[s].energy, kEnergyTrace[s], kEnergyTol) << "step " << s;
  // PT-CN conserves the post-kick energy to the SCF tolerance.
  for (std::size_t s = 2; s < run.trace.size(); ++s)
    EXPECT_NEAR(run.trace[s].energy, run.trace[1].energy, 1e-5) << "step " << s;
}

TEST(PhysicsGolden, AceGroundStateTracksExactExchange) {
  // The frozen ACE constant gates the implementation at the tight tolerance;
  // the exact-exchange references gate the *approximation* at the looser
  // bounds (ACE is exact on the registered span, so the two fixed points
  // differ only by the unfinished outer-loop tail).
  const auto& run = ace_golden_run();
  EXPECT_TRUE(run.gs.converged);
  EXPECT_NEAR(run.gs.energy.total(), kAceTotalEnergy, kEnergyTol);
  EXPECT_NEAR(run.gs.energy.total(), kTotalEnergy, kAceVsExactEnergyTol);
  ASSERT_EQ(run.gs.eigenvalues.size(), kNumBands);
  for (std::size_t j = 0; j < kNumBands; ++j)
    EXPECT_NEAR(run.gs.eigenvalues[j], kEigenvalues[j], kAceVsExactEigvalTol) << "band " << j;
}

TEST(PhysicsGolden, AceMtsCurrentAndEnergyTraceUnderKick) {
  const auto& run = ace_golden_run();
  ASSERT_EQ(run.mts_trace.size(), static_cast<std::size_t>(kSteps) + 1);
  for (std::size_t s = 0; s < run.mts_trace.size(); ++s) {
    EXPECT_NEAR(run.mts_trace[s].current[2], kCurrentZAceMts[s], kCurrentTol) << "step " << s;
    EXPECT_NEAR(run.mts_trace[s].energy, kEnergyTraceAceMts[s], kEnergyTol) << "step " << s;
  }
  // The frozen-exchange approximation must stay within a bounded band of the
  // exact trace: MTS is a controlled approximation, not new physics.
  for (std::size_t s = 0; s < run.mts_trace.size(); ++s)
    EXPECT_NEAR(run.mts_trace[s].current[2], kCurrentZ[s], kMtsVsExactCurrentTol) << "step " << s;
}

TEST(PhysicsGolden, AceMtsRefreshFollowsCadence) {
  // mts_interval = 2 with the drift bound disabled: steps 1, 3, 5 rebuild the
  // exchange operator, steps 2 and 4 run frozen (trace[0] is the t = 0 sample).
  const auto& run = ace_golden_run();
  ASSERT_EQ(run.mts_trace.size(), static_cast<std::size_t>(kSteps) + 1);
  EXPECT_FALSE(run.mts_trace[0].exchange_refreshed);
  for (std::size_t s = 1; s < run.mts_trace.size(); ++s) {
    EXPECT_EQ(run.mts_trace[s].exchange_refreshed, s % 2 == 1) << "step " << s;
    if (!run.mts_trace[s].exchange_refreshed)
      EXPECT_GT(run.mts_trace[s].mts_drift, 0.0) << "step " << s;
  }
}

TEST(PhysicsGolden, AceMtsDriftBoundForcesEarlyRefresh) {
  // Continuation with mts_interval = 100 but a zero drift tolerance: the
  // cadence alone would freeze for 100 steps, so every observed rebuild is
  // the monitored bound firing.
  const auto& run = ace_golden_run();
  ASSERT_EQ(run.forced_trace.size(), 3u);
  for (std::size_t s = 1; s < run.forced_trace.size(); ++s)
    EXPECT_TRUE(run.forced_trace[s].exchange_refreshed) << "step " << s;
  for (std::size_t s = 0; s < run.forced_trace.size(); ++s)
    EXPECT_NEAR(run.forced_trace[s].current[2], kCurrentZAceForced[s], kCurrentTol) << "step " << s;
}

}  // namespace
}  // namespace pwdft
