// Multi-tenant job server demo: a serve::JobEngine runs a mixed batch of
// simulation jobs — a ground-state SCF probe, a delta-kick absorption run,
// and two laser excitations — concurrently on the shared thread pool, each
// priced by the calibrated performance model (the price is reported in the
// job's status and picks eviction victims; it admits nothing). One laser
// job is killed mid-propagation (crash semantics: only its periodic
// checkpoint survives) and resumed; its stitched trajectory is compared
// bit-for-bit against an uninterrupted solo run.
//
// Tenants with the same cell/cutoff share one PlanewaveSetup and (through
// fft::shared_engine) the same warmed FFT graph caches. Checkpoints are the
// crash-safe v3 frame files of io/checkpoint.hpp: durable writes (fsync,
// rename, directory fsync), field-by-field versioned header, checksummed
// payload. Every engine call
// reports failures as typed serve::ErrorCode values — what a remote
// serve::Client sees too (see examples/serve_server.cpp).

#include <cstdio>
#include <filesystem>
#include <string>

#include "serve/job_engine.hpp"

using namespace pwdft;

namespace {

serve::JobSpec base_job(const std::string& name, serve::JobKind kind, int steps) {
  serve::JobSpec spec;
  spec.name = name;
  spec.kind = kind;
  spec.sim.cells[0] = spec.sim.cells[1] = spec.sim.cells[2] = 1;  // Si8
  spec.sim.ecut = 4.0;
  spec.sim.dense_factor = 1;
  spec.sim.scf.tol_rho = 1e-7;
  spec.sim.scf.lobpcg.max_iter = 6;
  spec.sim.scf.hybrid_outer_max = 6;
  spec.steps = steps;
  spec.ptcn.rho_tol = 1e-6;
  spec.checkpoint_every = 1;
  return spec;
}

void print_status(const char* name, const serve::JobStatus& s) {
  std::printf("  %-10s %-10s cost %8.1f model-s, %3llu steps, %3zu samples",
              name, serve::state_name(s.state), s.model_cost,
              static_cast<unsigned long long>(s.steps_done), s.trace.size());
  if (!s.trace.empty())
    std::printf(", final E = %.6f Ha, j_z = %.3e", s.trace.back().energy,
                s.trace.back().current[2]);
  if (s.scf_energy != 0.0) std::printf(", E_scf = %.6f Ha", s.scf_energy);
  if (!s.ok())
    std::printf(" (%s: %s)", serve::error_name(s.error), s.message.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  const std::string dir = "/tmp/pwdft_job_server_demo";
  std::filesystem::create_directories(dir);

  serve::JobEngineOptions eopt;
  eopt.max_running = 4;
  eopt.checkpoint_dir = dir;
  serve::JobEngine engine(eopt);

  auto scf = base_job("scf-probe", serve::JobKind::kScf, 0);
  auto absorb = base_job("absorption", serve::JobKind::kAbsorption, 3);
  auto laser_a = base_job("laser-a", serve::JobKind::kLaser, 3);
  laser_a.field.laser_e0 = 0.02;
  auto laser_b = base_job("laser-b", serve::JobKind::kLaser, 3);
  laser_b.field.laser_e0 = 0.05;
  laser_b.priority = 1;  // jumps the queue ahead of earlier submissions

  std::printf("job server: submitting 4 mixed tenants (engine slots: %zu)\n",
              eopt.max_running);
  std::printf("  model prices (perf::job_cost): scf %.1f, absorption %.1f, laser %.1f\n",
              serve::JobEngine::cost_estimate(scf), serve::JobEngine::cost_estimate(absorb),
              serve::JobEngine::cost_estimate(laser_a));

  const auto id_scf = engine.submit(scf);
  const auto id_abs = engine.submit(absorb);
  const auto id_a = engine.submit(laser_a);
  const auto id_b = engine.submit(laser_b);
  if (!id_scf.ok() || !id_abs.ok() || !id_a.ok() || !id_b.ok()) {
    std::printf("submission failed: %s\n", id_b.message.c_str());
    return 1;
  }

  // A typed rejection, not an exception: duplicate names are refused because
  // they key the checkpoint files.
  const auto dup = engine.submit(laser_a);
  std::printf("  resubmitting laser-a -> %s (%s)\n", serve::error_name(dup.error),
              dup.message.c_str());

  // Kill laser-b mid-propagation: it stops at its next step boundary with
  // only the periodic snapshot on disk, exactly like a preempted allocation.
  engine.preempt(id_b.id);
  auto killed = engine.wait(id_b.id);
  std::printf("\nlaser-b killed mid-run:\n");
  print_status("laser-b", killed);

  std::printf("\nresuming laser-b from %s/laser-b.psi.ckpt ...\n", dir.c_str());
  engine.resume(std::string("laser-b"));
  engine.wait_all();

  std::printf("\nall jobs drained:\n");
  print_status("scf-probe", engine.status(id_scf.id));
  print_status("absorption", engine.status(id_abs.id));
  print_status("laser-a", engine.status(id_a.id));
  const auto resumed = engine.status(id_b.id);
  print_status("laser-b", resumed);

  // Verify the restart: an uninterrupted solo run of the same spec must
  // match the stitched kill+resume trajectory bit-for-bit.
  std::printf("\nverifying kill+resume against an uninterrupted run ...\n");
  serve::JobEngineOptions vopt;
  vopt.checkpoint_dir = dir;
  serve::JobEngine verify(vopt);
  auto solo = laser_b;
  solo.name = "laser-b-solo";
  solo.priority = 0;
  const auto ref = verify.wait(verify.submit(solo).id);

  bool identical = ref.state == serve::JobState::kDone &&
                   resumed.state == serve::JobState::kDone &&
                   ref.trace.size() == resumed.trace.size();
  if (identical) {
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      const auto& a = ref.trace[i];
      const auto& b = resumed.trace[i];
      identical = identical && a.t == b.t && a.energy == b.energy &&
                  a.n_excited == b.n_excited && a.current[0] == b.current[0] &&
                  a.current[1] == b.current[1] && a.current[2] == b.current[2] &&
                  a.scf_iterations == b.scf_iterations && a.rho_error == b.rho_error;
    }
  }
  std::printf("kill+resume trajectory %s the uninterrupted run\n",
              identical ? "is bit-identical to" : "DIFFERS from");

  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
