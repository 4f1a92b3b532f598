#pragma once

/// \file model.hpp
/// Discrete performance model of PT-CN hybrid rt-TDDFT on a Summit-like
/// machine. Maps the operation schedule of Algs. 1-3 (FLOP and byte counts
/// per phase, paper §7) onto the machine rates of machine.hpp, reproducing
/// the paper's Tables 1-2 and Figs. 3 and 6-10. See docs/ARCHITECTURE.md,
/// Substitutions, for why a model stands in for Summit runs.

#include <string>
#include <vector>

#include "perf/machine.hpp"
#include "perf/workload.hpp"

namespace pwdft::perf {

/// Per-SCF component times in seconds (the rows of paper Table 1).
struct ScfBreakdown {
  double fock_mpi = 0.0;
  double fock_comp = 0.0;
  double local_semilocal = 0.0;
  double resid_alltoallv = 0.0;
  double resid_allreduce = 0.0;
  double resid_comp = 0.0;
  double anderson_memcpy = 0.0;
  double anderson_comp = 0.0;
  double density_comp = 0.0;
  double density_allreduce = 0.0;
  double others = 0.0;

  double fock_total() const { return fock_mpi + fock_comp; }
  double hpsi_total() const { return fock_total() + local_semilocal; }
  double resid_total() const { return resid_alltoallv + resid_allreduce + resid_comp; }
  double anderson_total() const { return anderson_memcpy + anderson_comp; }
  double density_total() const { return density_comp + density_allreduce; }
  double per_scf() const {
    return hpsi_total() + resid_total() + anderson_total() + density_total() + others;
  }
};

/// Per-step (50 as) communication/memcpy/compute totals (paper Table 2).
struct StepCommBreakdown {
  double memcpy = 0.0;
  double alltoallv = 0.0;
  double allreduce = 0.0;
  double bcast = 0.0;
  double allgatherv = 0.0;
  double compute = 0.0;
  double mpi_total() const { return alltoallv + allreduce + bcast + allgatherv; }
};

/// One bar of the paper's Fig. 3 optimization-stage study.
struct FockStage {
  std::string name;
  double seconds = 0.0;  ///< Fock-exchange wall time per SCF
};

class SummitModel {
 public:
  SummitModel(SummitMachine machine, Workload workload)
      : m_(machine), w_(workload) {}

  const SummitMachine& machine() const { return m_; }
  const Workload& workload() const { return w_; }

  // ---- Fock exchange operator (Alg. 2) ----
  /// Compute time of one Fock application per rank.
  double fock_compute_per_apply(int ngpu, bool batched = true) const;
  /// Raw (un-hidden) broadcast time of one application.
  double fock_bcast_raw_per_apply(int ngpu, bool single_precision) const;
  /// Measured-equivalent broadcast time after compute hiding (Table 1 row).
  double fock_bcast_measured_per_apply(int ngpu) const;
  /// Local + semi-local H*psi time per application.
  double local_semilocal_per_apply(int ngpu) const;

  // ---- full PT-CN step ----
  ScfBreakdown scf_breakdown(int ngpu) const;
  /// Total wall time of one PT-CN step (= one 50 as advance), Table 1 row.
  double ptcn_step_total(int ngpu) const;
  StepCommBreakdown comm_breakdown(int ngpu) const;

  // ---- baselines ----
  /// RK4 advancing the same 50 as: 100 steps x 4 H applications with the
  /// pre-optimization communication path (double precision, no overlap).
  double rk4_50as_total(int ngpu) const;
  /// CPU-only PWDFT PT-CN step on `ncores` cores (paper: 8874 s at 3072).
  double cpu_step_total(int ncores) const;

  // ---- aggregates ----
  double total_flop_per_step() const;
  double gpu_power_w(int ngpu) const;
  double cpu_power_w(int ncores) const;
  int cpu_nodes(int ncores) const;
  /// Memory per rank for PT-CN incl. 20 Anderson copies (paper §7, GB).
  double anderson_memory_gb_per_rank(int ngpu) const;

  /// Full §7-style memory breakdown per rank (GB).
  struct MemoryBreakdown {
    double wavefunctions_gpu = 0.0;    ///< Psi, HPsi, Psi_half, residual
    double fock_buffers_gpu = 0.0;     ///< broadcast + batched pair buffers
    double projectors_gpu = 0.0;       ///< replicated nonlocal projectors
    double density_vars_gpu = 0.0;     ///< rho, V_H, V_xc, ... (replicated)
    double anderson_host = 0.0;        ///< 20 wavefunction copies in DRAM
    double gpu_total() const {
      return wavefunctions_gpu + fock_buffers_gpu + projectors_gpu + density_vars_gpu;
    }
  };
  MemoryBreakdown memory_breakdown(int ngpu) const;

  /// Fig. 3: Fock wall time per SCF across the optimization stages.
  std::vector<FockStage> fock_stages(int ngpu, int cpu_cores) const;

 private:
  double fft_flop(double n) const;
  SummitMachine m_;
  Workload w_;
};

/// Admission-control cost of a queued job: model-seconds for `steps` PT-CN
/// steps of workload `w` on one model GPU. The serve::JobEngine compares
/// these against its concurrent-cost budget, so only the ratios between
/// jobs matter and the machine constants cancel out of scheduling
/// decisions (a 2x2x2-cell laser sweep costs 8x a unit-cell SCF probe).
double job_cost(const SummitMachine& m, const Workload& w, int steps);

}  // namespace pwdft::perf
