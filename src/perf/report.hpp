#pragma once

/// \file report.hpp
/// Paper-style table/series generators. Each function regenerates one table
/// or figure of the evaluation section from the performance model; the bench
/// binaries print these.

#include "common/table.hpp"
#include "perf/model.hpp"

namespace pwdft::perf {

/// The GPU counts of the paper's Table 1 / Table 2 columns.
std::vector<int> paper_gpu_counts();

/// Table 1: component wall-clock breakdown + speedup vs the CPU reference.
Table table1(const SummitModel& model, const std::vector<int>& gpus, int cpu_cores = 3072);

/// Table 2: MPI / memcpy / compute totals per step.
Table table2(const SummitModel& model, const std::vector<int>& gpus);

/// Fig. 3: Fock-exchange time across the optimization stages.
Table fig3(const SummitModel& model, int ngpu = 72, int cpu_cores = 3072);

/// Fig. 6: RK4 vs PT-CN wall time for a 50 as advance.
Table fig6(const SummitModel& model, const std::vector<int>& gpus);

/// Fig. 7(a): strong scaling of the total step time and components
/// (communication included).
Table fig7a(const SummitModel& model, const std::vector<int>& gpus);

/// Fig. 7(b): strong scaling of the pure computation per component.
Table fig7b(const SummitModel& model, const std::vector<int>& gpus);

/// Fig. 8: weak scaling, 48..1536 atoms with #GPUs = Natom/2, vs ideal N^2.
Table fig8(const SummitMachine& machine, const std::vector<std::size_t>& natoms);

/// Fig. 9: per-SCF stacked component contributions.
Table fig9(const SummitModel& model, const std::vector<int>& gpus);

/// Fig. 10: strong scaling of MPI operations, memcpy, and compute.
Table fig10(const SummitModel& model, const std::vector<int>& gpus);

/// §6 power comparison: 12 GPU nodes vs 73 CPU nodes at iso-power.
Table power_comparison(const SummitModel& model, int ngpu = 72, int cpu_cores = 3072);

}  // namespace pwdft::perf
