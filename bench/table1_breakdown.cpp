// Regenerates paper Table 1: wall-clock breakdown of the computationally
// intensive components for the 1536-atom silicon system, 36..3072 GPUs,
// plus the §6 power comparison. Values come from the calibrated Summit
// performance model (src/perf).

#include <cstdio>

#include "perf/report.hpp"

int main() {
  using namespace pwdft;
  perf::SummitModel model(perf::SummitMachine::defaults(), perf::Workload::silicon(1536));
  const auto gpus = perf::paper_gpu_counts();

  std::printf("== Table 1: per-SCF component times (s), Si1536, PT-CN ==\n");
  std::printf("(paper anchors: per-SCF 101.36 s @36 GPUs, total 2453.8 s; "
              "best total 260.9 s @768 GPUs, 34x vs 3072-core CPU)\n\n");
  perf::table1(model, gpus).print();

  std::printf("\n== Power comparison (paper section 6) ==\n");
  perf::power_comparison(model, 72, 3072).print();

  std::printf("\nTotal FLOP per TDDFT step (model): %.3g (paper NVPROF: 3.87e16)\n",
              model.total_flop_per_step());
  std::printf("Anderson history memory per rank @36 GPUs: %.1f GB (paper: <20 GB)\n",
              model.anderson_memory_gb_per_rank(36));
  return 0;
}
