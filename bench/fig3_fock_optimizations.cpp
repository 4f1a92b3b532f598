// Regenerates paper Fig. 3: Fock-exchange wall time across the GPU
// optimization stages of §3.2 (CPU baseline -> band-by-band CUFFT ->
// batched -> CUDA-aware MPI -> single-precision MPI -> comm/compute
// overlap), for Si1536 with 72 GPUs vs 3072 CPU cores.
//
// A second section runs the *real* ablation on this machine: the options
// of ham::FockOperator that stand for those stages (batch_size 1 for
// band-by-band, batch_size 8 for batched, SP comm) on a small silicon
// system, demonstrating that every code path is executable and numerically
// equivalent. The broadcast prefetch of the overlap stage is always on.
//
// `--json <path>` writes the real-ablation rows as bench_json.hpp records
// (benchmark "fock_ablation", throughput = pair solves per second) for the
// CI perf-smoke artifact.

#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "ham/fock.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "perf/report.hpp"

namespace {

pwdft::CMatrix random_block(const pwdft::ham::PlanewaveSetup& setup, std::size_t nb) {
  using namespace pwdft;
  Rng rng(3);
  CMatrix psi(setup.n_g(), nb);
  for (std::size_t i = 0; i < psi.size(); ++i) psi.data()[i] = rng.complex_normal();
  CMatrix s = linalg::overlap(psi, psi);
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(psi, s);
  return psi;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pwdft;
  const std::string json_path = benchjson::consume_json_flag(&argc, argv);
  benchjson::Writer json;
  perf::SummitModel model(perf::SummitMachine::defaults(), perf::Workload::silicon(1536));
  std::printf("== Fig. 3: Fock-exchange optimization stages (model, Si1536, 72 GPUs) ==\n");
  std::printf("(paper: final GPU version ~7x faster than 3072-core CPU at iso-power)\n\n");
  perf::fig3(model, 72, 3072).print();

  std::printf("\n== Real ablation on this machine: Si8, Ecut 6 Ha ==\n");
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 6.0, 1);
  const std::size_t nb = 16;
  CMatrix phi = random_block(setup, nb);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  Table t({"configuration", "apply time (s)", "pair solves"});
  auto run = [&](const char* name, ham::FockOptions fopt) {
    ham::FockOperator fock(setup, xc::HybridParams{true, 0.25, 0.11}, fopt);
    fock.set_orbitals(phi, occ, bands, comm);
    CMatrix y(setup.n_g(), nb, Complex{0, 0});
    fock.apply_add(phi, y, comm);  // warm-up
    y.fill(Complex{0, 0});
    const std::uint64_t solves_before = fock.pair_solves();
    WallTimer timer;
    fock.apply_add(phi, y, comm);
    const double secs = timer.seconds();
    const double solves = static_cast<double>(fock.pair_solves() - solves_before);
    t.add_row();
    t.add_cell(name);
    t.add_cell(secs, 4);
    t.add_cell(std::to_string(static_cast<std::uint64_t>(solves)));
    json.add("fock_ablation", name, secs, secs > 0.0 ? solves / secs : 0.0);
  };
  ham::FockOptions band_by_band;
  band_by_band.batch_size = 1;
  run("band-by-band", band_by_band);
  ham::FockOptions batched;
  batched.batch_size = 8;
  run("batched (bs=8)", batched);
  ham::FockOptions sp = batched;
  sp.single_precision_comm = true;
  run("batched + SP comm", sp);
  t.print();
  std::printf("\n(on one rank the comm options are no-ops; their numerical\n"
              " equivalence is asserted in tests/test_fock.cpp and the\n"
              " distributed behaviour in tests/test_distributed.cpp)\n");
  if (!json_path.empty()) json.write(json_path);
  return 0;
}
