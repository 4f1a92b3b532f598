// google-benchmark microkernels for the primitives behind the paper's cost
// model: 1-D/3-D FFTs (the Fock operator is NG-point FFT bound), batched vs
// band-by-band FFT submission (paper §3.2 step 2), the subspace linear
// algebra of Alg. 3 and LOBPCG (overlap and rotation GEMMs, the TRSM of the
// re-orthonormalization, the Jacobi Rayleigh-Ritz eigensolver),
// single-precision wire conversion (step 4), and one full Fock pair solve.
//
// Carries its own main(): `--json <path>` additionally writes the runs in
// the bench_json.hpp schema (bench/compare_bench.py reads it).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/exec.hpp"
#include "common/random.hpp"
#include "fft/fft3d.hpp"
#include "grid/transforms.hpp"
#include "ham/fock.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/heig.hpp"

namespace {

using namespace pwdft;

std::vector<Complex> random_vec(std::size_t n) {
  Rng rng(7);
  std::vector<Complex> v(n);
  for (auto& x : v) x = rng.complex_normal();
  return v;
}

void BM_Fft1D(benchmark::State& state) {
  const std::size_t n = state.range(0);
  fft::FftPlan1D plan(n);
  auto in = random_vec(n);
  std::vector<Complex> out(n), work(n);
  for (auto _ : state) {
    plan.execute(in.data(), 1, out.data(), work.data(), -1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft1D)->Arg(15)->Arg(60)->Arg(90)->Arg(120);

// Repeated in-place unnormalized forwards overflow to inf/NaN within a few
// iterations, and non-finite arithmetic runs ~2.5x slower, corrupting the
// measurement. Rescaling by 1/sqrt(N) after each transform keeps the RMS
// exactly constant (Parseval) at a cost identical across configurations.
void rescale(pwdft::Complex* data, std::size_t n, double inv_sqrt_n) {
  for (std::size_t i = 0; i < n; ++i) data[i] *= inv_sqrt_n;
}

void BM_Fft3D(benchmark::State& state) {
  exec::set_num_threads(1);  // serial baseline, independent of suite order
  const std::size_t n = state.range(0);
  fft::Fft3D fft({n, n, n});
  auto data = random_vec(fft.size());
  const double s = 1.0 / std::sqrt(static_cast<double>(fft.size()));
  for (auto _ : state) {
    fft.forward(data.data());
    rescale(data.data(), fft.size(), s);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.size());
}
// 9³ is the physics golden's grid (Si8 at Ecut 3), 12³ every perfbench
// workload's (Ecut 5 and 6), 15³ Si8 at the paper's Ecut 10.
BENCHMARK(BM_Fft3D)->Arg(9)->Arg(12)->Arg(15)->Arg(30);

void BM_Fft3DBatched(benchmark::State& state) {
  // Batched submission (one plan, contiguous batch) vs the loop in
  // BM_Fft3D; the GPU version gains bandwidth here, the CPU version gains
  // plan reuse.
  exec::set_num_threads(1);  // serial baseline, independent of suite order
  fft::Fft3D fft({15, 15, 15});
  const std::size_t nb = state.range(0);
  auto data = random_vec(fft.size() * nb);
  const double s = 1.0 / std::sqrt(static_cast<double>(fft.size()));
  for (auto _ : state) {
    fft.forward_many(data.data(), nb);
    rescale(data.data(), fft.size() * nb, s);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.size() * nb);
}
BENCHMARK(BM_Fft3DBatched)->Arg(1)->Arg(8);

void BM_Fft3DBatchedThreaded(benchmark::State& state) {
  // The execution-engine sweep: threads x batch on 15³, the Si8
  // wavefunction grid at the paper's Ecut 10 (BM_Fft3D lists the grids
  // the code's workloads run on). Arg(0) = engine width (1 reproduces the
  // serial seed path, the batch loop then runs inline), Arg(1) = batch
  // size. Compare rows at equal batch to read off the threading speedup.
  const std::size_t threads = state.range(0);
  const std::size_t nb = state.range(1);
  exec::set_num_threads(threads);
  fft::Fft3D fft({15, 15, 15});
  auto data = random_vec(fft.size() * nb);
  const double s = 1.0 / std::sqrt(static_cast<double>(fft.size()));
  for (auto _ : state) {
    fft.forward_many(data.data(), nb);
    rescale(data.data(), fft.size() * nb, s);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.size() * nb);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["batch"] = static_cast<double>(nb);
  exec::set_num_threads(1);
}
BENCHMARK(BM_Fft3DBatchedThreaded)
    ->ArgsProduct({{1, 2, 4}, {1, 4, 8, 16}})
    ->ArgNames({"threads", "batch"})
    ->UseRealTime();

void BM_SphereToGridTwoStep(benchmark::State& state) {
  // Baseline conversion: scatter then full inverse FFT (the seed path).
  exec::set_num_threads(1);
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 10.0, 2);
  fft::Fft3D fft(setup.dense_grid.dims());
  auto coeffs = random_vec(setup.n_g());
  std::vector<Complex> grid(setup.n_dense());
  for (auto _ : state) {
    grid::GSphere::scatter(coeffs, setup.map_dense(), grid);
    fft.inverse(grid.data());
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(state.iterations() * setup.n_dense());
}
BENCHMARK(BM_SphereToGridTwoStep);

void BM_SphereToGridFused(benchmark::State& state) {
  // Fused scatter + partial-pass inverse FFT: the axis-0 pass skips x-lines
  // with no sphere support (~8x fewer on the 2x dense grid).
  exec::set_num_threads(1);
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 10.0, 2);
  fft::Fft3D fft(setup.dense_grid.dims());
  auto coeffs = random_vec(setup.n_g());
  std::vector<Complex> grid(setup.n_dense());
  for (auto _ : state) {
    grid::sphere_to_grid(fft, setup.smap_dense, coeffs, grid);
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(state.iterations() * setup.n_dense());
  state.counters["x_fill"] = setup.smap_dense.x_fill();
}
BENCHMARK(BM_SphereToGridFused);

CMatrix random_block(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  CMatrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.complex_normal();
  return x;
}

void BM_OverlapGemm(benchmark::State& state) {
  // S = Psi^H Psi for NG x Ne blocks (Alg. 3 step 2); 751 x 48 is the
  // LOBPCG Gram matrix of [X W P] on Si8 at 16 bands.
  const std::size_t ng = state.range(0), nb = state.range(1);
  const CMatrix x = random_block(ng, nb, 9);
  CMatrix s(nb, nb);
  for (auto _ : state) {
    linalg::gemm('C', 'N', Complex{1, 0}, x, x, Complex{0, 0}, s);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * ng * nb * nb);
}
BENCHMARK(BM_OverlapGemm)->Args({3375, 16})->Args({3375, 32})->Args({751, 48});

void BM_GemmNN(benchmark::State& state) {
  // Y = X * C (Alg. 3 step 4, the LOBPCG Ritz rotation and the ACE
  // contribution -Xi P): ng x k times k x nb.
  const std::size_t ng = state.range(0), k = state.range(1), nb = state.range(2);
  const CMatrix x = random_block(ng, k, 10);
  const CMatrix c = random_block(k, nb, 11);
  CMatrix y(ng, nb);
  for (auto _ : state) {
    linalg::gemm('N', 'N', Complex{1, 0}, x, c, Complex{0, 0}, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * ng * k * nb);
}
BENCHMARK(BM_GemmNN)->Args({751, 48, 16})->Args({751, 16, 16});

void BM_Trsm(benchmark::State& state) {
  // Psi L^{-H} (the Cholesky re-orthonormalization, paper §3.4). Each
  // iteration solves a fresh copy of the same block.
  const std::size_t ng = state.range(0), nb = state.range(1);
  const CMatrix x0 = random_block(ng, nb, 12);
  CMatrix l = linalg::overlap(x0, x0);
  linalg::potrf_lower(l);
  CMatrix x = x0;
  for (auto _ : state) {
    std::copy_n(x0.data(), x0.size(), x.data());
    linalg::trsm_right_lower_conj(x, l);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * ng * nb * nb / 2);
}
BENCHMARK(BM_Trsm)->Args({751, 48});

void BM_Heig(benchmark::State& state) {
  // A Rayleigh-Ritz matrix S^H (H S) of LOBPCG: S orthonormal, H a
  // Hermitian operator with clustered low eigenvalues and a spread-out tail.
  const std::size_t n = state.range(0), ng = 751;
  CMatrix s = random_block(ng, n, 13);
  CMatrix g = linalg::overlap(s, s);
  linalg::potrf_lower(g);
  linalg::trsm_right_lower_conj(s, g);
  CMatrix hs = s;
  for (std::size_t i = 0; i < ng; ++i) {
    const double h = (i < n / 2) ? -0.3 + 1e-6 * static_cast<double>(i % 3) : 0.05 * i;
    for (std::size_t j = 0; j < n; ++j) hs(i, j) *= h;
  }
  const CMatrix a = linalg::overlap(s, hs);
  std::vector<double> evals;
  CMatrix v;
  for (auto _ : state) {
    linalg::heig(a, evals, v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Heig)->Arg(32)->Arg(48);

void BM_SinglePrecisionWireConversion(benchmark::State& state) {
  // The §3.2 step-4 conversion: complex<double> -> complex<float> -> back.
  const std::size_t n = 648000 / 8;  // one Si192-scale wavefunction
  auto buf = random_vec(n);
  std::vector<std::complex<float>> wire(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) wire[i] = std::complex<float>(buf[i]);
    for (std::size_t i = 0; i < n; ++i) buf[i] = Complex(wire[i]);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_SinglePrecisionWireConversion);

void BM_FockPairSolve(benchmark::State& state) {
  // One Poisson-like pair solve of Eq. 3 on the Si8 wavefunction grid:
  // pair density, forward FFT, kernel multiply, inverse FFT, accumulate.
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 10.0, 1);
  fft::Fft3D fft(setup.wfc_grid.dims());
  const std::size_t nw = setup.n_wfc();
  auto a = random_vec(nw), b = random_vec(nw);
  std::vector<Complex> pair(nw), acc(nw);
  std::vector<double> kernel(nw, 1.0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < nw; ++i) pair[i] = std::conj(a[i]) * b[i];
    fft.forward(pair.data());
    for (std::size_t i = 0; i < nw; ++i) pair[i] *= kernel[i];
    fft.inverse(pair.data());
    for (std::size_t i = 0; i < nw; ++i) acc[i] += a[i] * pair[i];
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FockPairSolve);

void BM_FullFockApply(benchmark::State& state) {
  // Complete Alg. 2 application on Si8 at reduced cutoff.
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 4.0, 1);
  const std::size_t nb = 16;
  Rng rng(11);
  CMatrix phi(setup.n_g(), nb);
  for (std::size_t i = 0; i < phi.size(); ++i) phi.data()[i] = rng.complex_normal();
  CMatrix s = linalg::overlap(phi, phi);
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(phi, s);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  ham::FockOperator fock(setup, xc::HybridParams{true, 0.25, 0.11});
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);
  CMatrix y(setup.n_g(), nb);
  for (auto _ : state) {
    y.fill(Complex{0, 0});
    fock.apply_add(phi, y, comm);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * nb * nb);
}
BENCHMARK(BM_FullFockApply);

/// Console reporter that additionally collects every finished run for the
/// --json writer. Counters are finalized (rates divided by time) before
/// reporters see them, so items_per_second can be copied through.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(pwdft::benchjson::Writer* w) : writer_(w) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate) continue;  // keep raw runs only
      std::string name = run.benchmark_name();
      // Drop the time-modifier suffix ("/real_time") so configs stay stable
      // keys whether or not a benchmark uses UseRealTime().
      for (const char* suffix : {"/real_time", "/process_time"}) {
        const std::size_t at = name.rfind(suffix);
        if (at != std::string::npos && at + std::strlen(suffix) == name.size())
          name.resize(at);
      }
      const std::size_t slash = name.find('/');
      const std::string bench = name.substr(0, slash);
      const std::string config = slash == std::string::npos ? "" : name.substr(slash + 1);
      const double wall_s =
          run.iterations > 0 ? run.real_accumulated_time / static_cast<double>(run.iterations)
                             : 0.0;
      const auto it = run.counters.find("items_per_second");
      const double throughput = it != run.counters.end() ? it->second.value : 0.0;
      writer_->add(bench, config, wall_s, throughput);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  pwdft::benchjson::Writer* writer_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = pwdft::benchjson::consume_json_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    pwdft::benchjson::Writer writer;
    CollectingReporter reporter(&writer);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    writer.write(json_path);
  }
  benchmark::Shutdown();
  return 0;
}
