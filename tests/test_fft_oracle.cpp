// Independent ground-truth oracle for the FFT stack. Nothing here reuses
// plan machinery as its own reference: every property is checked against a
// naive O(n^2) DFT built from cos/sin, or against an algebraic identity
// (round trip, Parseval, circular shift), or against the unmasked full
// transform (for the partial-pass sphere path, on randomized masks). This
// is the layer a radix-kernel rewrite is validated against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "fft/fft3d.hpp"
#include "fft/fft_plan.hpp"
#include "grid/transforms.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

using fft::Fft3D;
using fft::FftPlan1D;

std::vector<Complex> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = rng.complex_normal();
  return v;
}

double max_abs_diff(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

std::vector<Complex> plan_execute(const FftPlan1D& plan, const std::vector<Complex>& x,
                                  int sign) {
  std::vector<Complex> out(plan.size()), work(plan.size());
  plan.execute(x.data(), 1, out.data(), work.data(), sign);
  return out;
}

/// Mixed radix 2/3/4/5 sizes, powers, primes (7..31), and prime-composite
/// mixes: everything the factorization chain can produce.
const std::size_t kSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                              15, 16, 17, 18, 20, 24, 25, 27, 29, 30, 31, 36, 40,
                              45, 48, 49, 60, 64, 72, 77, 90, 100, 120};

TEST(FftOracle, MatchesNaiveDftBothDirections) {
  for (const std::size_t n : kSizes) {
    FftPlan1D plan(n);
    for (std::uint64_t seed : {1ull, 2ull}) {
      const auto x = random_vec(n, 1000 * n + seed);
      for (int sign : {-1, +1}) {
        const auto got = plan_execute(plan, x, sign);
        const auto want = test::naive_dft(x, sign);
        // The naive reference itself carries O(n*eps) rounding; scale the
        // budget with n and stay far below any real defect (which shows up
        // at O(1)).
        EXPECT_LT(max_abs_diff(got, want), 1e-11 * static_cast<double>(n) + 1e-12)
            << "n=" << n << " sign=" << sign << " seed=" << seed;
      }
    }
  }
}

TEST(FftOracle, RoundTripIsIdentityTo1em12) {
  for (const std::size_t n : kSizes) {
    FftPlan1D plan(n);
    const auto x = random_vec(n, 31 * n + 5);
    auto fwd = plan_execute(plan, x, -1);
    auto back = plan_execute(plan, fwd, +1);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : back) v *= inv_n;
    EXPECT_LT(max_abs_diff(back, x), 1e-12 * static_cast<double>(n) + 1e-13) << "n=" << n;
  }
}

TEST(FftOracle, ParsevalHolds) {
  for (const std::size_t n : kSizes) {
    FftPlan1D plan(n);
    const auto x = random_vec(n, 7 * n + 3);
    const auto fx = plan_execute(plan, x, -1);
    double sx = 0.0, sf = 0.0;
    for (const auto& v : x) sx += std::norm(v);
    for (const auto& v : fx) sf += std::norm(v);
    EXPECT_NEAR(sf, static_cast<double>(n) * sx, 1e-11 * static_cast<double>(n) * sx)
        << "n=" << n;
  }
}

TEST(FftOracle, CircularShiftBecomesPhaseRamp) {
  // x'[m] = x[(m - s) mod n]  =>  X'[k] = X[k] * exp(-2*pi*i*k*s/n).
  for (const std::size_t n : {12ul, 30ul, 29ul, 60ul}) {
    FftPlan1D plan(n);
    const auto x = random_vec(n, 400 + n);
    const std::size_t s = n / 3 + 1;
    std::vector<Complex> xs(n);
    for (std::size_t m = 0; m < n; ++m) xs[(m + s) % n] = x[m];
    const auto fx = plan_execute(plan, x, -1);
    auto fxs = plan_execute(plan, xs, -1);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang = -constants::two_pi * static_cast<double>(k * s) / static_cast<double>(n);
      fxs[k] -= fx[k] * Complex{std::cos(ang), std::sin(ang)};
    }
    double m = 0.0;
    for (const auto& v : fxs) m = std::max(m, std::abs(v));
    EXPECT_LT(m, 1e-11 * static_cast<double>(n)) << "n=" << n;
  }
}

TEST(FftOracle, StridedInputMatchesContiguous) {
  for (const std::size_t n : {15ul, 16ul, 29ul}) {
    for (const std::size_t stride : {2ul, 3ul, 7ul}) {
      FftPlan1D plan(n);
      const auto x = random_vec(n, 17 * n + stride);
      std::vector<Complex> strided(n * stride, Complex{99.0, -99.0});
      for (std::size_t i = 0; i < n; ++i) strided[i * stride] = x[i];
      std::vector<Complex> out(n), work(n);
      plan.execute(strided.data(), stride, out.data(), work.data(), -1);
      const auto ref = plan_execute(plan, x, -1);
      // Identical serial kernel on identical values: bitwise equal.
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(out[k], ref[k]) << "n=" << n << " stride=" << stride << " k=" << k;
    }
  }
}

/// A line's bits never depend on its run: every line of an execute_lines
/// run is byte-equal to execute() of that line alone, for run lengths up to
/// Fft3D's 16, in a gapped-contiguous and an interleaved layout, out of
/// place and in place. Graph nodes (replay) and parallel_for grains (the
/// cache-full fallback) cut runs at different places, so the any-width
/// contract rests on this. Elements outside the lines stay untouched.
TEST(FftOracle, LineRunsMatchSingleLinesBitwise) {
  const Complex kFill{99.0, -99.0};
  for (const std::size_t n : kSizes) {
    FftPlan1D plan(n);
    for (const std::size_t count : {1ul, 2ul, 3ul, 16ul}) {
      std::vector<Complex> work(plan.workspace_size(count)), scratch(plan.workspace_size(count));
      // {stride, dist}: lines contiguous with a gap of 3 between them, and
      // lines interleaved element by element with 2 unused slots per row.
      for (const auto& [stride, dist] : {std::pair{1ul, n + 3}, std::pair{count + 2, 1ul}}) {
        const std::size_t span = (n - 1) * stride + (count - 1) * dist + 1;
        std::vector<char> on_line(span, 0);
        for (std::size_t v = 0; v < count; ++v)
          for (std::size_t m = 0; m < n; ++m) on_line[m * stride + v * dist] = 1;
        auto x = random_vec(span, 7000 * n + 100 * count + stride);
        for (std::size_t i = 0; i < span; ++i)
          if (!on_line[i]) x[i] = kFill;
        for (const int sign : {-1, +1}) {
          for (const bool in_place : {false, true}) {
            auto buf = x;
            std::vector<Complex> sep(span, kFill);
            Complex* out = in_place ? buf.data() : sep.data();
            plan.execute_lines(buf.data(), stride, dist, count, out, stride, dist, work.data(),
                               scratch.data(), sign);
            std::vector<Complex> got(n), ref(n), ref_work(n);
            for (std::size_t v = 0; v < count; ++v) {
              plan.execute(x.data() + v * dist, stride, ref.data(), ref_work.data(), sign);
              for (std::size_t k = 0; k < n; ++k) got[k] = out[k * stride + v * dist];
              ASSERT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(Complex)))
                  << "n=" << n << " count=" << count << " stride=" << stride
                  << " dist=" << dist << " sign=" << sign << " in_place=" << in_place
                  << " line=" << v;
            }
            for (std::size_t i = 0; i < span; ++i)
              if (!on_line[i]) ASSERT_EQ(out[i], kFill) << "n=" << n << " gap i=" << i;
          }
        }
      }
    }
  }
}

/// Naive separable 3-D reference: a naive 1-D DFT along each axis in turn,
/// sharing no code with FftPlan1D.
std::vector<Complex> naive_dft3(const std::vector<Complex>& x,
                                const std::array<std::size_t, 3>& d, int sign) {
  std::vector<Complex> a = x;
  const std::size_t n0 = d[0], n1 = d[1], n2 = d[2];
  auto line = [&](std::size_t base, std::size_t stride, std::size_t len) {
    std::vector<Complex> in(len);
    for (std::size_t i = 0; i < len; ++i) in[i] = a[base + i * stride];
    const auto out = test::naive_dft(in, sign);
    for (std::size_t i = 0; i < len; ++i) a[base + i * stride] = out[i];
  };
  for (std::size_t z = 0; z < n2; ++z)
    for (std::size_t y = 0; y < n1; ++y) line(n0 * (y + n1 * z), 1, n0);
  for (std::size_t z = 0; z < n2; ++z)
    for (std::size_t x1 = 0; x1 < n0; ++x1) line(x1 + n0 * n1 * z, n0, n1);
  for (std::size_t y = 0; y < n1; ++y)
    for (std::size_t x1 = 0; x1 < n0; ++x1) line(x1 + n0 * y, n0 * n1, n2);
  return a;
}

TEST(FftOracle, Fft3DMatchesNaiveSeparableReference) {
  for (const auto& dims : {std::array<std::size_t, 3>{4, 6, 5},
                           std::array<std::size_t, 3>{8, 9, 10},
                           std::array<std::size_t, 3>{7, 4, 3}}) {
    Fft3D fft(dims);
    const auto x = random_vec(fft.size(), 90 + dims[0]);
    auto got = x;
    fft.forward(got.data());
    const auto want = naive_dft3(x, dims, -1);
    const double n_total = static_cast<double>(fft.size());
    EXPECT_LT(max_abs_diff(got, want), 1e-11 * n_total)
        << dims[0] << "x" << dims[1] << "x" << dims[2];
  }
}

TEST(FftOracle, Fft3DRoundTripAndParseval) {
  Fft3D fft({12, 10, 9});
  const auto x = random_vec(fft.size(), 123);
  auto y = x;
  fft.forward(y.data());
  double sx = 0.0, sf = 0.0;
  for (const auto& v : x) sx += std::norm(v);
  for (const auto& v : y) sf += std::norm(v);
  const double n = static_cast<double>(fft.size());
  EXPECT_NEAR(sf, n * sx, 1e-11 * n * sx);
  fft.inverse_scaled(y.data());
  EXPECT_LT(max_abs_diff(y, x), 1e-12 * n);
}

/// Randomized sphere masks for the partial-pass transforms: the fused path
/// must be bit-identical to scatter + full FFT (inverse) and full FFT +
/// gather (forward) for ANY support set, not just physical spheres. The
/// 20x6x5 grid has n0 > 16, so axis-1 and axis-2 line runs hit the run
/// cap; the dense trial makes axis-1 runs end at z-planes and axis-0 and
/// axis-2 runs cross rows and planes.
TEST(MaskedPassOracle, FusedTransformsMatchFullTransformsOnRandomMasks) {
  for (const auto& dims : {std::array<std::size_t, 3>{10, 8, 6},
                           std::array<std::size_t, 3>{20, 6, 5}}) {
    const std::size_t nw = dims[0] * dims[1] * dims[2];
    Fft3D fft(dims);
    Rng rng(2024);
    for (int trial = 0; trial < 5; ++trial) {
      // Random support: ~25% of the grid, ~90% in trial 4; trial 3 is the
      // single-point edge.
      std::vector<std::size_t> map;
      if (trial == 3) {
        map.push_back(nw - 1);
      } else {
        const double density = trial == 4 ? 0.9 : 0.25;
        for (std::size_t i = 0; i < nw; ++i)
          if (rng.uniform() < density) map.push_back(i);
        if (map.empty()) map.push_back(0);
      }
      grid::SphereMap sm(map, dims);

      // inverse: scatter + fused masked inverse == scatter + full inverse.
      const auto coeffs = random_vec(map.size(), 555 + trial);
      std::vector<Complex> fused(nw), full(nw);
      grid::sphere_to_grid(fft, sm, coeffs, fused);
      grid::GSphere::scatter(coeffs, sm.map, full);
      fft.inverse(full.data());
      for (std::size_t i = 0; i < nw; ++i)
        ASSERT_EQ(fused[i], full[i]) << "dims[0]=" << dims[0] << " trial=" << trial
                                     << " i=" << i;

      // forward: fused masked forward + gather == full forward + gather.
      const auto grid_data = random_vec(nw, 777 + trial);
      auto scratch = grid_data;
      std::vector<Complex> got(map.size()), want(map.size());
      grid::grid_to_sphere(fft, sm, scratch, 1.0 / static_cast<double>(nw), got);
      auto work = grid_data;
      fft.forward(work.data());
      grid::GSphere::gather(work, sm.map, 1.0 / static_cast<double>(nw), want);
      for (std::size_t i = 0; i < map.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "dims[0]=" << dims[0] << " trial=" << trial
                                   << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace pwdft
