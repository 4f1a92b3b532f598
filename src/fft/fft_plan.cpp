#include "fft/fft_plan.hpp"

#include <cmath>

#include "common/check.hpp"

namespace pwdft::fft {

namespace {

bool is_prime(std::size_t n) {
  if (n < 2) return false;
  for (std::size_t d = 2; d * d <= n; ++d)
    if (n % d == 0) return false;
  return true;
}

/// Radix selection: prefer 4 (fewest passes among {2,3,4,5}), then 2, 3, 5,
/// then the smallest prime factor for exotic sizes.
std::size_t pick_radix(std::size_t n) {
  if (n % 4 == 0) return 4;
  if (n % 2 == 0) return 2;
  if (n % 3 == 0) return 3;
  if (n % 5 == 0) return 5;
  for (std::size_t d = 7; d * d <= n; d += 2)
    if (n % d == 0) return d;
  return n;  // prime
}

Complex unit_root(double num, double den) {
  // exp(-2*pi*i*num/den), the sign=-1 convention used by all tables.
  const double ang = -constants::two_pi * num / den;
  return {std::cos(ang), std::sin(ang)};
}

// ---- Run kernels ---------------------------------------------------------
//
// Every kernel below transforms a *run* of `count` lines at once. Internal
// buffers are element-major and line-minor (element k of line v sits at
// buf[k*count + v]), so each butterfly and combine loops over the run's
// lines with the element fixed. A line's arithmetic never touches another
// line: every output element is the same sequence of IEEE operations as a
// lone transform of its line, whatever the run length.
//
// The per-level twiddle multiply is fused into each combine: one sweep over
// the work buffer per level. The q = 0 twiddle row is exactly one and is
// skipped — multiplying by 1.0 is the identity. `s` is +1 for sign = -1 and
// -1 for sign = +1: the inverse conjugates the twiddles and the W_4 root.
//
// The combines read `work` and write `out` (element k of line v at
// out[k*ostride + v*odist]); the two never overlap.

/// Fused twiddle + radix-2 combine: b' = b * tw[n1+k], out[k] = a + b',
/// out[n1+k] = a - b'.
void radix2_run(const Complex* work, Complex* out, std::size_t ostride, std::size_t odist,
                const Complex* tw, std::size_t n1, std::size_t count, double s) {
  for (std::size_t k = 0; k < n1; ++k) {
    const double tr = tw[n1 + k].real(), ti = s * tw[n1 + k].imag();
    const double* a = reinterpret_cast<const double*>(work + k * count);
    const double* b = reinterpret_cast<const double*>(work + (n1 + k) * count);
    double* oa = reinterpret_cast<double*>(out + k * ostride);
    double* ob = reinterpret_cast<double*>(out + (n1 + k) * ostride);
    for (std::size_t v = 0; v < count; ++v) {
      const double ar = a[2 * v], ai = a[2 * v + 1];
      const double br = b[2 * v], bi = b[2 * v + 1];
      const double wr = br * tr - bi * ti;
      const double wi = br * ti + bi * tr;
      const std::size_t o = 2 * v * odist;
      oa[o] = ar + wr;
      oa[o + 1] = ai + wi;
      ob[o] = ar - wr;
      ob[o + 1] = ai - wi;
    }
  }
}

/// Fused twiddle + radix-4 combine with the W_4 = -i (sign=-1) / +i
/// (sign=+1) butterfly: b, c, d are twiddled on load, the +-i multiply is a
/// lane swap plus sign flip, done explicitly.
void radix4_run(const Complex* work, Complex* out, std::size_t ostride, std::size_t odist,
                const Complex* tw, std::size_t n1, std::size_t count, double s) {
  for (std::size_t k = 0; k < n1; ++k) {
    const double tbr = tw[n1 + k].real(), tbi = s * tw[n1 + k].imag();
    const double tcr = tw[2 * n1 + k].real(), tci = s * tw[2 * n1 + k].imag();
    const double tdr = tw[3 * n1 + k].real(), tdi = s * tw[3 * n1 + k].imag();
    const double* a = reinterpret_cast<const double*>(work + k * count);
    const double* b = reinterpret_cast<const double*>(work + (n1 + k) * count);
    const double* c = reinterpret_cast<const double*>(work + (2 * n1 + k) * count);
    const double* d = reinterpret_cast<const double*>(work + (3 * n1 + k) * count);
    double* o0 = reinterpret_cast<double*>(out + k * ostride);
    double* o1 = reinterpret_cast<double*>(out + (n1 + k) * ostride);
    double* o2 = reinterpret_cast<double*>(out + (2 * n1 + k) * ostride);
    double* o3 = reinterpret_cast<double*>(out + (3 * n1 + k) * ostride);
    for (std::size_t v = 0; v < count; ++v) {
      const double ar = a[2 * v], ai = a[2 * v + 1];
      const double b0r = b[2 * v], b0i = b[2 * v + 1];
      const double c0r = c[2 * v], c0i = c[2 * v + 1];
      const double d0r = d[2 * v], d0i = d[2 * v + 1];
      const double br = b0r * tbr - b0i * tbi, bi = b0r * tbi + b0i * tbr;
      const double cr = c0r * tcr - c0i * tci, ci = c0r * tci + c0i * tcr;
      const double dr = d0r * tdr - d0i * tdi, di = d0r * tdi + d0i * tdr;
      const double acp_r = ar + cr, acp_i = ai + ci;
      const double acm_r = ar - cr, acm_i = ai - ci;
      const double bdp_r = br + dr, bdp_i = bi + di;
      const double bdm_r = s * (bi - di), bdm_i = -s * (br - dr);
      const std::size_t o = 2 * v * odist;
      o0[o] = acp_r + bdp_r;
      o0[o + 1] = acp_i + bdp_i;
      o1[o] = acm_r + bdm_r;
      o1[o + 1] = acm_i + bdm_i;
      o2[o] = acp_r - bdp_r;
      o2[o + 1] = acp_i - bdp_i;
      o3[o] = acm_r - bdm_r;
      o3[o + 1] = acm_i - bdm_i;
    }
  }
}

/// Fused twiddle + generic radix-r combine (r = 3, 5, odd primes): each
/// w_q (q >= 1) is twiddled in place once, immediately before its
/// accumulation round. Accumulation runs in ascending q per output element.
void radixr_run(Complex* work, Complex* out, std::size_t ostride, std::size_t odist,
                const Complex* cb, const Complex* tw, std::size_t r, std::size_t n1,
                std::size_t count, double s) {
  for (std::size_t q = 0; q < r; ++q) {
    if (q > 0) {
      for (std::size_t k = 0; k < n1; ++k) {
        const double tr = tw[q * n1 + k].real(), ti = s * tw[q * n1 + k].imag();
        double* w = reinterpret_cast<double*>(work + (q * n1 + k) * count);
        for (std::size_t v = 0; v < count; ++v) {
          const double wr = w[2 * v], wi = w[2 * v + 1];
          w[2 * v] = wr * tr - wi * ti;
          w[2 * v + 1] = wr * ti + wi * tr;
        }
      }
    }
    for (std::size_t j = 0; j < r; ++j) {
      const Complex c = cb[j * r + q];
      const double cr = c.real(), ci = s * c.imag();
      for (std::size_t k = 0; k < n1; ++k) {
        const double* w = reinterpret_cast<const double*>(work + (q * n1 + k) * count);
        double* oj = reinterpret_cast<double*>(out + (j * n1 + k) * ostride);
        if (q == 0) {
          for (std::size_t v = 0; v < count; ++v) {
            const double wr = w[2 * v], wi = w[2 * v + 1];
            oj[2 * v * odist] = wr * cr - wi * ci;
            oj[2 * v * odist + 1] = wr * ci + wi * cr;
          }
        } else {
          for (std::size_t v = 0; v < count; ++v) {
            const double wr = w[2 * v], wi = w[2 * v + 1];
            oj[2 * v * odist] += wr * cr - wi * ci;
            oj[2 * v * odist + 1] += wr * ci + wi * cr;
          }
        }
      }
    }
  }
}

/// Exact butterfly leaves over a run: lengths 2 and 4 need no twiddle table
/// at all (roots are +-1, +-i), and 3 and 5 use exact constants, so the
/// bottom of every 5-smooth recursion walks no table. Each line's inputs are
/// loaded before any of its outputs is stored, so a leaf may run in place.
void leaf2_run(const Complex* in, std::size_t stride, std::size_t dist, std::size_t count,
               Complex* out, std::size_t ostride, std::size_t odist) {
  for (std::size_t v = 0; v < count; ++v) {
    const Complex* x = in + v * dist;
    Complex* y = out + v * odist;
    const Complex a = x[0], b = x[stride];
    y[0] = a + b;
    y[ostride] = a - b;
  }
}

void leaf4_run(const Complex* in, std::size_t stride, std::size_t dist, std::size_t count,
               Complex* out, std::size_t ostride, std::size_t odist, int sign) {
  for (std::size_t v = 0; v < count; ++v) {
    const Complex* x = in + v * dist;
    Complex* y = out + v * odist;
    const Complex a = x[0], b = x[stride], c = x[2 * stride], d = x[3 * stride];
    const Complex ac_p = a + c, ac_m = a - c;
    const Complex bd_p = b + d;
    const Complex bd = b - d;
    // -i*(b-d) for sign=-1, +i*(b-d) for sign=+1, as an exact lane swizzle.
    const Complex bd_m = (sign < 0) ? Complex{bd.imag(), -bd.real()}
                                    : Complex{-bd.imag(), bd.real()};
    y[0] = ac_p + bd_p;
    y[ostride] = ac_m + bd_m;
    y[2 * ostride] = ac_p - bd_p;
    y[3 * ostride] = ac_m - bd_m;
  }
}

/// Winograd-style length-3 DFT: 1 real multiply pair instead of 4 complex
/// table multiplies.
void leaf3_run(const Complex* in, std::size_t stride, std::size_t dist, std::size_t count,
               Complex* out, std::size_t ostride, std::size_t odist, int sign) {
  constexpr double kSin3 = 0.86602540378443864676;  // sin(2*pi/3)
  for (std::size_t v = 0; v < count; ++v) {
    const Complex* x = in + v * dist;
    Complex* y = out + v * odist;
    const Complex a = x[0], b = x[stride], c = x[2 * stride];
    const Complex bc_p = b + c, bc_m = b - c;
    const Complex t = a - 0.5 * bc_p;
    // -i*sin(2pi/3)*(b-c) for sign=-1, conjugated for +1.
    const Complex rot = (sign < 0) ? Complex{kSin3 * bc_m.imag(), -kSin3 * bc_m.real()}
                                   : Complex{-kSin3 * bc_m.imag(), kSin3 * bc_m.real()};
    y[0] = a + bc_p;
    y[ostride] = t + rot;
    y[2 * ostride] = t - rot;
  }
}

/// Winograd-style length-5 DFT: 4 real-scaled combinations instead of 16
/// complex table multiplies.
void leaf5_run(const Complex* in, std::size_t stride, std::size_t dist, std::size_t count,
               Complex* out, std::size_t ostride, std::size_t odist, int sign) {
  constexpr double kC1 = 0.30901699437494742410;   // cos(2*pi/5)
  constexpr double kC2 = -0.80901699437494742410;  // cos(4*pi/5)
  constexpr double kS1 = 0.95105651629515357212;   // sin(2*pi/5)
  constexpr double kS2 = 0.58778525229247312917;   // sin(4*pi/5)
  for (std::size_t v = 0; v < count; ++v) {
    const Complex* x = in + v * dist;
    Complex* y = out + v * odist;
    const Complex a = x[0], b = x[stride], c = x[2 * stride], d = x[3 * stride],
                  e = x[4 * stride];
    const Complex t1 = b + e, t2 = c + d, t3 = b - e, t4 = c - d;
    const Complex p1 = a + kC1 * t1 + kC2 * t2;
    const Complex p2 = a + kC2 * t1 + kC1 * t2;
    const Complex u1 = kS1 * t3 + kS2 * t4;
    const Complex u2 = kS2 * t3 - kS1 * t4;
    const Complex r1 = (sign < 0) ? Complex{u1.imag(), -u1.real()}
                                  : Complex{-u1.imag(), u1.real()};
    const Complex r2 = (sign < 0) ? Complex{u2.imag(), -u2.real()}
                                  : Complex{-u2.imag(), u2.real()};
    y[0] = a + t1 + t2;
    y[ostride] = p1 + r1;
    y[2 * ostride] = p2 + r2;
    y[3 * ostride] = p2 - r2;
    y[4 * ostride] = p1 - r1;
  }
}

/// Naive DFT leaf (prime n >= 7) into an element-major buffer:
/// buf[k*count + v] = sum_m in[m*stride + v*dist] * w^{(k*m) mod n}.
void naive_run(const Complex* in, std::size_t stride, std::size_t dist, std::size_t count,
               Complex* buf, const Complex* tw, std::size_t n, int sign) {
  for (std::size_t v = 0; v < count; ++v) {
    const Complex* x = in + v * dist;
    for (std::size_t k = 0; k < n; ++k) {
      Complex acc = x[0];
      std::size_t idx = 0;
      for (std::size_t m = 1; m < n; ++m) {
        idx += k;
        if (idx >= n) idx -= n;
        const Complex w = (sign < 0) ? tw[idx] : std::conj(tw[idx]);
        acc += x[m * stride] * w;
      }
      buf[k * count + v] = acc;
    }
  }
}

}  // namespace

bool FftPlan1D::fast_size(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t f : {2ul, 3ul, 5ul})
    while (n % f == 0) n /= f;
  return n == 1;
}

FftPlan1D::FftPlan1D(std::size_t n) : n_(n) {
  PWDFT_CHECK(n >= 1, "FFT length must be positive");
  std::size_t m = n;
  while (true) {
    Level lv;
    lv.n = m;
    if (m <= 5 || is_prime(m)) {
      lv.leaf = true;
      lv.r = m;
      lv.n1 = 1;
      lv.tw_off = tw_.size();
      if (m > 5)  // lengths <= 5 are exact butterflies and walk no table
        for (std::size_t j = 0; j < m; ++j) tw_.push_back(unit_root(double(j), double(m)));
      levels_.push_back(lv);
      break;
    }
    const std::size_t r = pick_radix(m);
    lv.r = r;
    lv.n1 = m / r;
    lv.tw_off = tw_.size();
    for (std::size_t q = 0; q < r; ++q)
      for (std::size_t k = 0; k < lv.n1; ++k)
        tw_.push_back(unit_root(double(q * k), double(m)));
    lv.cb_off = comb_.size();
    for (std::size_t j = 0; j < r; ++j)
      for (std::size_t q = 0; q < r; ++q)
        comb_.push_back(unit_root(double((j * q) % r), double(r)));
    levels_.push_back(lv);
    m = lv.n1;
  }
}

void FftPlan1D::execute(const Complex* in, std::size_t in_stride, Complex* out, Complex* work,
                        int sign) const {
  // A run of one line. `out` doubles as the children's scratch: they are
  // done with it before the top-level combine writes `out`.
  execute_lines(in, in_stride, 0, 1, out, 1, 0, work, out, sign);
}

void FftPlan1D::execute_lines(const Complex* in, std::size_t stride, std::size_t dist,
                              std::size_t count, Complex* out, std::size_t ostride,
                              std::size_t odist, Complex* work, Complex* scratch,
                              int sign) const {
  PWDFT_ASSERT(sign == 1 || sign == -1);
  run_level(0, in, stride, dist, count, out, ostride, odist, work, scratch, sign);
}

void FftPlan1D::run_level(std::size_t li, const Complex* in, std::size_t stride,
                          std::size_t dist, std::size_t count, Complex* out,
                          std::size_t ostride, std::size_t odist, Complex* work,
                          Complex* scratch, int sign) const {
  const Level& lv = levels_[li];
  const Complex* tw = tw_.data() + lv.tw_off;

  if (lv.leaf) {
    switch (lv.n) {
      case 1:
        for (std::size_t v = 0; v < count; ++v) out[v * odist] = in[v * dist];
        return;
      case 2:
        leaf2_run(in, stride, dist, count, out, ostride, odist);
        return;
      case 3:
        leaf3_run(in, stride, dist, count, out, ostride, odist, sign);
        return;
      case 4:
        leaf4_run(in, stride, dist, count, out, ostride, odist, sign);
        return;
      case 5:
        leaf5_run(in, stride, dist, count, out, ostride, odist, sign);
        return;
    }
    // Every output of the naive sum reads every input, so the sums go to
    // scratch first: `out` may be the input (an in-place run).
    naive_run(in, stride, dist, count, scratch, tw, lv.n, sign);
    for (std::size_t k = 0; k < lv.n; ++k)
      for (std::size_t v = 0; v < count; ++v)
        out[k * ostride + v * odist] = scratch[k * count + v];
    return;
  }

  const std::size_t r = lv.r;
  const std::size_t n1 = lv.n1;

  // Decimation in time: child q transforms the subsequences in[q::r] of
  // the run into work[q*n1*count ..), element-major, using
  // scratch[q*n1*count ..) as its own work. Its output block is also its
  // scratch: a child's children are done with it before the child's
  // combine writes it. All input is read before the combine below writes
  // `out`, so the run may be transformed in place.
  for (std::size_t q = 0; q < r; ++q) {
    Complex* child_out = work + q * n1 * count;
    run_level(li + 1, in + q * stride, stride * r, dist, count, child_out, count, 1,
              scratch + q * n1 * count, child_out, sign);
  }

  // The twiddle multiply (w_hat[q*n1+k] = work[q*n1+k] * W_n^{qk}) is fused
  // into the combine out[j*n1+k] = sum_q w_hat[q*n1+k] * W_r^{jq}.
  const double s = (sign < 0) ? 1.0 : -1.0;
  if (r == 2) {
    radix2_run(work, out, ostride, odist, tw, n1, count, s);
  } else if (r == 4) {
    radix4_run(work, out, ostride, odist, tw, n1, count, s);
  } else {
    radixr_run(work, out, ostride, odist, comb_.data() + lv.cb_off, tw, r, n1, count, s);
  }
}

}  // namespace pwdft::fft
