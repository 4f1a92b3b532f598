#include "fft/fft_plan.hpp"

#include <cmath>

#include "common/check.hpp"

// Vectorization hint for the combine kernels below. The loops are written so
// that plain -O2/-O3 auto-vectorization already applies (contiguous double
// lanes, no aliasing through distinct restrict-qualified pointers); the
// pragma additionally licenses the reassociation-free lane split when the
// compiler honors it (-fopenmp-simd, set in CMakeLists for GCC/Clang).
#if defined(__GNUC__) || defined(__clang__)
#define PWDFT_SIMD_LOOP _Pragma("omp simd")
#else
#define PWDFT_SIMD_LOOP
#endif

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

// ---- Combine kernels ----------------------------------------------------
//
// Each Complex is viewed as two adjacent doubles (guaranteed layout of
// std::complex<double>), so the vectorizer can pack the real/imaginary
// operations of the combine loops.
//
// The per-level twiddle multiply is fused into each combine: one sweep over
// the work buffer per level. The q = 0 twiddle row is exactly one and is
// skipped — multiplying by 1.0 is the identity.

/// Fused twiddle + radix-2 combine: b' = w[n1+k] * tw[n1+k] (conj_tw:
/// conjugated), out[k] = a + b', out[n1+k] = a - b'.
void radix2_combine_tw(const Complex* work_c, Complex* out_c, const Complex* tw_c,
                       std::size_t n1, bool conj_tw) {
  const double* __restrict__ w = reinterpret_cast<const double*>(work_c);
  double* __restrict__ o = reinterpret_cast<double*>(out_c);
  const double* __restrict__ tw = reinterpret_cast<const double*>(tw_c);
  const double s = conj_tw ? -1.0 : 1.0;
  const std::size_t m = 2 * n1;
  PWDFT_SIMD_LOOP
  for (std::size_t k = 0; k < n1; ++k) {
    const double ar = w[2 * k], ai = w[2 * k + 1];
    const double br = w[m + 2 * k], bi = w[m + 2 * k + 1];
    const double tr = tw[m + 2 * k], ti = s * tw[m + 2 * k + 1];
    const double wr = br * tr - bi * ti;
    const double wi = br * ti + bi * tr;
    o[2 * k] = ar + wr;
    o[2 * k + 1] = ai + wi;
    o[m + 2 * k] = ar - wr;
    o[m + 2 * k + 1] = ai - wi;
  }
}

/// Fused twiddle + radix-4 combine with the W_4 = -i (sign=-1) / +i
/// (sign=+1) butterfly: b, c, d are twiddled on load, the +-i multiply is a
/// lane swap plus sign flip, done explicitly.
void radix4_combine_tw(const Complex* work_c, Complex* out_c, const Complex* tw_c,
                       std::size_t n1, int sign) {
  const double* __restrict__ w = reinterpret_cast<const double*>(work_c);
  double* __restrict__ o = reinterpret_cast<double*>(out_c);
  const double* __restrict__ tw = reinterpret_cast<const double*>(tw_c);
  // mi*(b-d) with mi = -i (forward): re = im(b-d), im = -re(b-d); s = +1.
  // mi = +i (inverse): re = -im(b-d), im = re(b-d); s = -1. The inverse
  // transform also conjugates the twiddles: same flag.
  const double s = (sign < 0) ? 1.0 : -1.0;
  const std::size_t m = 2 * n1;
  PWDFT_SIMD_LOOP
  for (std::size_t k = 0; k < n1; ++k) {
    const double ar = w[2 * k], ai = w[2 * k + 1];
    const double b0r = w[m + 2 * k], b0i = w[m + 2 * k + 1];
    const double c0r = w[2 * m + 2 * k], c0i = w[2 * m + 2 * k + 1];
    const double d0r = w[3 * m + 2 * k], d0i = w[3 * m + 2 * k + 1];
    const double tbr = tw[m + 2 * k], tbi = s * tw[m + 2 * k + 1];
    const double tcr = tw[2 * m + 2 * k], tci = s * tw[2 * m + 2 * k + 1];
    const double tdr = tw[3 * m + 2 * k], tdi = s * tw[3 * m + 2 * k + 1];
    const double br = b0r * tbr - b0i * tbi, bi = b0r * tbi + b0i * tbr;
    const double cr = c0r * tcr - c0i * tci, ci = c0r * tci + c0i * tcr;
    const double dr = d0r * tdr - d0i * tdi, di = d0r * tdi + d0i * tdr;
    const double acp_r = ar + cr, acp_i = ai + ci;
    const double acm_r = ar - cr, acm_i = ai - ci;
    const double bdp_r = br + dr, bdp_i = bi + di;
    const double bdm_r = s * (bi - di), bdm_i = -s * (br - dr);
    o[2 * k] = acp_r + bdp_r;
    o[2 * k + 1] = acp_i + bdp_i;
    o[m + 2 * k] = acm_r + bdm_r;
    o[m + 2 * k + 1] = acm_i + bdm_i;
    o[2 * m + 2 * k] = acp_r - bdp_r;
    o[2 * m + 2 * k + 1] = acp_i - bdp_i;
    o[3 * m + 2 * k] = acm_r - bdm_r;
    o[3 * m + 2 * k + 1] = acm_i - bdm_i;
  }
}

/// Fused twiddle + generic radix-r combine (r = 3, 5, odd primes): each
/// w_q (q >= 1) is twiddled in place once, immediately before its
/// accumulation round. Accumulation runs in ascending q per output element.
void generic_combine_tw(Complex* work_c, Complex* out_c, const Complex* cb,
                        const Complex* tw_c, std::size_t r, std::size_t n1, bool conj_tw) {
  double* __restrict__ w = reinterpret_cast<double*>(work_c);
  double* __restrict__ o = reinterpret_cast<double*>(out_c);
  const double* __restrict__ tw = reinterpret_cast<const double*>(tw_c);
  const double s = conj_tw ? -1.0 : 1.0;
  for (std::size_t q = 0; q < r; ++q) {
    double* wq = w + 2 * q * n1;
    if (q > 0) {
      const double* twq = tw + 2 * q * n1;
      PWDFT_SIMD_LOOP
      for (std::size_t k = 0; k < n1; ++k) {
        const double wr = wq[2 * k], wi = wq[2 * k + 1];
        const double tr = twq[2 * k], ti = s * twq[2 * k + 1];
        wq[2 * k] = wr * tr - wi * ti;
        wq[2 * k + 1] = wr * ti + wi * tr;
      }
    }
    for (std::size_t j = 0; j < r; ++j) {
      double* oj = o + 2 * j * n1;
      const Complex c = cb[j * r + q];
      const double cr = c.real(), ci = s * c.imag();
      if (q == 0) {
        PWDFT_SIMD_LOOP
        for (std::size_t k = 0; k < n1; ++k) {
          const double wr = wq[2 * k], wi = wq[2 * k + 1];
          oj[2 * k] = wr * cr - wi * ci;
          oj[2 * k + 1] = wr * ci + wi * cr;
        }
      } else {
        PWDFT_SIMD_LOOP
        for (std::size_t k = 0; k < n1; ++k) {
          const double wr = wq[2 * k], wi = wq[2 * k + 1];
          oj[2 * k] += wr * cr - wi * ci;
          oj[2 * k + 1] += wr * ci + wi * cr;
        }
      }
    }
  }
}

/// Exact butterfly leaves: lengths 2 and 4 need no twiddle table at all
/// (roots are +-1, +-i), and 3 and 5 use exact constants, so the bottom of
/// every 5-smooth recursion walks no table.
inline void leaf2_butterfly(const Complex* in, std::size_t stride, Complex* out) {
  const Complex a = in[0], b = in[stride];
  out[0] = a + b;
  out[1] = a - b;
}

inline void leaf4_butterfly(const Complex* in, std::size_t stride, Complex* out, int sign) {
  const Complex a = in[0], b = in[stride], c = in[2 * stride], d = in[3 * stride];
  const Complex ac_p = a + c, ac_m = a - c;
  const Complex bd_p = b + d;
  const Complex bd = b - d;
  // -i*(b-d) for sign=-1, +i*(b-d) for sign=+1, as an exact lane swizzle.
  const Complex bd_m = (sign < 0) ? Complex{bd.imag(), -bd.real()}
                                  : Complex{-bd.imag(), bd.real()};
  out[0] = ac_p + bd_p;
  out[1] = ac_m + bd_m;
  out[2] = ac_p - bd_p;
  out[3] = ac_m - bd_m;
}

/// Winograd-style length-3 DFT: 1 real multiply pair instead of 4 complex
/// table multiplies.
inline void leaf3_butterfly(const Complex* in, std::size_t stride, Complex* out, int sign) {
  constexpr double kSin3 = 0.86602540378443864676;  // sin(2*pi/3)
  const Complex a = in[0], b = in[stride], c = in[2 * stride];
  const Complex bc_p = b + c, bc_m = b - c;
  const Complex t = a - 0.5 * bc_p;
  // -i*sin(2pi/3)*(b-c) for sign=-1, conjugated for +1.
  const Complex rot = (sign < 0) ? Complex{kSin3 * bc_m.imag(), -kSin3 * bc_m.real()}
                                 : Complex{-kSin3 * bc_m.imag(), kSin3 * bc_m.real()};
  out[0] = a + bc_p;
  out[1] = t + rot;
  out[2] = t - rot;
}

/// Winograd-style length-5 DFT: 4 real-scaled combinations instead of 16
/// complex table multiplies.
inline void leaf5_butterfly(const Complex* in, std::size_t stride, Complex* out, int sign) {
  constexpr double kC1 = 0.30901699437494742410;   // cos(2*pi/5)
  constexpr double kC2 = -0.80901699437494742410;  // cos(4*pi/5)
  constexpr double kS1 = 0.95105651629515357212;   // sin(2*pi/5)
  constexpr double kS2 = 0.58778525229247312917;   // sin(4*pi/5)
  const Complex a = in[0], b = in[stride], c = in[2 * stride], d = in[3 * stride],
                e = in[4 * stride];
  const Complex t1 = b + e, t2 = c + d, t3 = b - e, t4 = c - d;
  const Complex p1 = a + kC1 * t1 + kC2 * t2;
  const Complex p2 = a + kC2 * t1 + kC1 * t2;
  const Complex u1 = kS1 * t3 + kS2 * t4;
  const Complex u2 = kS2 * t3 - kS1 * t4;
  const Complex r1 = (sign < 0) ? Complex{u1.imag(), -u1.real()}
                                : Complex{-u1.imag(), u1.real()};
  const Complex r2 = (sign < 0) ? Complex{u2.imag(), -u2.real()}
                                : Complex{-u2.imag(), u2.real()};
  out[0] = a + t1 + t2;
  out[1] = p1 + r1;
  out[2] = p2 + r2;
  out[3] = p2 - r2;
  out[4] = p1 - r1;
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
  PWDFT_ASSERT(sign == 1 || sign == -1);
  exec_level(0, in, in_stride, out, work, sign);
}

void FftPlan1D::exec_level(std::size_t li, const Complex* in, std::size_t stride, Complex* out,
                           Complex* work, int sign) const {
  const Level& lv = levels_[li];
  const Complex* tw = tw_.data() + lv.tw_off;

  if (lv.leaf) {
    const std::size_t n = lv.n;
    switch (n) {
      case 1:
        out[0] = in[0];
        return;
      case 2:
        leaf2_butterfly(in, stride, out);
        return;
      case 3:
        leaf3_butterfly(in, stride, out, sign);
        return;
      case 4:
        leaf4_butterfly(in, stride, out, sign);
        return;
      case 5:
        leaf5_butterfly(in, stride, out, sign);
        return;
    }
    // Naive DFT (prime n >= 7): out[k] = sum_m in[m*stride] * w^{(k*m) mod n}.
    for (std::size_t k = 0; k < n; ++k) {
      Complex acc = in[0];
      std::size_t idx = 0;
      for (std::size_t m2 = 1; m2 < n; ++m2) {
        idx += k;
        if (idx >= n) idx -= n;
        const Complex w = (sign < 0) ? tw[idx] : std::conj(tw[idx]);
        acc += in[m2 * stride] * w;
      }
      out[k] = acc;
    }
    return;
  }

  const std::size_t r = lv.r;
  const std::size_t n1 = lv.n1;

  // Decimation in time: child q transforms the subsequence in[q::r].
  // Child results land in work[q*n1 .. ), using out[q*n1 ..) as scratch.
  for (std::size_t q = 0; q < r; ++q)
    exec_level(li + 1, in + q * stride, stride * r, work + q * n1, out + q * n1, sign);

  // The twiddle multiply (w_hat[q*n1+k] = work[q*n1+k] * W_n^{qk}) is fused
  // into the combine out[j*n1+k] = sum_q w_hat[q*n1+k] * W_r^{jq}.
  if (r == 2) {
    radix2_combine_tw(work, out, tw, n1, sign > 0);
  } else if (r == 4) {
    radix4_combine_tw(work, out, tw, n1, sign);
  } else {
    generic_combine_tw(work, out, comb_.data() + lv.cb_off, tw, r, n1, sign > 0);
  }
}

}  // namespace pwdft::fft
