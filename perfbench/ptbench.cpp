// ptbench — the program behind the end-to-end PT-CN benchmark.
//
//   ptbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --raw <raw.json> [--spans <trace.json>] [--workdir <dir>]
//
// Runs one workload through the library's public APIs and writes the raw
// measurements (per-step samples, per-job samples, counters, correctness
// checks) to --raw. perfbench/run.py turns them into the reported metrics;
// README.md in this directory documents both. With --trace 1 the spans the
// program records around its own calls into each layer are written to
// --spans as Chrome trace-event JSON.

#include <malloc.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/exec.hpp"
#include "common/timer.hpp"
#include "core/simulation.hpp"
#include "ham/density.hpp"
#include "ham/energy.hpp"
#include "io/checkpoint.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_comm.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "td/observables.hpp"
#include "td/ptcn.hpp"

namespace {

using namespace pwdft;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants (README.md, "Workloads"). Shared by all three: Si8 with
// 16 bands, dense factor 1, dt = 50 as, PT-CN density tolerance 1e-6.

constexpr double kDtAs = 50.0;
constexpr double kRhoTol = 1e-6;
constexpr double kEcut = 6.0;
constexpr double kEcutSecond = 5.0;   // the minority cutoff of serve-mixed-priority
constexpr int kSetupReps = 3;         // setup_s is the median of these
constexpr int kSegmentSteps = 100;    // p90 needs >= 10 samples beyond it
constexpr int kServeClients = 3;
constexpr int kServeSteps = 18;       // propagation steps per served job
constexpr int kServeBlock = 6;        // served jobs per block (see run_serve)
static_assert(kServeBlock * (kServeSteps - 1) >= kSegmentSteps,
              "a block of served jobs streams the step intervals p90 needs");
constexpr int kIoProbeReps = 7;
constexpr double kGuardSeconds = 150.0;  // abandon the measured loop past this

const Clock::time_point g_origin = Clock::now();
double now_s() { return std::chrono::duration<double>(Clock::now() - g_origin).count(); }

/// CPU seconds (user + system) of every thread of this process so far. A
/// thread asleep in a barrier or a condition wait accrues none, and a
/// kernel with paravirtual steal accounting keeps the time the hypervisor
/// gives to other guests out of it.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Ground-state SCF settings of every workload (converged hybrid ground state
// at a cost that lets setup_s be repeated inside one run).
scf::ScfOptions scf_options() {
  scf::ScfOptions o;
  o.tol_rho = 1e-6;
  o.hybrid_outer_tol = 1e-5;
  o.lobpcg.max_iter = 3;
  return o;
}

core::SimulationOptions sim_options(double ecut, bool ace, std::uint64_t seed) {
  core::SimulationOptions o;
  o.ecut = ecut;
  o.dense_factor = 1;
  o.hybrid = true;
  o.use_ace = ace;
  o.scf = scf_options();
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (numbers with full precision; non-finite -> null).

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view k) {
    sep();
    string(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    sep();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    sep();
    string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  template <class T>
  JsonWriter& array(std::string_view k, const std::vector<T>& v) {
    key(k).begin_array();
    for (const T& x : v) value(x);
    return end_array();
  }
  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    sep();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Spans: one per call ptbench makes into a layer. Kept in memory, written
// at exit as Chrome trace-event JSON. `group` is shared by all spans of one
// step or one job; `nominal` marks phase children whose duration is a
// TimerRegistry total and whose placement inside the step is nominal.
// Spans are built from timestamps after the measured loop, so tracing adds
// no work inside it; the log charges itself the time it does take (building
// and writing the spans), which is all that tracing adds to a run.

struct Span {
  std::string name;
  double t0 = 0.0, t1 = 0.0;
  long id = 0;
  long parent = -1;
  long group = -1;
  int tid = 0;
  bool nominal = false;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Seconds spent building and writing spans.
  double cost_s() const { return cost_s_; }
  void charge(double seconds) { cost_s_ += seconds; }
  /// Records a span and returns its id (-1 when tracing is off).
  long add(std::string name, double t0, double t1, long parent, long group, int tid,
           bool nominal = false) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const long id = static_cast<long>(spans_.size());
    spans_.push_back({std::move(name), t0, t1, id, parent, group, tid, nominal});
    return id;
  }
  void write_chrome(const std::string& path) {
    const double t0 = now_s();
    JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (const Span& s : spans_) {
      w.begin_object()
          .field("name", s.name)
          .field("ph", "X")
          .field("ts", s.t0 * 1e6)
          .field("dur", (s.t1 - s.t0) * 1e6)
          .field("pid", 1)
          .field("tid", s.tid);
      w.key("args")
          .begin_object()
          .field("id", static_cast<std::int64_t>(s.id))
          .field("parent", static_cast<std::int64_t>(s.parent))
          .field("group", static_cast<std::int64_t>(s.group))
          .field("nominal", s.nominal)
          .end_object();
      w.end_object();
    }
    w.end_array().field("displayTimeUnit", "ms").end_object();
    std::ofstream f(path);
    f << w.str() << "\n";
    f.close();
    PWDFT_CHECK(f.good(), "ptbench: cannot write " << path);
    charge(now_s() - t0);
  }

 private:
  bool enabled_;
  double cost_s_ = 0.0;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Host facts printed with every run (never used to normalize).

double calibrate_host() {
  // Fixed dependent floating-point recurrence: the same work on every host.
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    double x = 0.5, y = 0.25;
    for (int i = 0; i < 20000000; ++i) {
      x = x * 0.999999 + y * 1e-6;
      y = y * 0.999999 + x * 1e-6;
    }
    sink = sink + x + y;
    samples.push_back(now_s() - t0);
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

long read_status_kb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(f, line))
    if (line.compare(0, n, field) == 0) return std::atol(line.c_str() + n + 1);
  return -1;
}

/// Cumulative {all, steal} CPU time of the machine (every CPU), in clock
/// ticks, from the first line of /proc/stat. Steal is time the hypervisor
/// gave this machine's CPUs to someone else while they had work.
std::array<double, 2> read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  double all = 0.0, steal = 0.0, v = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is in user)
  for (int i = 0; i < 8 && f >> v; ++i) {
    all += v;
    if (i == 7) steal = v;
  }
  return {all, steal};
}

struct Check {
  std::string name;
  bool ok = false;
  double value = 0.0;
  double tol = 0.0;
};

void write_checks(JsonWriter& w, const std::vector<Check>& checks) {
  w.key("checks").begin_array();
  for (const Check& c : checks)
    w.begin_object()
        .field("name", c.name)
        .field("ok", c.ok)
        .field("value", c.value)
        .field("tol", c.tol)
        .end_object();
  w.end_array();
}

/// Max-entry distance of Psi^H Psi from the identity. The tolerance is the
/// rounding bound of the state PT-CN returns: Cholesky re-orthonormalizes
/// in double, then the G -> band transpose rounds every coefficient to the
/// payload precision u_p (single precision with sp_comm). Rounding each
/// element by a relative u_p moves each Gram entry of unit vectors by at
/// most 2 u_p + u_p^2 (Cauchy-Schwarz). Two double Gram sums over n_g
/// terms (PT-CN's and this check's) and the Cholesky solve over n_b
/// columns add 2 (n_g + n_b) u_d.
Check orthonormality_check(const CMatrix& psi, bool sp_comm) {
  const CMatrix s = linalg::overlap(psi, psi);
  double err = 0.0;
  for (std::size_t j = 0; j < s.cols(); ++j)
    for (std::size_t i = 0; i < s.rows(); ++i)
      err = std::max(err, std::abs(s(i, j) - Complex(i == j ? 1.0 : 0.0, 0.0)));
  const double u_d = std::ldexp(1.0, -53);
  const double u_p = sp_comm ? std::ldexp(1.0, -24) : u_d;
  const double tol = 2.0 * u_p + u_p * u_p +
                     2.0 * static_cast<double>(psi.rows() + psi.cols()) * u_d;
  return {"orthonormality", err <= tol, err, tol};
}

// ---------------------------------------------------------------------------
// PT-CN workloads (ptcn-direct-2rank, ptcn-acemts-serial).

struct TdConfig {
  int ranks = 1;
  int width = 1;
  bool ace = false;
  int mts_interval = 0;
  bool laser = false;        // false: delta kick
  bool record_energy = false;  // true: energy observable (+ conservation check)
};

constexpr std::array<par::CommOp, 3> kOps = {par::CommOp::kBcast, par::CommOp::kAlltoallv,
                                            par::CommOp::kAllreduce};

/// One rank's record of one PT-CN step.
struct StepRec {
  double t0 = 0.0;  ///< start, seconds since process origin
  double wall = 0.0;
  double obs = 0.0;  ///< observables after the step
  bool converged = false;
  bool refreshed = false;
  int scf_iters = 0;
  int fock_applies = 0;
  std::map<std::string, double> phases;
  std::array<par::OpStats, 3> comm{};
  std::uint64_t pair_solves = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t ace_builds = 0;
  int segment = 0;
  double observable = 0.0;  ///< total energy or excited electrons after the step
};

struct SetupRec {
  double construct = 0.0, scf = 0.0, scatter = 0.0, total = 0.0, first_step = 0.0;
  int scf_iterations = 0, scf_outer = 0;
  bool scf_converged = false;
  double scf_energy = 0.0;
  bool first_step_converged = false;
};

CMatrix band_slice(const CMatrix& psi, const par::BlockPartition& bands, int rank) {
  CMatrix out(psi.rows(), bands.count(rank));
  for (std::size_t j = 0; j < out.cols(); ++j)
    std::copy(psi.col(bands.offset(rank) + j), psi.col(bands.offset(rank) + j) + psi.rows(),
              out.col(j));
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string raw;
  std::string spans;
  std::string workdir = ".";
};

void run_td(const Args& args, const TdConfig& cfg, SpanLog& log, JsonWriter& w,
            std::vector<Check>& checks, std::size_t* attempted, std::size_t* failed) {
  exec::set_num_threads(static_cast<std::size_t>(cfg.width));
  const core::SimulationOptions so = sim_options(kEcut, cfg.ace, args.seed);
  td::PtCnOptions po;
  po.dt = constants::attoseconds_to_au(kDtAs);
  po.rho_tol = kRhoTol;
  po.mts_interval = cfg.mts_interval;
  const double dt = po.dt;
  const td::DeltaKick kick(serve::FieldSpec{}.kick);
  const td::LaserPulse pulse = td::LaserPulse::paper_pulse();
  const td::ExternalField& field =
      cfg.laser ? static_cast<const td::ExternalField&>(pulse) : kick;

  std::vector<SetupRec> setups(kSetupReps);
  std::vector<std::vector<StepRec>> rank_steps(cfg.ranks);
  std::vector<CMatrix> final_psi(cfg.ranks);
  double v_hxc_max = 0.0;
  std::uint64_t range0 = 0, graph0 = 0, range1 = 0, graph1 = 0;
  double measure_t0 = 0.0, measure_t1 = 0.0, measure_cpu0 = 0.0, measure_cpu1 = 0.0;
  double n_electrons = 0.0;

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    SetupRec& rec = setups[rep];
    const long group = -1000 - rep;
    const double t0 = now_s();
    core::Simulation sim(so);
    const double t1 = now_s();
    const scf::ScfResult gs = sim.ground_state();
    const double t2 = now_s();
    rec.construct = t1 - t0;
    rec.scf = t2 - t1;
    rec.scf_iterations = gs.scf_iterations;
    rec.scf_outer = gs.outer_iterations;
    rec.scf_converged = gs.converged;
    rec.scf_energy = gs.energy.total();
    const long setup_span = log.add("setup", t0, t2, -1, group, 0);
    log.add("core.construct", t0, t1, setup_span, group, 0);
    log.add("scf.solve", t1, t2, setup_span, group, 0);

    const std::size_t nb = sim.setup().n_bands();
    const std::vector<double>& occ = sim.occupations();
    n_electrons = 0.0;
    for (double f : occ) n_electrons += f;

    auto body = [&](par::Comm& c) {
      const int me = c.rank();
      // Rank scatter: every rank owns its Hamiltonian (its own Fock state
      // and band slice), as every MPI rank of PWDFT does; a single rank
      // keeps the Simulation's.
      std::unique_ptr<ham::Hamiltonian> own;
      ham::Hamiltonian* hp = &sim.hamiltonian();
      const pseudo::PseudoSpecies species = pseudo::PseudoSpecies::silicon(true);
      if (c.size() > 1) {
        own = std::make_unique<ham::Hamiltonian>(sim.setup(), species,
                                                 sim.hamiltonian().options());
        hp = own.get();
      }
      ham::Hamiltonian& h = *hp;
      const par::BlockPartition bands(nb, c.size());
      const CMatrix psi_gs = band_slice(sim.wavefunctions(), bands, me);
      const std::span<const double> occ_loc(occ.data() + bands.offset(me), bands.count(me));
      c.barrier();
      const double ts1 = now_s();
      if (me == 0) {
        rec.scatter = ts1 - t2;
        rec.total = ts1 - t0;
      }
      log.add("scatter", t2, ts1, setup_span, group, me);

      TimerRegistry timers;
      {
        // First step from the fresh ground state: first_step_p50_s.
        CMatrix psi = psi_gs;
        td::PtCnPropagator prop(h, bands, po, c.size());
        const td::PtCnStepReport r1 = prop.step(psi, occ, 0.0, field, c, &timers);
        c.barrier();
        const double tf = now_s();
        // The SCF stop rule reads the replicated density, so every rank
        // reports the same convergence; rank 0's flag stands for all.
        if (me == 0) {
          rec.first_step = tf - t0;
          rec.first_step_converged = r1.converged;
        }
        log.add("td.first_step", ts1, tf, setup_span, group, me);
      }
      if (!last) return;

      if (me == 0) {
        for (std::size_t i = 0; i < h.v_hartree().size(); ++i)
          v_hxc_max = std::max(v_hxc_max, std::abs(h.v_hartree()[i] + h.v_xc()[i]));
      }

      // Measured phase: whole segments of one fixed trajectory (kSegmentSteps
      // steps from the ground state at t = 0, fresh propagator each time)
      // until --seconds have passed. Every run therefore measures the same
      // step mix whatever the host speed, and the exact counts of one
      // segment repeat in every other.
      CMatrix psi;
      // Observables after each step: the current, plus the total energy
      // (one more Fock apply, the paper's per-step energy evaluation) or
      // the excited-electron count (no energy under MTS: an energy
      // evaluation would force an exchange re-pin every step).
      auto observe = [&](double t) {
        const grid::Vec3 a = field.vector_potential(t);
        h.set_vector_potential(a);
        volatile double sink = td::compute_current(sim.setup(), psi, occ_loc, a, c)[2];
        (void)sink;
        if (!cfg.record_energy) return td::excited_electrons(sim.setup(), bands, psi_gs, psi, occ, c);
        auto rho = ham::compute_density(sim.setup(), h.fft_dense(), psi, occ_loc, c, true,
                                        h.options().op_pipeline);
        h.update_density(rho);
        h.set_exchange_orbitals(psi, occ, bands, c);
        return ham::compute_energy(h, psi, occ_loc, rho, c).total();
      };
      std::vector<StepRec>& steps = rank_steps[me];
      steps.reserve(4 * kSegmentSteps);
      c.barrier();
      if (me == 0) {
        measure_t0 = now_s();
        measure_cpu0 = process_cpu_s();
        range0 = exec::pool().range_jobs();
        graph0 = exec::pool().graph_jobs();
      }
      for (int seg = 0;; ++seg) {
        psi = psi_gs;
        td::PtCnPropagator prop(h, bands, po, c.size());
        double t = 0.0;
        for (int k = 1; k <= kSegmentSteps; ++k) {
          StepRec s;
          s.segment = seg;
          const par::CommStats before = c.stats();
          const std::uint64_t ps0 = h.fock().pair_solves(), bc0 = h.fock().broadcasts();
          const std::uint64_t ab0 = h.ace().builds();
          timers.clear();
          s.t0 = now_s();
          const td::PtCnStepReport rk = prop.step(psi, occ, t, field, c, &timers);
          const double te = now_s();
          s.wall = te - s.t0;
          for (std::size_t o = 0; o < kOps.size(); ++o) {
            const par::OpStats& a = c.stats().get(kOps[o]);
            const par::OpStats& b = before.get(kOps[o]);
            s.comm[o] = {a.calls - b.calls, a.bytes - b.bytes, a.seconds - b.seconds};
          }
          s.pair_solves = h.fock().pair_solves() - ps0;
          s.broadcasts = h.fock().broadcasts() - bc0;
          s.ace_builds = h.ace().builds() - ab0;
          s.converged = rk.converged;
          s.refreshed = rk.exchange_refreshed;
          s.scf_iters = rk.scf_iterations;
          s.fock_applies = rk.fock_applies;
          s.phases = timers.all();
          t += dt;
          s.observable = observe(t);
          s.obs = now_s() - te;
          steps.push_back(std::move(s));
        }
        // Rank 0 decides at the segment boundary; the decision is broadcast
        // so every rank leaves after the same segment.
        std::uint8_t go = 1;
        if (me == 0) {
          const bool enough = now_s() - measure_t0 >= args.seconds;
          go = (enough || now_s() > kGuardSeconds) ? 0 : 1;
        }
        if (c.size() > 1) c.bcast(&go, 1, 0);
        if (!go) break;
      }
      c.barrier();
      if (me == 0) {
        measure_t1 = now_s();
        measure_cpu1 = process_cpu_s();
        range1 = exec::pool().range_jobs();
        graph1 = exec::pool().graph_jobs();
      }
      final_psi[me] = std::move(psi);
    };
    if (cfg.ranks > 1) {
      par::ThreadGroup::run(cfg.ranks, body);
    } else {
      par::SerialComm serial;
      body(serial);
    }
    std::fprintf(stderr, "ptbench: setup %d: construct %.3f s, scf %.3f s (%d+%d it), "
                 "scatter %.3f s, first step at %.3f s\n",
                 rep, rec.construct, rec.scf, rec.scf_iterations, rec.scf_outer, rec.scatter,
                 rec.first_step);
  }

  // Spans of the measured steps, built from the per-step records after the
  // loop so nothing is added inside a timed region. Phase children carry
  // TimerRegistry totals laid end to end from the step start.
  const double spans_t0 = now_s();
  for (int r = 0; log.enabled() && r < cfg.ranks; ++r) {
    const auto& steps = rank_steps[r];
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const StepRec& s = steps[k];
      const long group = static_cast<long>(k);
      const long sid = log.add("td.step", s.t0, s.t0 + s.wall, -1, group, r);
      double at = s.t0;
      for (const auto& [name, secs] : s.phases) {
        log.add("phase." + name, at, at + secs, sid, group, r, /*nominal=*/true);
        at += secs;
      }
      log.add("td.observables", s.t0 + s.wall, s.t0 + s.wall + s.obs, -1, group, r);
    }
  }
  log.charge(now_s() - spans_t0);

  // Correctness.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    checks.push_back({"scf_converged_" + std::to_string(rep), setups[rep].scf_converged,
                      static_cast<double>(setups[rep].scf_iterations), 0.0});
    checks.push_back({"first_step_converged_" + std::to_string(rep),
                      setups[rep].first_step_converged, 0.0, 0.0});
  }
  const std::size_t nsteps = rank_steps[0].size();
  std::size_t failed_steps = 0;
  for (std::size_t k = 0; k < nsteps; ++k) {
    bool ok = true;
    for (int r = 0; r < cfg.ranks; ++r) ok = ok && rank_steps[r][k].converged;
    if (!ok) ++failed_steps;
  }
  checks.push_back({"steps_converged", failed_steps == 0, static_cast<double>(failed_steps), 0.0});
  *attempted = nsteps;
  *failed = failed_steps;
  {
    std::size_t ncol = 0;
    for (const CMatrix& p : final_psi) ncol += p.cols();
    CMatrix psi(final_psi[0].rows(), ncol);
    std::size_t j0 = 0;
    for (const CMatrix& p : final_psi) {
      for (std::size_t j = 0; j < p.cols(); ++j)
        std::copy(p.col(j), p.col(j) + p.rows(), psi.col(j0 + j));
      j0 += p.cols();
    }
    checks.push_back(orthonormality_check(psi, po.sp_comm));
  }
  if (cfg.record_energy) {
    // Energy conservation after the kick: a(t) = kappa for t >= 0, so the
    // Hamiltonian is time-independent and the exact dynamics conserve E.
    // Each step's SCF stops once the density change per electron is below
    // rho_tol, an L1 density error of at most N_e * rho_tol, which to
    // first order moves the energy by at most ||v_H + v_xc||_inf * N_e *
    // rho_tol. Errors add at most linearly, so step k of a segment may sit
    // (k - 1) such bounds from the segment's first step.
    const double eps_step = v_hxc_max * n_electrons * kRhoTol;
    const auto& steps = rank_steps[0];
    double worst = 0.0, worst_tol = eps_step, worst_share = -1.0;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const std::size_t first = k - (k % kSegmentSteps);
      if (k == first) continue;
      const double drift = std::abs(steps[k].observable - steps[first].observable);
      const double tol = static_cast<double>(k - first) * eps_step;
      if (drift / tol > worst_share) {
        worst_share = drift / tol;
        worst = drift;
        worst_tol = tol;
      }
    }
    checks.push_back({"energy_conservation", worst <= worst_tol, worst, worst_tol});
  }

  // Raw output.
  w.key("setup").begin_array();
  for (const SetupRec& s : setups)
    w.begin_object()
        .field("total_s", s.total)
        .field("construct_s", s.construct)
        .field("scf_s", s.scf)
        .field("scatter_s", s.scatter)
        .field("first_step_s", s.first_step)
        .field("scf_iterations", s.scf_iterations)
        .field("scf_outer_iterations", s.scf_outer)
        .field("scf_energy", s.scf_energy)
        .end_object();
  w.end_array();
  w.key("config").begin_object()
      .field("ace", cfg.ace)
      .field("mts_interval", cfg.mts_interval)
      .field("laser", cfg.laser)
      .end_object();
  w.field("measure_s", measure_t1 - measure_t0);
  w.field("measure_cpu_s", measure_cpu1 - measure_cpu0);
  w.field("dt_fs", kDtAs * 1e-3);
  w.field("segment_steps", kSegmentSteps);
  w.key("exec").begin_object()
      .field("range_jobs", range1 - range0)
      .field("graph_jobs", graph1 - graph0)
      .end_object();
  w.key("steps").begin_array();
  for (std::size_t k = 0; k < nsteps; ++k) {
    const StepRec& s0 = rank_steps[0][k];
    w.begin_object()
        .field("segment", s0.segment)
        .field("refreshed", s0.refreshed)
        .field("scf_iters", s0.scf_iters)
        .field("fock_applies", s0.fock_applies)
        .field("observable", s0.observable);
    w.key("ranks").begin_array();
    for (int r = 0; r < cfg.ranks; ++r) {
      const StepRec& s = rank_steps[r][k];
      w.begin_object()
          .field("wall_s", s.wall)
          .field("obs_s", s.obs)
          .field("converged", s.converged);
      w.key("phases").begin_object();
      for (const auto& [name, secs] : s.phases) w.field(name, secs);
      w.end_object();
      w.key("comm").begin_object();
      for (std::size_t o = 0; o < kOps.size(); ++o) {
        w.key(par::comm_op_name(kOps[o])).begin_array();
        w.value(static_cast<std::uint64_t>(s.comm[o].calls));
        w.value(static_cast<std::uint64_t>(s.comm[o].bytes));
        w.value(s.comm[o].seconds);
        w.end_array();
      }
      w.end_object();
      w.field("pair_solves", s.pair_solves)
          .field("broadcasts", s.broadcasts)
          .field("ace_builds", s.ace_builds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

// ---------------------------------------------------------------------------
// serve-mixed-priority.

struct JobRec {
  std::string name;
  int client = 0;
  int priority = 0;
  bool laser = false;
  double ecut = 0.0;
  double submit_t = 0.0, submit_rtt = 0.0, first_step_t = -1.0, done_t = 0.0;
  std::vector<double> step_t;  ///< arrival time of each streamed step status
  std::vector<std::uint64_t> step_k;
  serve::JobState state = serve::JobState::kQueued;
  serve::ErrorCode error = serve::ErrorCode::kOk;
  std::string message;
  std::vector<td::TimePoint> trace;
  double scf_energy = 0.0;
  std::uint32_t preemptions = 0;
  std::uint64_t ckpt_bytes = 0;
};

serve::JobSpec make_job(const std::string& name, bool laser, double ecut, int priority,
                        std::uint64_t seed) {
  serve::JobSpec s;
  s.name = name;
  s.kind = laser ? serve::JobKind::kLaser : serve::JobKind::kAbsorption;
  s.sim = sim_options(ecut, /*ace=*/false, seed);
  s.dt_as = kDtAs;
  s.steps = kServeSteps;
  s.priority = priority;
  s.ptcn.rho_tol = kRhoTol;
  s.ptcn.mts_interval = 0;
  s.checkpoint_every = 1;
  return s;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

void run_serve(const Args& args, SpanLog& log, JsonWriter& w, std::vector<Check>& checks,
               std::size_t* attempted, std::size_t* failed) {
  constexpr int kWidth = 2;
  constexpr int kSlots = 2;
  exec::set_num_threads(kWidth);
  namespace fs = std::filesystem;

  // Seeded job plan. One job queue shared by the clients, each taking the
  // next job when it is ready, in blocks of kServeBlock jobs: kinds
  // alternate along the queue from a seeded first kind, and in every block
  // one job of each kind runs at the second cutoff (which one seeded). A
  // seeded client submits at the higher priority. Every block holds the
  // same job mix, so the seed sets only the order; a run measures whole
  // blocks, so its mix does not depend on the seed or on how fast the
  // program runs.
  std::mt19937_64 rng(args.seed);
  const int hp_client = static_cast<int>(rng() % kServeClients);
  const bool first_laser = (rng() & 1) != 0;
  constexpr std::size_t kPlanJobs = kServeBlock * 64;
  std::vector<double> plan_ecut(kPlanJobs, kEcut);
  for (std::size_t b = 0; b < kPlanJobs; b += kServeBlock)
    for (std::size_t parity = 0; parity < 2; ++parity)
      plan_ecut[b + parity + 2 * (rng() % (kServeBlock / 2))] = kEcutSecond;

  const std::string base =
      args.workdir + "/w3-" + std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(base);
  fs::create_directories(base);

  std::vector<double> setup_s;
  std::vector<JobRec> warm(kSetupReps);
  std::unique_ptr<serve::Server> server;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    dir = base + "/s" + std::to_string(rep);
    fs::create_directories(dir);
    serve::ServerOptions so;
    so.listen = "unix:" + dir + "/sock";
    so.engine.max_running = kSlots;
    so.engine.checkpoint_dir = dir;
    so.engine.recover_on_start = false;
    const double t0 = now_s();
    server = std::make_unique<serve::Server>(so);
    const double t1 = now_s();
    serve::Client client(server->address());
    serve::JobSpec spec = make_job("warmup", false, kEcut, 0, args.seed);
    spec.kind = serve::JobKind::kScf;
    spec.steps = 0;
    const serve::SubmitResult sr = client.submit(spec);
    serve::JobStatus st;
    if (sr.ok()) st = client.wait(sr.id);
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    JobRec& wr = warm[rep];
    wr.name = spec.name;
    wr.ecut = kEcut;
    wr.state = sr.ok() ? st.state : serve::JobState::kFailed;
    wr.error = sr.ok() ? st.error : sr.error;
    wr.scf_energy = st.scf_energy;
    const long sid = log.add("setup", t0, t2, -1, -1000 - rep, 0);
    log.add("serve.server_start", t0, t1, sid, -1000 - rep, 0);
    log.add("serve.warmup_job", t1, t2, sid, -1000 - rep, 0);
    std::fprintf(stderr, "ptbench: setup %d: server + warm-up SCF %.3f s (%s)\n", rep, t2 - t0,
                 serve::state_name(wr.state));
  }
  const std::string addr = server->address();

  // Measured phase: closed loop, each client submits its next job only
  // after streaming the previous one to completion.
  std::vector<std::vector<JobRec>> per_client(kServeClients);
  const std::uint64_t range0 = exec::pool().range_jobs();
  const std::uint64_t graph0 = exec::pool().graph_jobs();
  const double m0 = now_s();
  const double mc0 = process_cpu_s();
  const double deadline = m0 + args.seconds;
  // Clients claim jobs from the plan a block at a time: a new block opens
  // only while --seconds have not passed.
  std::mutex plan_mu;
  std::size_t next_job = 0, open_jobs = kServeBlock;
  auto claim = [&]() -> long {
    std::lock_guard<std::mutex> lock(plan_mu);
    if (now_s() > kGuardSeconds) return -1;
    if (next_job == open_jobs && now_s() < deadline) open_jobs += kServeBlock;
    return next_job < open_jobs ? static_cast<long>(next_job++) : -1;
  };
  std::vector<std::thread> clients;
  std::vector<std::string> client_errors(kServeClients);
  for (int ci = 0; ci < kServeClients; ++ci) {
    clients.emplace_back([&, ci] {
      try {
        serve::Client client(addr);
        for (long claimed; (claimed = claim()) >= 0;) {
          const std::size_t order = static_cast<std::size_t>(claimed) % kPlanJobs;
          JobRec rec;
          rec.client = ci;
          rec.priority = ci == hp_client ? 1 : 0;
          rec.laser = (order % 2 == 1) != first_laser;
          rec.ecut = plan_ecut[order];
          rec.name = "job" + std::to_string(order);
          const serve::JobSpec spec = make_job(rec.name, rec.laser, rec.ecut, rec.priority,
                                               args.seed);
          rec.submit_t = now_s();
          const serve::SubmitResult sr = client.submit(spec);
          rec.submit_rtt = now_s() - rec.submit_t;
          if (!sr.ok()) {
            rec.state = serve::JobState::kFailed;
            rec.error = sr.error;
            rec.message = sr.message;
            rec.done_t = now_s();
            per_client[ci].push_back(std::move(rec));
            continue;
          }
          std::uint64_t seen = 0;
          const serve::JobStatus fin = client.stream(sr.id, [&](const serve::JobStatus& s) {
            if (s.steps_done > seen) {
              const double tn = now_s();
              if (rec.first_step_t < 0.0) rec.first_step_t = tn;
              rec.step_t.push_back(tn);
              rec.step_k.push_back(s.steps_done);
              seen = s.steps_done;
            }
          });
          rec.done_t = now_s();
          rec.state = fin.state;
          rec.error = fin.error;
          rec.message = fin.message;
          rec.trace = fin.trace;
          rec.scf_energy = fin.scf_energy;
          rec.preemptions = fin.preemptions;
          rec.ckpt_bytes = file_size(dir + "/" + rec.name + ".psi.ckpt") +
                           file_size(dir + "/" + rec.name + ".trace.ckpt");
          per_client[ci].push_back(std::move(rec));
        }
      } catch (const std::exception& e) {
        client_errors[ci] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double m1 = now_s();
  const double mc1 = process_cpu_s();
  const std::uint64_t range1 = exec::pool().range_jobs();
  const std::uint64_t graph1 = exec::pool().graph_jobs();

  std::vector<JobRec> jobs;
  for (auto& v : per_client)
    for (JobRec& r : v) jobs.push_back(std::move(r));
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRec& a, const JobRec& b) { return a.submit_t < b.submit_t; });

  // Spans of the measured jobs.
  const double spans_t0 = now_s();
  for (std::size_t i = 0; log.enabled() && i < jobs.size(); ++i) {
    const JobRec& r = jobs[i];
    const long g = static_cast<long>(i);
    const int tid = 100 + r.client;
    const long jid = log.add("serve.job " + r.name, r.submit_t, r.done_t, -1, g, tid);
    log.add("serve.submit", r.submit_t, r.submit_t + r.submit_rtt, jid, g, tid);
    const long str = log.add("serve.stream", r.submit_t + r.submit_rtt, r.done_t, jid, g, tid);
    double prev = r.first_step_t >= 0.0 ? r.submit_t + r.submit_rtt : 0.0;
    for (std::size_t k = 0; k < r.step_t.size(); ++k) {
      log.add(k == 0 ? "serve.scf_and_first_step" : "serve.step", prev, r.step_t[k], str, g,
              tid);
      prev = r.step_t[k];
    }
  }
  log.charge(now_s() - spans_t0);

  // io probes (traced run only): the served job's Psi shape and full trace
  // through the checkpoint layer, outside the measured phase.
  std::vector<double> save_s, load_s;
  if (log.enabled()) {
    const JobRec* src = nullptr;
    for (const JobRec& r : jobs)
      if (r.state == serve::JobState::kDone && r.ecut == kEcut) src = &r;
    if (src) {
      CMatrix psi;
      const io::CheckpointMeta meta = io::load_wavefunctions(dir + "/" + src->name + ".psi.ckpt",
                                                             psi);
      const std::vector<double> flat = serve::wire::flatten_trace(src->trace);
      const std::string probe = base + "/probe";
      for (int k = 0; k < kIoProbeReps; ++k) {
        const double a = now_s();
        io::save_wavefunctions(probe + ".psi.ckpt", meta, psi);
        io::save_blob(probe + ".trace.ckpt", meta, flat);
        const double b = now_s();
        CMatrix back;
        std::vector<double> back_flat;
        io::load_wavefunctions(probe + ".psi.ckpt", back);
        io::load_blob(probe + ".trace.ckpt", back_flat);
        const double c = now_s();
        save_s.push_back(b - a);
        load_s.push_back(c - b);
        log.add("io.save", a, b, -1, -2000 - k, 0);
        log.add("io.load", b, c, -1, -2000 - k, 0);
      }
    }
  }

  server->stop();
  server.reset();
  fs::remove_all(base);

  // Correctness.
  for (const std::string& e : client_errors)
    if (!e.empty()) checks.push_back({"client_error: " + e, false, 0.0, 0.0});
  for (int rep = 0; rep < kSetupReps; ++rep)
    checks.push_back({"warmup_done_" + std::to_string(rep),
                      warm[rep].state == serve::JobState::kDone, 0.0, 0.0});
  std::size_t bad = 0;
  for (const JobRec& r : jobs) {
    const bool ok = r.state == serve::JobState::kDone && r.error == serve::ErrorCode::kOk &&
                    r.trace.size() == static_cast<std::size_t>(kServeSteps) + 1;
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "ptbench: job %s ended %s (%s) with %zu trace points: %s\n",
                   r.name.c_str(), serve::state_name(r.state), serve::error_name(r.error),
                   r.trace.size(), r.message.c_str());
    }
  }
  checks.push_back({"jobs_done_with_full_trace", bad == 0 && !jobs.empty(),
                    static_cast<double>(bad), 0.0});
  *attempted = jobs.size();
  *failed = bad;
  {
    // Jobs at one cutoff solve the same ground state (same options, same
    // seed): their SCF energies agree within the SCF's own energy
    // convergence criterion (hybrid_outer_tol).
    const double tol = scf_options().hybrid_outer_tol;
    for (const double ecut : {kEcut, kEcutSecond}) {
      double lo = 0.0, hi = 0.0;
      bool any = false;
      auto take = [&](const JobRec& r) {
        if (r.ecut != ecut || r.state != serve::JobState::kDone) return;
        lo = any ? std::min(lo, r.scf_energy) : r.scf_energy;
        hi = any ? std::max(hi, r.scf_energy) : r.scf_energy;
        any = true;
      };
      for (const JobRec& r : warm) take(r);
      for (const JobRec& r : jobs) take(r);
      if (any)
        checks.push_back({"scf_energy_agrees_ecut" + std::to_string(static_cast<int>(ecut)),
                          hi - lo <= tol, hi - lo, tol});
    }
  }

  // Raw output.
  w.key("setup").begin_array();
  for (double s : setup_s) w.begin_object().field("total_s", s).end_object();
  w.end_array();
  w.field("measure_s", m1 - m0);
  w.field("measure_cpu_s", mc1 - mc0);
  w.key("exec").begin_object()
      .field("range_jobs", range1 - range0)
      .field("graph_jobs", graph1 - graph0)
      .end_object();
  w.field("dt_fs", kDtAs * 1e-3);
  w.key("jobs").begin_array();
  for (const JobRec& r : jobs) {
    w.begin_object()
        .field("name", r.name)
        .field("client", r.client)
        .field("priority", r.priority)
        .field("kind", r.laser ? "laser" : "absorption")
        .field("ecut", r.ecut)
        .field("state", serve::state_name(r.state))
        .field("submit_s", r.submit_t - m0)
        .field("submit_rtt_s", r.submit_rtt)
        .field("first_step_s", r.first_step_t < 0.0 ? -1.0 : r.first_step_t - r.submit_t)
        .field("done_s", r.done_t - r.submit_t)
        .field("preemptions", static_cast<std::uint64_t>(r.preemptions))
        .field("scf_energy", r.scf_energy)
        .field("ckpt_bytes", r.ckpt_bytes)
        .field("steps", kServeSteps);
    std::vector<double> arrivals;
    for (double t : r.step_t) arrivals.push_back(t - r.submit_t);
    w.array("step_arrival_s", arrivals);
    std::vector<std::int64_t> ks(r.step_k.begin(), r.step_k.end());
    w.array("step_index", ks);
    std::vector<double> walls;
    for (const td::TimePoint& p : r.trace) walls.push_back(p.wall_seconds);
    w.array("trace_wall_s", walls);
    w.end_object();
  }
  w.end_array();
  w.array("io_save_s", save_s);
  w.array("io_load_s", load_s);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    PWDFT_CHECK(i + 1 < argc, "ptbench: " << k << " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--raw") a.raw = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--workdir") a.workdir = v;
    else PWDFT_CHECK(false, "ptbench: unknown argument " << k);
  }
  PWDFT_CHECK(!a.raw.empty(), "ptbench: --raw is required");
  PWDFT_CHECK(a.seconds > 0.0, "ptbench: --seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default of one arena per
  // thread (up to 8 per CPU), memory a served job frees stays cached in the
  // arena of the short-lived thread that ran it, so peak_rss_mb would follow
  // which arena each job's thread happened to draw rather than the memory
  // the program holds (README.md, peak_rss_mb). Set before any thread starts.
  ::mallopt(M_ARENA_MAX, 1);
  try {
    const Args args = parse(argc, argv);
    SpanLog log(args.trace);
    JsonWriter w;
    std::vector<Check> checks;
    std::size_t attempted = 0, failed = 0;
    const long rss_base_kb = read_status_kb("VmRSS:");
    const std::array<double, 2> ticks0 = read_cpu_ticks();
    const double calib = calibrate_host();

    w.begin_object();
    w.field("workload", args.workload).field("seed", args.seed).field("trace", args.trace);
    w.field("seconds", args.seconds);
    int ranks = 1, width = 1;
    if (args.workload == "ptcn-direct-2rank") {
      TdConfig cfg;
      cfg.ranks = ranks = 2;
      // Width 1: two lockstep ranks at width 2 keep four CPUs busy, and on a
      // shared host every CPU the hypervisor takes away then stalls both
      // ranks (README.md, "Sizing data").
      cfg.width = width = 1;
      cfg.ace = false;
      cfg.mts_interval = 0;
      cfg.laser = false;
      cfg.record_energy = true;
      run_td(args, cfg, log, w, checks, &attempted, &failed);
    } else if (args.workload == "ptcn-acemts-serial") {
      TdConfig cfg;
      cfg.ranks = ranks = 1;
      cfg.width = width = 1;
      cfg.ace = true;
      cfg.mts_interval = 4;
      cfg.laser = true;
      cfg.record_energy = false;
      run_td(args, cfg, log, w, checks, &attempted, &failed);
    } else if (args.workload == "serve-mixed-priority") {
      ranks = 1;
      width = 2;
      run_serve(args, log, w, checks, &attempted, &failed);
    } else {
      PWDFT_CHECK(false, "ptbench: unknown workload '" << args.workload << "'");
    }
    const std::array<double, 2> ticks1 = read_cpu_ticks();
    const double ticks = ticks1[0] - ticks0[0];
    w.key("host").begin_object()
        .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
        .field("calib_s", calib)
        .field("steal_share", ticks > 0.0 ? (ticks1[1] - ticks0[1]) / ticks : 0.0)
        .field("ranks", ranks)
        .field("width", width)
        .end_object();
    w.key("rss_kb").begin_object()
        .field("hwm", static_cast<std::int64_t>(read_status_kb("VmHWM:")))
        .field("base", static_cast<std::int64_t>(rss_base_kb))
        .end_object();
    w.field("attempted", static_cast<std::uint64_t>(attempted));
    w.field("failed", static_cast<std::uint64_t>(failed));
    write_checks(w, checks);
    if (log.enabled() && !args.spans.empty()) log.write_chrome(args.spans);
    w.field("trace_s", log.cost_s());
    w.end_object();

    std::ofstream f(args.raw);
    f << w.str() << "\n";
    PWDFT_CHECK(f.good(), "ptbench: cannot write " << args.raw);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptbench: error: %s\n", e.what());
    return 2;
  }
}
