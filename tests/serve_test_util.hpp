#pragma once

/// Shared fixtures for the serve-layer tests (test_serve.cpp: the engine
/// in-process; test_server.cpp: the wire protocol and the network server).
/// The tiny silicon cell keeps a full hybrid SCF + PT-CN propagation fast
/// enough for unit tests while exercising the real physics stack, and the
/// expect_*_identical helpers pin BITWISE equality — the serve layer's
/// promise is bit-identical trajectories, not close ones.

#include <gtest/gtest.h>
#include <pthread.h>

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "serve/job.hpp"

namespace pwdft::serve_test {

inline core::SimulationOptions tiny_sim(bool hybrid = true) {
  core::SimulationOptions opt;
  opt.cells[0] = opt.cells[1] = opt.cells[2] = 1;
  opt.ecut = 3.0;
  opt.dense_factor = 1;
  opt.hybrid = hybrid;
  opt.scf.max_iter = 40;
  opt.scf.tol_rho = 1e-7;
  opt.scf.lobpcg.max_iter = 6;
  opt.scf.hybrid_outer_max = 5;
  opt.scf.hybrid_outer_tol = 1e-6;
  return opt;
}

inline serve::JobSpec tiny_job(const std::string& name, serve::JobKind kind, int steps) {
  serve::JobSpec spec;
  spec.name = name;
  spec.kind = kind;
  spec.sim = tiny_sim();
  spec.steps = steps;
  spec.ptcn.rho_tol = 1e-7;
  return spec;
}

/// Bitwise equality on every physics field (wall_seconds is timing noise).
inline void expect_points_identical(const td::TimePoint& a, const td::TimePoint& b,
                                    const std::string& what) {
  EXPECT_EQ(a.t, b.t) << what;
  for (int d = 0; d < 3; ++d) EXPECT_EQ(a.current[d], b.current[d]) << what << " axis " << d;
  EXPECT_EQ(a.n_excited, b.n_excited) << what;
  EXPECT_EQ(a.energy, b.energy) << what;
  EXPECT_EQ(a.scf_iterations, b.scf_iterations) << what;
  EXPECT_EQ(a.rho_error, b.rho_error) << what;
  EXPECT_EQ(a.exchange_refreshed, b.exchange_refreshed) << what;
  EXPECT_EQ(a.mts_drift, b.mts_drift) << what;
}

inline void expect_traces_identical(const std::vector<td::TimePoint>& a,
                                    const std::vector<td::TimePoint>& b,
                                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_points_identical(a[i], b[i], what + " point " + std::to_string(i));
}

/// A numeric field of /proc/self/status: "VmSize:" is the mapped address
/// space in kB, "Threads:" the live thread count.
inline std::size_t proc_status(const std::string& key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind(key, 0) == 0) return std::stoul(line.substr(key.size()));
  ADD_FAILURE() << "no " << key << " line in /proc/self/status";
  return 0;
}

/// The stack a new std::thread maps by default, in kB.
inline std::size_t thread_stack_kb() {
  pthread_attr_t attr;
  std::size_t bytes = 0;
  if (pthread_getattr_default_np(&attr) == 0) {
    pthread_attr_getstacksize(&attr, &bytes);
    pthread_attr_destroy(&attr);
  }
  return bytes / 1024;
}

/// Solo reference: the same trajectory run directly through Simulation.
inline std::vector<td::TimePoint> solo_trace(const serve::JobSpec& spec) {
  core::Simulation sim(spec.sim);
  sim.ground_state();
  const auto field = spec.build_field();
  core::PropagateOptions prop;
  prop.dt_as = spec.dt_as;
  prop.steps = spec.steps;
  prop.field = field.get();
  prop.ptcn = spec.ptcn;
  return sim.propagate(prop);
}

}  // namespace pwdft::serve_test
