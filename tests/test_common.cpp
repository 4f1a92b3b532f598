#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "serve/job.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

TEST(Constants, UnitConversionsRoundTrip) {
  EXPECT_NEAR(constants::attoseconds_to_au(constants::as_per_au_time), 1.0, 1e-14);
  EXPECT_NEAR(constants::femtoseconds_to_au(1.0) * constants::fs_per_au_time, 1.0, 1e-14);
  // 50 as (the paper's PT-CN step) is ~2.067 a.u.
  EXPECT_NEAR(constants::attoseconds_to_au(50.0), 2.0671, 1e-3);
  // 380 nm photon: 3.263 eV.
  EXPECT_NEAR(constants::photon_energy_ha(380.0) / constants::hartree_per_ev, 3.2627, 1e-3);
  // Si lattice constant: 5.43 A = 10.2613 bohr.
  EXPECT_NEAR(5.43 * constants::bohr_per_angstrom, 10.2612, 1e-3);
}

TEST(Check, ThrowsWithMessage) {
  try {
    PWDFT_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(PWDFT_CHECK(2 + 2 == 4)); }

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.integer(), b.integer());
}

TEST(Rng, ComplexNormalHasUnitVariance) {
  Rng rng(7);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_normal());
  EXPECT_NEAR(acc / n, 1.0, 0.05);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(TimerRegistry, AccumulatesPhases) {
  TimerRegistry reg;
  reg.add("fock", 1.5);
  reg.add("fock", 0.5);
  reg.add("density", 0.25);
  EXPECT_DOUBLE_EQ(reg.total("fock"), 2.0);
  EXPECT_DOUBLE_EQ(reg.total("density"), 0.25);
  EXPECT_DOUBLE_EQ(reg.total("missing"), 0.0);
  {
    ScopedTimer st(reg, "scoped");
  }
  EXPECT_GE(reg.total("scoped"), 0.0);
  reg.clear();
  EXPECT_DOUBLE_EQ(reg.total("fock"), 0.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.row("alpha", 3.14159);
  t.row("bb", 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.142"), std::string::npos);  // default 3 decimals
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, WritesCsv) {
  Table t({"a", "b"});
  t.row(1, 2);
  const test::ScratchDir dir("table");
  const std::string path = dir.file("t.csv");
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.add_cell("v"), Error);
}

// The shared strict env parser (common/env.hpp): unset falls back, valid
// forms parse, and malformed values throw instead of silently resolving to
// a default — the contract every PWDFT_* knob now follows.
TEST(Env, FlagAcceptsCanonicalFormsCaseInsensitively) {
  const char* name = "PWDFT_TEST_FLAG";
  unsetenv(name);
  EXPECT_TRUE(env::flag(name, true));
  EXPECT_FALSE(env::flag(name, false));
  for (const char* v : {"1", "on", "ON", "true", "TRUE", "yes", "Yes"}) {
    setenv(name, v, 1);
    EXPECT_TRUE(env::flag(name, false)) << v;
  }
  for (const char* v : {"0", "off", "OFF", "false", "False", "no", "NO"}) {
    setenv(name, v, 1);
    EXPECT_FALSE(env::flag(name, true)) << v;
  }
  unsetenv(name);
}

TEST(Env, FlagRejectsGarbageLoudly) {
  const char* name = "PWDFT_TEST_FLAG";
  for (const char* v : {"2", "enabled", "y", "t", "", " 1", "on "}) {
    setenv(name, v, 1);
    EXPECT_THROW(env::flag(name, false), Error) << "'" << v << "'";
  }
  unsetenv(name);
}

TEST(Env, IntegerParsesFullStringInRange) {
  const char* name = "PWDFT_TEST_INT";
  unsetenv(name);
  EXPECT_EQ(env::integer(name, 7, 1, 10), 7);
  // The fallback may lie outside [min, max]: range-checks apply to set values only.
  EXPECT_EQ(env::integer(name, 0, 1, 10), 0);
  setenv(name, "4", 1);
  EXPECT_EQ(env::integer(name, 7, 1, 10), 4);
  setenv(name, "-3", 1);
  EXPECT_EQ(env::integer(name, 0, -10, 10), -3);
  unsetenv(name);
}

TEST(Env, IntegerRejectsGarbageAndOutOfRangeLoudly) {
  const char* name = "PWDFT_TEST_INT";
  for (const char* v : {"four", "", "4x", "1.5", " 4", "99999999999999999999"}) {
    setenv(name, v, 1);
    EXPECT_THROW(env::integer(name, 0, 0, 100), Error) << "'" << v << "'";
  }
  setenv(name, "11", 1);
  EXPECT_THROW(env::integer(name, 0, 1, 10), Error);
  setenv(name, "0", 1);
  EXPECT_THROW(env::integer(name, 0, 1, 10), Error);
  unsetenv(name);
}

// No environment variable changes a result: the exchange options keep fixed
// defaults, so a job resumed by another server continues the same trajectory.
TEST(Env, ExchangeOptionDefaultsIgnoreTheEnvironment) {
  setenv("PWDFT_ACE", "1", 1);
  setenv("PWDFT_ACE_REFRESH", "3", 1);
  setenv("PWDFT_MTS_INTERVAL", "4", 1);
  const serve::JobSpec spec;
  EXPECT_FALSE(ham::HamiltonianOptions{}.use_ace);
  EXPECT_EQ(ham::HamiltonianOptions{}.ace_refresh, 1);
  EXPECT_FALSE(spec.sim.use_ace);  // spec.sim is a default SimulationOptions
  EXPECT_EQ(spec.sim.ace_refresh, 1);
  EXPECT_EQ(spec.ptcn.mts_interval, 0);  // spec.ptcn is a default PtCnOptions
  unsetenv("PWDFT_ACE");
  unsetenv("PWDFT_ACE_REFRESH");
  unsetenv("PWDFT_MTS_INTERVAL");
}

}  // namespace
}  // namespace pwdft
