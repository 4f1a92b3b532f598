#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "serve/job_engine.hpp"
#include "serve_test_util.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

using test::ScratchDir;
using serve_test::expect_traces_identical;
using serve_test::solo_trace;
using serve_test::tiny_job;

/// Polls until the job reports kRunning (its worker started).
void wait_until_running(serve::JobEngine& engine, serve::JobId id) {
  while (engine.status(id).state != serve::JobState::kRunning)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

// The tentpole acceptance test: >= 4 concurrent mixed jobs (SCF probe,
// absorption kick, laser run, quiescent propagation) co-scheduled on the
// shared pool, every trajectory bit-identical to its solo run.
TEST(JobEngine, ConcurrentMixedTenantsMatchSoloRunsBitwise) {
  const auto spec_abs = tiny_job("abs", serve::JobKind::kAbsorption, 2);
  auto spec_laser = tiny_job("laser", serve::JobKind::kLaser, 2);
  spec_laser.field.laser_e0 = 0.05;
  auto spec_quiet = tiny_job("quiet", serve::JobKind::kAbsorption, 1);
  spec_quiet.field.kick = {0.0, 0.0, 0.0};

  const auto ref_abs = solo_trace(spec_abs);
  const auto ref_laser = solo_trace(spec_laser);
  const auto ref_quiet = solo_trace(spec_quiet);

  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 4;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id_scf = engine.submit(tiny_job("scf", serve::JobKind::kScf, 0));
  const auto id_abs = engine.submit(spec_abs);
  const auto id_laser = engine.submit(spec_laser);
  const auto id_quiet = engine.submit(spec_quiet);
  ASSERT_TRUE(id_scf.ok() && id_abs.ok() && id_laser.ok() && id_quiet.ok());
  engine.wait_all();

  const auto scf = engine.wait(id_scf.id);
  ASSERT_EQ(scf.state, serve::JobState::kDone) << scf.message;
  EXPECT_TRUE(std::isfinite(scf.scf_energy));
  EXPECT_LT(scf.scf_energy, 0.0);

  const auto abs = engine.wait(id_abs.id);
  ASSERT_EQ(abs.state, serve::JobState::kDone) << abs.message;
  expect_traces_identical(abs.trace, ref_abs, "absorption");

  const auto laser = engine.wait(id_laser.id);
  ASSERT_EQ(laser.state, serve::JobState::kDone) << laser.message;
  expect_traces_identical(laser.trace, ref_laser, "laser");

  const auto quiet = engine.wait(id_quiet.id);
  ASSERT_EQ(quiet.state, serve::JobState::kDone) << quiet.message;
  expect_traces_identical(quiet.trace, ref_quiet, "quiet");
}

// The crash-restart acceptance test: kill a job mid-propagation, resume it
// from its snapshot, and require the stitched trajectory bit-identical to
// the uninterrupted run.
TEST(JobEngine, KillMidRunThenResumeIsBitIdentical) {
  auto spec = tiny_job("victim", serve::JobKind::kLaser, 3);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  const auto ref = solo_trace(spec);

  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  // A second tenant runs across the kill/resume so the victim is always
  // co-scheduled, never alone on the pool.
  const auto id_bg = engine.submit(tiny_job("bg", serve::JobKind::kAbsorption, 2));

  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok()) << id.message;
  // Kill at the first step boundary after the request lands: the job dies
  // mid-trajectory with only its checkpoint to continue from.
  EXPECT_EQ(engine.preempt(id.id), serve::ErrorCode::kOk);
  auto killed = engine.wait(id.id);
  ASSERT_EQ(killed.state, serve::JobState::kPreempted) << killed.message;
  EXPECT_LT(killed.steps_done, 3u);

  EXPECT_TRUE(engine.resume(id.id).ok());
  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  EXPECT_EQ(done.steps_done, 3u);
  expect_traces_identical(done.trace, ref, "kill+resume");

  const auto bg = engine.wait(id_bg.id);
  ASSERT_EQ(bg.state, serve::JobState::kDone) << bg.message;
}

TEST(JobEngine, PreemptedBeforeStartResumesFromScratch) {
  auto spec = tiny_job("early", serve::JobKind::kAbsorption, 1);
  const auto ref = solo_trace(spec);

  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  // A hog occupies the single slot so "early" stays queued.
  const auto id_hog = engine.submit(tiny_job("hog", serve::JobKind::kAbsorption, 1));
  const auto id = engine.submit(spec);
  EXPECT_EQ(engine.preempt(id.id), serve::ErrorCode::kOk);
  const auto pre = engine.wait(id.id);
  EXPECT_EQ(pre.state, serve::JobState::kPreempted);
  EXPECT_TRUE(pre.trace.empty());

  EXPECT_TRUE(engine.resume(id.id).ok());
  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  expect_traces_identical(done.trace, ref, "requeued");
  engine.wait(id_hog.id);
}

// Scheduler preemption: a starved higher-priority submission evicts the
// running lower-priority job at its next step boundary; the victim is
// requeued, resumes from its snapshot, and still ends bit-identical.
TEST(JobEngine, HighPrioritySubmissionEvictsCheapestLowerPriorityRunner) {
  auto victim = tiny_job("victim", serve::JobKind::kLaser, 3);
  victim.field.laser_e0 = 0.05;
  victim.checkpoint_every = 1;
  const auto ref = solo_trace(victim);

  auto urgent = tiny_job("urgent", serve::JobKind::kAbsorption, 1);
  urgent.priority = 5;
  const auto ref_urgent = solo_trace(urgent);

  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  const auto id_victim = engine.submit(victim);
  ASSERT_TRUE(id_victim.ok()) << id_victim.message;
  wait_until_running(engine, id_victim.id);
  // All slots busy + a strictly-higher-priority job queued -> the scheduler
  // marks the runner for eviction at its next step boundary.
  const auto id_urgent = engine.submit(urgent);
  ASSERT_TRUE(id_urgent.ok()) << id_urgent.message;
  engine.wait_all();

  const auto u = engine.wait(id_urgent.id);
  ASSERT_EQ(u.state, serve::JobState::kDone) << u.message;
  expect_traces_identical(u.trace, ref_urgent, "urgent");

  const auto v = engine.wait(id_victim.id);
  ASSERT_EQ(v.state, serve::JobState::kDone) << v.message;
  EXPECT_GE(v.preemptions, 1u);  // the eviction actually happened
  EXPECT_EQ(v.steps_done, 3u);
  expect_traces_identical(v.trace, ref, "evicted victim");
}

// Satellite regression pin: resume-by-name is idempotent. Resuming a job
// that is queued or running must NOT start a second run against the same
// checkpoint files; resuming a done job is a no-op kOk.
TEST(JobEngine, ResumeByNameIsIdempotent) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  auto spec = tiny_job("runner", serve::JobKind::kLaser, 2);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok()) << id.message;

  // Queued-behind job for the cancelled-resume case below.
  const auto id_q = engine.submit(tiny_job("doomed", serve::JobKind::kAbsorption, 1));
  ASSERT_TRUE(id_q.ok());

  wait_until_running(engine, id.id);
  const auto while_running = engine.resume(std::string("runner"));
  EXPECT_EQ(while_running.error, serve::ErrorCode::kAlreadyActive);
  EXPECT_EQ(while_running.id, id.id);
  const auto queued = engine.resume(std::string("doomed"));
  EXPECT_EQ(queued.error, serve::ErrorCode::kAlreadyActive);

  EXPECT_EQ(engine.cancel(id_q.id), serve::ErrorCode::kOk);
  EXPECT_EQ(engine.wait(id_q.id).state, serve::JobState::kCancelled);
  EXPECT_EQ(engine.resume(std::string("doomed")).error, serve::ErrorCode::kNotResumable);

  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  const auto again = engine.resume(std::string("runner"));
  EXPECT_EQ(again.error, serve::ErrorCode::kOk);
  EXPECT_EQ(again.id, id.id);
  // No-op: still done, nothing requeued.
  EXPECT_EQ(engine.status(id.id).state, serve::JobState::kDone);
  EXPECT_EQ(engine.resume(std::string("nope")).error, serve::ErrorCode::kUnknownJob);
}

TEST(JobEngine, CancelDeletesCheckpointFilesAndIsTerminal) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id_hog = engine.submit(tiny_job("hog", serve::JobKind::kScf, 0));
  const auto id = engine.submit(tiny_job("gone", serve::JobKind::kAbsorption, 1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/gone.spec.ckpt"));
  EXPECT_EQ(engine.cancel(id.id), serve::ErrorCode::kOk);
  EXPECT_EQ(engine.wait(id.id).state, serve::JobState::kCancelled);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/gone.spec.ckpt"));
  EXPECT_EQ(engine.cancel(id.id), serve::ErrorCode::kOk);  // idempotent
  engine.wait(id_hog.id);
}

TEST(JobEngine, CostEstimateGrowsWithCellsAndSteps) {
  // Larger cells cost more in the calibrated model.
  const double small = serve::JobEngine::cost_estimate(
      tiny_job("a", serve::JobKind::kAbsorption, 2));
  auto big_spec = tiny_job("b", serve::JobKind::kAbsorption, 2);
  big_spec.sim.cells[0] = 2;
  const double big = serve::JobEngine::cost_estimate(big_spec);
  EXPECT_GT(big, small);
  // More steps cost proportionally more.
  EXPECT_EQ(serve::JobEngine::cost_estimate(tiny_job("c", serve::JobKind::kAbsorption, 4)),
            2.0 * serve::JobEngine::cost_estimate(tiny_job("c", serve::JobKind::kAbsorption, 2)));
}

// A finished job's thread is joined at the next admission, so an
// engine that runs job after job keeps no stack of a job that has ended.
TEST(JobEngine, FinishedJobThreadsAreJoined) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto run_scf = [&](int k) {
    // The job only carries a thread; two SCF iterations keep it short.
    auto spec = tiny_job("lda" + std::to_string(k), serve::JobKind::kScf, 0);
    spec.sim = serve_test::tiny_sim(/*hybrid=*/false);
    spec.sim.scf.max_iter = 2;
    const auto sub = engine.submit(spec);
    ASSERT_TRUE(sub.ok()) << sub.message;
    const auto st = engine.wait(sub.id);
    ASSERT_EQ(st.state, serve::JobState::kDone) << st.message;
  };
  constexpr int kWarmup = 2, kJobs = 16;
  for (int k = 0; k < kWarmup; ++k) run_scf(k);
  const std::size_t before = serve_test::proc_status("VmSize:");
  for (int k = kWarmup; k < kJobs; ++k) run_scf(k);
  const std::size_t after = serve_test::proc_status("VmSize:");
  EXPECT_LT(after, before + 4 * serve_test::thread_stack_kb())
      << "VmSize grew from " << before << " kB to " << after << " kB over "
      << kJobs - kWarmup << " jobs";
}

// The api_redesign pin: every rejection is a typed ErrorCode, not an
// exception — in-process callers see exactly what remote clients see.
TEST(JobEngine, RejectionsAreTypedErrorCodes) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto spec = tiny_job("dup", serve::JobKind::kScf, 0);
  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.submit(spec).error, serve::ErrorCode::kDuplicateName);
  EXPECT_EQ(engine.status(99).error, serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.preempt(99), serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.cancel(99), serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.resume(static_cast<serve::JobId>(99)).error, serve::ErrorCode::kUnknownJob);
  serve::JobSpec unnamed;
  EXPECT_EQ(engine.submit(unnamed).error, serve::ErrorCode::kInvalidSpec);
  engine.wait(id.id);
}

// A snapshot that cannot be written (the file-size limit stands in for a full
// disk) fails the job with a typed kIoError naming the file, leaving no temp.
TEST(JobEngine, SnapshotWriteFailureFailsJobWithIoError) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const serve::JobStatus st = [&] {  // the limit is lifted before any EXPECT prints
    test::FileSizeLimit limit(4096);  // above the spec frame, below the ground state
    return engine.wait(engine.submit(tiny_job("diskfull", serve::JobKind::kAbsorption, 2)).id);
  }();
  EXPECT_EQ(st.state, serve::JobState::kFailed);
  EXPECT_EQ(st.error, serve::ErrorCode::kIoError) << st.message;
  EXPECT_NE(st.message.find(dir.path + "/diskfull.gs.ckpt"), std::string::npos) << st.message;
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/diskfull.gs.ckpt.tmp"));
}

// The name is reserved under the engine lock before the spec write, which
// runs without it: of N racing submits of one name exactly one is accepted.
TEST(JobEngine, ConcurrentSubmitsOfOneNameAcceptExactlyOne) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto spec = tiny_job("same", serve::JobKind::kScf, 0);
  spec.sim = serve_test::tiny_sim(/*hybrid=*/false);
  spec.sim.scf.max_iter = 2;
  constexpr int kThreads = 8;
  std::vector<serve::SubmitResult> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = engine.submit(spec);
    });
  for (auto& th : threads) th.join();
  int accepted = 0, duplicates = 0;
  serve::JobId id = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++accepted;
      id = r.id;
    }
    if (r.error == serve::ErrorCode::kDuplicateName) ++duplicates;
  }
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(duplicates, kThreads - 1);
  EXPECT_EQ(engine.job_count(), 1u);
  EXPECT_EQ(engine.wait(id).state, serve::JobState::kDone);
}

// A spec that cannot be made durable is not accepted: the submit returns
// kIoError, registers no job, and frees the name for a later submit.
TEST(JobEngine, SpecWriteFailureReturnsIoErrorAndFreesTheName) {
  ScratchDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto spec = tiny_job("nospace", serve::JobKind::kScf, 0);
  spec.sim = serve_test::tiny_sim(/*hybrid=*/false);
  spec.sim.scf.max_iter = 2;
  const serve::SubmitResult failed = [&] {  // the limit is lifted before any EXPECT prints
    test::FileSizeLimit limit(16);          // below any spec frame
    return engine.submit(spec);
  }();
  EXPECT_EQ(failed.error, serve::ErrorCode::kIoError) << failed.message;
  EXPECT_EQ(engine.job_count(), 0u);
  EXPECT_FALSE(engine.find("nospace").has_value());
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/nospace.spec.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/nospace.spec.ckpt.tmp"));

  const serve::SubmitResult again = engine.submit(spec);
  ASSERT_TRUE(again.ok()) << again.message;
  EXPECT_EQ(again.id, 0u);
  EXPECT_EQ(engine.wait(again.id).state, serve::JobState::kDone);
}

TEST(JobSpec, ValidateRejectsHostileAndUnphysicalSpecs) {
  const auto ok = tiny_job("fine.job-1", serve::JobKind::kAbsorption, 2);
  EXPECT_EQ(ok.validate(), serve::ErrorCode::kOk);

  std::string why;
  auto bad = ok;
  bad.name = "../../etc/passwd";  // names key checkpoint files: no traversal
  EXPECT_EQ(bad.validate(&why), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name = ".hidden";
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name.clear();
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name.assign(200, 'x');
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.steps = -1;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.dt_as = 0.0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.sim.cells[1] = 0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.sim.ecut = -3.0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  // The ACE cadence divides a counter: 0 (older clients' default) is typed.
  bad = ok;
  bad.sim.ace_refresh = 0;
  EXPECT_EQ(bad.validate(&why), serve::ErrorCode::kInvalidSpec);
  EXPECT_NE(why.find("ace_refresh"), std::string::npos) << why;

  // Checkpointed MTS is rejected: resume is bit-exact only at the default
  // per-step exchange cadence.
  bad = ok;
  bad.ptcn.mts_interval = 4;
  bad.checkpoint_every = 1;
  EXPECT_EQ(bad.validate(&why), serve::ErrorCode::kInvalidSpec);
  bad.checkpoint_every = 0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kOk);
}

TEST(JobEngineOptions, FromEnvResolvesEveryServeKnobStrictly) {
  ::setenv("PWDFT_SERVE_SLOTS", "7", 1);
  ::setenv("PWDFT_SERVE_CKPT_DIR", "/tmp/pwdft_serve_env_dir", 1);
  ::setenv("PWDFT_SERVE_RECOVER", "off", 1);
  auto opt = serve::JobEngineOptions::from_env();
  EXPECT_EQ(opt.max_running, 7u);
  EXPECT_EQ(opt.checkpoint_dir, "/tmp/pwdft_serve_env_dir");
  EXPECT_FALSE(opt.recover_on_start);

  ::setenv("PWDFT_SERVE_RECOVER", "on", 1);
  EXPECT_TRUE(serve::JobEngineOptions::from_env().recover_on_start);

  ::setenv("PWDFT_SERVE_SLOTS", "many", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);
  ::setenv("PWDFT_SERVE_SLOTS", "0", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);
  ::setenv("PWDFT_SERVE_SLOTS", "7", 1);
  ::setenv("PWDFT_SERVE_CKPT_DIR", "", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);

  ::unsetenv("PWDFT_SERVE_SLOTS");
  ::unsetenv("PWDFT_SERVE_CKPT_DIR");
  ::unsetenv("PWDFT_SERVE_RECOVER");
  const auto def = serve::JobEngineOptions::from_env();
  EXPECT_EQ(def.max_running, 2u);
  EXPECT_EQ(def.checkpoint_dir, "/tmp");
  EXPECT_FALSE(def.recover_on_start);
}

}  // namespace
}  // namespace pwdft
