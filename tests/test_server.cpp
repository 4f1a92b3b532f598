#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve_test_util.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

using test::ScratchDir;
using serve_test::expect_traces_identical;
using serve_test::solo_trace;
using serve_test::tiny_job;

// --- wire codec ------------------------------------------------------------

TEST(WireProtocol, SpecFrameRoundTripsBitExact) {
  auto spec = tiny_job("wire.spec-1", serve::JobKind::kLaser, 7);
  spec.field.laser_e0 = 0.0375;
  spec.priority = -3;
  spec.checkpoint_every = 2;
  spec.sim.seed = 1234;

  frame::PutBuf p;
  serve::wire::put_spec(p, spec);
  const auto bytes = serve::wire::encode_frame(serve::wire::MsgType::kSubmit, p.bytes());

  serve::wire::Frame frame;
  ASSERT_EQ(serve::wire::decode_frame(bytes.data(), bytes.size(), &frame),
            serve::ErrorCode::kOk);
  EXPECT_EQ(frame.type, serve::wire::MsgType::kSubmit);
  frame::GetBuf in(frame.payload);
  serve::JobSpec back;
  ASSERT_TRUE(serve::wire::get_spec(in, &back));
  EXPECT_TRUE(in.exhausted());

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.steps, spec.steps);
  EXPECT_EQ(back.checkpoint_every, spec.checkpoint_every);
  EXPECT_EQ(back.dt_as, spec.dt_as);  // bitwise: doubles travel as images
  EXPECT_EQ(back.field.kind, spec.field.kind);
  EXPECT_EQ(back.field.laser_e0, spec.field.laser_e0);
  EXPECT_EQ(back.sim.cells[0], spec.sim.cells[0]);
  EXPECT_EQ(back.sim.ecut, spec.sim.ecut);
  EXPECT_EQ(back.sim.hybrid, spec.sim.hybrid);
  EXPECT_EQ(back.sim.seed, spec.sim.seed);
  EXPECT_EQ(back.sim.scf.tol_rho, spec.sim.scf.tol_rho);
  EXPECT_EQ(back.ptcn.rho_tol, spec.ptcn.rho_tol);
  EXPECT_EQ(back.validate(), serve::ErrorCode::kOk);
}

TEST(WireProtocol, StatusFrameRoundTripsTraceBitwise) {
  serve::JobStatus status;
  status.state = serve::JobState::kPreempted;
  status.steps_done = 5;
  status.model_cost = 12.5;
  status.scf_energy = -31.0625;
  status.preemptions = 2;
  status.error = serve::ErrorCode::kOk;
  status.message = "checkpointed at step 5";
  status.trace.resize(2);
  status.trace[0].t = 0.0625;
  status.trace[0].current = {1e-3, -2e-3, 3e-3};
  status.trace[0].n_excited = 0.015625;
  status.trace[0].energy = -31.25;
  status.trace[0].scf_iterations = 4;
  status.trace[0].rho_error = 1e-8;
  status.trace[0].exchange_refreshed = true;
  status.trace[1].t = 0.125;
  status.trace[1].mts_drift = 5e-9;

  frame::PutBuf p;
  serve::wire::put_status(p, status);
  frame::GetBuf in(p.bytes());
  serve::JobStatus back;
  ASSERT_TRUE(serve::wire::get_status(in, &back));
  EXPECT_TRUE(in.exhausted());

  EXPECT_EQ(back.state, status.state);
  EXPECT_EQ(back.steps_done, status.steps_done);
  EXPECT_EQ(back.model_cost, status.model_cost);
  EXPECT_EQ(back.scf_energy, status.scf_energy);
  EXPECT_EQ(back.preemptions, status.preemptions);
  EXPECT_EQ(back.error, status.error);
  EXPECT_EQ(back.message, status.message);
  expect_traces_identical(back.trace, status.trace, "status trace");
}

// The fuzz pin of the satellite list: EVERY truncation and EVERY single-byte
// corruption of a valid frame must yield a typed error — never kOk, never a
// crash, never a giant allocation.
TEST(WireProtocol, EveryTruncationAndByteFlipIsRejectedTyped) {
  frame::PutBuf p;
  serve::wire::put_spec(p, tiny_job("fuzzed", serve::JobKind::kAbsorption, 3));
  const auto bytes = serve::wire::encode_frame(serve::wire::MsgType::kSubmit, p.bytes());
  serve::wire::Frame frame;

  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_NE(serve::wire::decode_frame(bytes.data(), n, &frame), serve::ErrorCode::kOk)
        << "truncation to " << n << " bytes";

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x5a;
    EXPECT_NE(serve::wire::decode_frame(corrupt.data(), corrupt.size(), &frame),
              serve::ErrorCode::kOk)
        << "byte flip at offset " << i;
  }

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_NE(serve::wire::decode_frame(trailing.data(), trailing.size(), &frame),
            serve::ErrorCode::kOk);

  // The specific failure taxonomy on the header fields.
  auto bad = bytes;
  bad[0] = 'X';  // magic
  EXPECT_EQ(serve::wire::decode_frame(bad.data(), bad.size(), &frame),
            serve::ErrorCode::kBadFrame);
  // Version byte: the next version, and the previous one (a client or a
  // .spec.ckpt of the last payload layout).
  for (const std::uint32_t v :
       {serve::wire::kProtocolVersion + 1, serve::wire::kProtocolVersion - 1}) {
    bad = bytes;
    bad[7] = static_cast<std::uint8_t>('0' + v);
    EXPECT_EQ(serve::wire::decode_frame(bad.data(), bad.size(), &frame),
              serve::ErrorCode::kVersionMismatch)
        << "version " << v;
  }
  bad = bytes;
  bad[bad.size() - 1] ^= 1;  // checksum
  EXPECT_EQ(serve::wire::decode_frame(bad.data(), bad.size(), &frame),
            serve::ErrorCode::kChecksumMismatch);
  // A hostile payload length never allocates: cap enforced before use.
  bad = bytes;
  bad[18] = 0xff;  // high byte of the u64 length field
  EXPECT_EQ(serve::wire::decode_frame(bad.data(), bad.size(), &frame),
            serve::ErrorCode::kFrameTooLarge);
}

TEST(WireProtocol, SpecFileSurvivesRoundTripAndRejectsCorruption) {
  ScratchDir dir("spec_file_roundtrip");
  const std::string path = dir.path + "/job.spec.ckpt";
  const auto spec = tiny_job("durable", serve::JobKind::kLaser, 4);
  serve::wire::save_spec_file(path, spec);

  serve::JobSpec back;
  ASSERT_EQ(serve::wire::load_spec_file(path, &back), serve::ErrorCode::kOk);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.dt_as, spec.dt_as);

  std::string why;
  EXPECT_EQ(serve::wire::load_spec_file(dir.path + "/absent.spec.ckpt", &back, &why),
            serve::ErrorCode::kIoError);

  // Corrupt one byte on disk: typed rejection, exactly as over the network.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 30, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 30, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  EXPECT_NE(serve::wire::load_spec_file(path, &back, &why), serve::ErrorCode::kOk);
}

// --- loopback client <-> server --------------------------------------------

TEST(JobServer, LoopbackSubmitStreamPreemptResumeCancelOverTcp) {
  const auto spec_abs = tiny_job("abs", serve::JobKind::kAbsorption, 2);
  const auto ref_abs = solo_trace(spec_abs);
  auto spec_laser = tiny_job("laser", serve::JobKind::kLaser, 3);
  spec_laser.field.laser_e0 = 0.05;
  spec_laser.checkpoint_every = 1;
  const auto ref_laser = solo_trace(spec_laser);

  ScratchDir dir("loopback_tcp");
  serve::ServerOptions sopt;
  sopt.listen = "tcp:127.0.0.1:0";
  sopt.engine.max_running = 2;
  sopt.engine.checkpoint_dir = dir.path;
  serve::Server server(sopt);
  ASSERT_NE(server.address(), "tcp:127.0.0.1:0") << "ephemeral port must be resolved";

  serve::Client client(server.address());

  // Submit + stream: one status per step boundary, final one terminal, and
  // the remote trace is bit-identical to the solo run.
  const auto sub = client.submit(spec_abs);
  ASSERT_TRUE(sub.ok()) << sub.message;
  std::size_t updates = 0;
  std::uint64_t last_steps = 0;
  const auto done = client.stream(sub.id, [&](const serve::JobStatus& s) {
    ++updates;
    EXPECT_GE(s.steps_done, last_steps);  // progress is monotone
    last_steps = s.steps_done;
  });
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  EXPECT_GE(updates, 2u);  // at least one live snapshot plus the final one
  EXPECT_EQ(done.steps_done, 2u);
  expect_traces_identical(done.trace, ref_abs, "streamed absorption");

  // Typed engine rejections pass through the wire unchanged.
  EXPECT_EQ(client.submit(spec_abs).error, serve::ErrorCode::kDuplicateName);
  serve::JobSpec hostile = spec_abs;
  hostile.name = "../escape";
  EXPECT_EQ(client.submit(hostile).error, serve::ErrorCode::kInvalidSpec);
  EXPECT_EQ(client.status(999).error, serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(client.preempt(999), serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(client.resume(std::string("nope")).error, serve::ErrorCode::kUnknownJob);

  // Preempt mid-run, resume by name, finish bit-identically — all remote.
  const auto lsub = client.submit(spec_laser);
  ASSERT_TRUE(lsub.ok()) << lsub.message;
  EXPECT_EQ(client.preempt(lsub.id), serve::ErrorCode::kOk);
  auto killed = client.wait(lsub.id);
  ASSERT_EQ(killed.state, serve::JobState::kPreempted) << killed.message;
  EXPECT_LT(killed.steps_done, 3u);
  const auto res = client.resume(std::string("laser"));
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(res.id, lsub.id);
  const auto ldone = client.wait(lsub.id);
  ASSERT_EQ(ldone.state, serve::JobState::kDone) << ldone.message;
  expect_traces_identical(ldone.trace, ref_laser, "remote preempt+resume");

  // Cancel: terminal state kCancelled, resume refused, all typed.
  const auto csub = client.submit(tiny_job("doomed", serve::JobKind::kAbsorption, 1));
  ASSERT_TRUE(csub.ok());
  EXPECT_EQ(client.cancel(csub.id), serve::ErrorCode::kOk);
  const auto cst = client.wait(csub.id);
  EXPECT_EQ(cst.state, serve::JobState::kCancelled);
  EXPECT_EQ(client.resume(std::string("doomed")).error, serve::ErrorCode::kNotResumable);
}

TEST(JobServer, UnixSocketLoopbackRunsScfJob) {
  ScratchDir dir("loopback_unix");
  serve::ServerOptions sopt;
  sopt.listen = "unix:" + dir.path + "/serve.sock";
  sopt.engine.checkpoint_dir = dir.path;
  serve::Server server(sopt);
  EXPECT_EQ(server.address(), sopt.listen);

  serve::Client client(server.address());
  const auto sub = client.submit(tiny_job("probe", serve::JobKind::kScf, 0));
  ASSERT_TRUE(sub.ok()) << sub.message;
  const auto st = client.wait(sub.id);
  ASSERT_EQ(st.state, serve::JobState::kDone) << st.message;
  EXPECT_TRUE(std::isfinite(st.scf_energy));
  EXPECT_LT(st.scf_energy, 0.0);
}

// A connection's handler thread is joined at the next accept, so a server
// that takes connection after connection keeps no stack of one that ended.
TEST(JobServer, FinishedConnectionThreadsAreJoined) {
  ScratchDir dir("conn_reap");
  serve::ServerOptions sopt;
  sopt.listen = "unix:" + dir.path + "/serve.sock";
  sopt.engine.checkpoint_dir = dir.path;
  serve::Server server(sopt);
  // One connection at a time: the client waits for each handler to end
  // before it dials again, so the measurement sees the joining, not how
  // many handlers (each with its own stack and malloc arena) a fast client
  // can overlap.
  const std::size_t idle_threads = serve_test::proc_status("Threads:");
  const auto hello_then_close = [&] {
    { serve::Client hello(server.address()); }
    for (WallTimer t; serve_test::proc_status("Threads:") > idle_threads && t.seconds() < 10;)
      std::this_thread::yield();
  };
  constexpr int kWarmup = 20, kConnections = 500;
  for (int k = 0; k < kWarmup; ++k) hello_then_close();
  const std::size_t before = serve_test::proc_status("VmSize:");
  for (int k = 0; k < kConnections; ++k) hello_then_close();
  const std::size_t after = serve_test::proc_status("VmSize:");
  EXPECT_LT(after, before + 4 * serve_test::thread_stack_kb())
      << "VmSize grew from " << before << " kB to " << after << " kB over " << kConnections
      << " connections";
}

// Malformed traffic from a hostile or broken peer: every failure mode is
// answered with a typed kError frame, then the connection is dropped.
TEST(JobServer, MalformedFramesAreRejectedWithTypedErrors) {
  ScratchDir dir("malformed");
  serve::ServerOptions sopt;
  sopt.listen = "unix:" + dir.path + "/serve.sock";
  sopt.engine.checkpoint_dir = dir.path;
  serve::Server server(sopt);

  const auto read_error = [](int fd) {
    serve::wire::Frame reply;
    EXPECT_EQ(serve::wire::recv_frame(fd, &reply), serve::ErrorCode::kOk);
    EXPECT_EQ(reply.type, serve::wire::MsgType::kError);
    frame::GetBuf in(reply.payload);
    const auto code = static_cast<serve::ErrorCode>(in.u32());
    in.str();  // message
    EXPECT_TRUE(in.exhausted());
    return code;
  };
  const auto handshake = [](int fd) {
    frame::PutBuf hello;
    hello.u32(serve::wire::kProtocolVersion);
    ASSERT_EQ(serve::wire::send_frame(fd, serve::wire::MsgType::kHello, hello.bytes()),
              serve::ErrorCode::kOk);
    serve::wire::Frame reply;
    ASSERT_EQ(serve::wire::recv_frame(fd, &reply), serve::ErrorCode::kOk);
    ASSERT_EQ(reply.type, serve::wire::MsgType::kHelloOk);
  };

  // Garbage instead of a hello: kBadFrame, connection closed.
  {
    const int fd = frame::dial(server.address());
    const std::vector<std::uint8_t> garbage(64, 0xab);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    EXPECT_EQ(read_error(fd), serve::ErrorCode::kBadFrame);
    // The server dropped the connection (it closes with our unsent garbage
    // still unread, so this may surface as a reset rather than a clean EOF).
    serve::wire::Frame reply;
    const auto after = serve::wire::recv_frame(fd, &reply);
    EXPECT_TRUE(after == serve::ErrorCode::kClosed || after == serve::ErrorCode::kTruncated)
        << error_name(after);
    ::close(fd);
  }

  // Foreign protocol version in the hello: kVersionMismatch.
  {
    const int fd = frame::dial(server.address());
    frame::PutBuf hello;
    hello.u32(99);
    ASSERT_EQ(serve::wire::send_frame(fd, serve::wire::MsgType::kHello, hello.bytes()),
              serve::ErrorCode::kOk);
    EXPECT_EQ(read_error(fd), serve::ErrorCode::kVersionMismatch);
    ::close(fd);
  }

  // Valid handshake, then a bit-flipped request: kChecksumMismatch.
  {
    const int fd = frame::dial(server.address());
    handshake(fd);
    frame::PutBuf req;
    req.u64(0);
    auto bytes = serve::wire::encode_frame(serve::wire::MsgType::kStatusReq, req.bytes());
    bytes[serve::wire::kFrameHeaderBytes] ^= 0x10;  // first payload byte
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    EXPECT_EQ(read_error(fd), serve::ErrorCode::kChecksumMismatch);
    ::close(fd);
  }

  // Valid handshake, then a frame cut off mid-payload: kTruncated.
  {
    const int fd = frame::dial(server.address());
    handshake(fd);
    frame::PutBuf req;
    req.u64(0);
    const auto bytes = serve::wire::encode_frame(serve::wire::MsgType::kStatusReq, req.bytes());
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size() - 5, MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size() - 5));
    ::shutdown(fd, SHUT_WR);
    EXPECT_EQ(read_error(fd), serve::ErrorCode::kTruncated);
    ::close(fd);
  }

  // The server is still healthy after all of that.
  serve::Client client(server.address());
  EXPECT_EQ(client.status(0).error, serve::ErrorCode::kUnknownJob);
}

// --- kill -9 the whole process, restart, resume -----------------------------

serve::JobSpec child_spec_a() {
  auto spec = tiny_job("restart.a", serve::JobKind::kLaser, 3);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  return spec;
}

serve::JobSpec child_spec_b() {
  auto spec = tiny_job("restart.b", serve::JobKind::kAbsorption, 3);
  spec.checkpoint_every = 1;
  return spec;
}

// Child-process body (runs only under --gtest_filter from the test below):
// submit both jobs, then SIGKILL ourselves once each has at least one
// snapshot on disk. Live progress is published only AFTER the cadence
// snapshot is written, so observing steps_done >= 1 guarantees snapshot 1
// exists — the kill always lands mid-trajectory with recoverable state.
//
// The ground state dominates a job's run time (a propagation step is a few
// percent of it), and co-resident tenants share the pool unevenly, so one
// job can run all three steps before the other leaves its ground state.
// The job seen first past snapshot 1 is therefore held with a cooperative
// preempt (it stops at its next step boundary, before its horizon, with a
// snapshot on disk) and resumed just before the kill, so the kill lands
// with both jobs admitted and mid-trajectory.
TEST(JobServerChildProcess, RunJobsUntilKilled) {
  const char* dir = std::getenv("PWDFT_SERVE_TEST_CHILD_DIR");
  if (!dir) GTEST_SKIP() << "child-process helper; driven by the restart test";
  serve::JobEngineOptions eopt;
  eopt.max_running = 2;
  eopt.checkpoint_dir = dir;
  serve::JobEngine engine(eopt);
  const auto a = engine.submit(child_spec_a());
  const auto b = engine.submit(child_spec_b());
  ASSERT_TRUE(a.ok() && b.ok());
  bool held_a = false, held_b = false;
  for (;;) {
    const auto sa = engine.status(a.id);
    const auto sb = engine.status(b.id);
    // Any terminal state other than our own hold is a bug, not a kill
    // window: exit cleanly so the parent reports it instead of hanging.
    const auto unexpected_stop = [](const serve::JobStatus& s, bool held) {
      return serve::is_terminal(s.state) && !(held && s.state == serve::JobState::kPreempted);
    };
    if (unexpected_stop(sa, held_a) || unexpected_stop(sb, held_b)) ::_exit(3);
    if (sa.steps_done >= 1 && sb.steps_done >= 1) {
      if (sa.state == serve::JobState::kPreempted && !engine.resume(a.id).ok()) ::_exit(4);
      if (sb.state == serve::JobState::kPreempted && !engine.resume(b.id).ok()) ::_exit(4);
      ::raise(SIGKILL);
    }
    if (sa.steps_done >= 1 && !held_a) held_a = engine.preempt(a.id) == serve::ErrorCode::kOk;
    if (sb.steps_done >= 1 && !held_b) held_b = engine.preempt(b.id) == serve::ErrorCode::kOk;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// The restart acceptance pin: kill -9 a server process with two running
// jobs, restart with the same checkpoint dir, and every job resumes and
// completes with a trajectory bit-identical to an uninterrupted run.
TEST(JobServer, KillNineThenRestartResumesEveryJobBitIdentically) {
  const auto ref_a = solo_trace(child_spec_a());
  const auto ref_b = solo_trace(child_spec_b());

  ScratchDir dir("kill9_restart");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("PWDFT_SERVE_TEST_CHILD_DIR", dir.path.c_str(), 1);
    ::execl("/proc/self/exe", "test_server",
            "--gtest_filter=JobServerChildProcess.RunJobsUntilKilled",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child must die by its own SIGKILL, not exit cleanly "
                                    << "(exit status " << wstatus << ")";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Restart: a fresh server over the same checkpoint dir re-registers both
  // interrupted jobs from their durable specs and finishes them.
  serve::ServerOptions sopt;
  sopt.listen = "unix:" + dir.path + "/serve.sock";
  sopt.engine.max_running = 2;
  sopt.engine.checkpoint_dir = dir.path;
  sopt.engine.recover_on_start = true;
  serve::Server server(sopt);
  EXPECT_EQ(server.engine().job_count(), 2u);

  const auto id_a = server.engine().find("restart.a");
  const auto id_b = server.engine().find("restart.b");
  ASSERT_TRUE(id_a && id_b);

  serve::Client client(server.address());
  const auto done_a = client.wait(*id_a);
  ASSERT_EQ(done_a.state, serve::JobState::kDone) << done_a.message;
  EXPECT_EQ(done_a.steps_done, 3u);
  expect_traces_identical(done_a.trace, ref_a, "restarted job a");

  const auto done_b = client.wait(*id_b);
  ASSERT_EQ(done_b.state, serve::JobState::kDone) << done_b.message;
  EXPECT_EQ(done_b.steps_done, 3u);
  expect_traces_identical(done_b.trace, ref_b, "restarted job b");
}

}  // namespace
}  // namespace pwdft
