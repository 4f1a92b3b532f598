#pragma once

/// \file server.hpp
/// serve::Server — the network front-end of the job engine. It binds one
/// listening socket ("unix:<path>" or "tcp:<host>:<port>", frame::listen_on),
/// accepts connections on a dedicated thread, and speaks the versioned frame
/// protocol of serve/wire.hpp on one thread per connection (a handler that
/// has ended is joined at the next accept), translating each request frame
/// into the matching JobEngine call:
///
///   kHello          → version handshake (kHelloOk | kError kVersionMismatch)
///   kSubmit         → engine.submit       → kSubmitOk | kError
///   kStatusReq      → engine.status       → kStatus (final) | kError
///   kWaitReq        → engine.wait         → terminal kStatus | kError
///   kStreamReq      → engine.wait_progress loop → one kStatus per step
///                     boundary, the last flagged final
///   kPreemptReq     → engine.preempt      → kAck
///   kCancelReq      → engine.cancel       → kAck
///   kResumeReq      → engine.resume(id)   → kSubmitOk | kError
///   kResumeNameReq  → engine.resume(name) → kSubmitOk | kError
///
/// Frames arrive from untrusted peers: every malformed frame (bad magic,
/// foreign version, oversized length, checksum mismatch, short payload,
/// trailing bytes) is answered with a typed kError frame and the connection
/// is dropped — after a framing error the stream position is undefined, so
/// resynchronizing would mean guessing. A request the engine rejects
/// (duplicate name, unknown id, invalid spec…) is NOT a framing error: the
/// typed result goes back and the connection stays up.
///
/// stop() is a drain, not a kill: the listener closes, connections are shut
/// down, running jobs finish their current run, and queued jobs stay on
/// disk as durable specs — the state JobEngine::recover() replays after a
/// restart. A real crash (kill -9) skips all of this and recovery works the
/// same way; tests/test_server.cpp pins that path.

#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/frame.hpp"
#include "serve/job_engine.hpp"
#include "serve/wire.hpp"

namespace pwdft::serve {

struct ServerOptions {
  /// frame::listen_on address. "tcp:127.0.0.1:0" picks an ephemeral port;
  /// the resolved address is Server::address().
  std::string listen = "unix:/tmp/pwdft-serve.sock";
  JobEngineOptions engine;

  /// Everything the serve front-end reads from the environment, resolved in
  /// one place: PWDFT_SERVE_LISTEN (listen address) plus the engine knobs
  /// of JobEngineOptions::from_env (PWDFT_SERVE_SLOTS,
  /// PWDFT_SERVE_CKPT_DIR, PWDFT_SERVE_RECOVER).
  static ServerOptions from_env();
};

class Server {
 public:
  /// Binds, recovers (when opt.engine.recover_on_start), and starts
  /// accepting. Throws pwdft::Error on an unusable address — server startup
  /// is an environment error, unlike anything a peer can send.
  explicit Server(ServerOptions opt);
  ~Server();  ///< stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolved listen address (ephemeral tcp port filled in) — what a
  /// Client dials.
  const std::string& address() const { return listener_.address; }

  /// The engine behind the socket, for in-process co-tenants and tests.
  JobEngine& engine() { return engine_; }

  /// Drain shutdown (see file comment). Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Dispatches one request frame; false ends the connection.
  bool handle(int fd, const wire::Frame& frame);

  ServerOptions opt_;
  JobEngine engine_;
  frame::Listener listener_;  ///< closed only after accept_thread_ is joined
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<int> conn_fds_;  ///< fds with a live handler thread
  std::vector<std::thread> conn_threads_;
  /// Handlers that have ended and wait to be joined by the next accept.
  std::vector<std::thread::id> finished_;
  bool stopping_ = false;  // guarded by conns_mu_
};

}  // namespace pwdft::serve
