#include "serve/client.hpp"

#include <unistd.h>

#include <utility>

#include "common/check.hpp"
#include "common/frame.hpp"

namespace pwdft::serve {

namespace {

/// Decodes a kError frame; falls back to kBadFrame when even that payload
/// is malformed.
void decode_error(const wire::Frame& frame, ErrorCode* code, std::string* message) {
  frame::GetBuf in(frame.payload);
  const auto c = static_cast<ErrorCode>(in.u32());
  std::string m = in.str();
  if (!in.exhausted()) {
    *code = ErrorCode::kBadFrame;
    *message = "malformed error frame from server";
    return;
  }
  *code = c;
  *message = std::move(m);
}

SubmitResult submit_reply(ErrorCode rc, const wire::Frame& frame) {
  SubmitResult r;
  if (rc != ErrorCode::kOk) {
    r.error = rc;
    r.message = std::string("transport failure: ") + error_name(rc);
    return r;
  }
  if (frame.type == wire::MsgType::kError) {
    decode_error(frame, &r.error, &r.message);
    return r;
  }
  frame::GetBuf in(frame.payload);
  const std::uint64_t id = in.u64();
  if (frame.type != wire::MsgType::kSubmitOk || !in.exhausted()) {
    r.error = ErrorCode::kBadFrame;
    r.message = "unexpected reply frame";
    return r;
  }
  r.id = static_cast<std::size_t>(id);
  return r;
}

/// Decodes a kStatus frame into (final, status); false on malformed bytes.
bool decode_status(const wire::Frame& frame, bool* final, JobStatus* status) {
  if (frame.type != wire::MsgType::kStatus) return false;
  frame::GetBuf in(frame.payload);
  *final = in.u8() != 0;
  return wire::get_status(in, status) && in.exhausted();
}

JobStatus status_reply(ErrorCode rc, const wire::Frame& frame) {
  JobStatus s;
  if (rc != ErrorCode::kOk) {
    s.error = rc;
    s.message = std::string("transport failure: ") + error_name(rc);
    return s;
  }
  if (frame.type == wire::MsgType::kError) {
    decode_error(frame, &s.error, &s.message);
    return s;
  }
  bool final = false;
  if (!decode_status(frame, &final, &s)) {
    s = JobStatus{};
    s.error = ErrorCode::kBadFrame;
    s.message = "unexpected reply frame";
  }
  return s;
}

ErrorCode ack_reply(ErrorCode rc, const wire::Frame& frame) {
  if (rc != ErrorCode::kOk) return rc;
  if (frame.type == wire::MsgType::kError) {
    ErrorCode code = ErrorCode::kBadFrame;
    std::string ignored;
    decode_error(frame, &code, &ignored);
    return code;
  }
  frame::GetBuf in(frame.payload);
  const auto code = static_cast<ErrorCode>(in.u32());
  if (frame.type != wire::MsgType::kAck || !in.exhausted()) return ErrorCode::kBadFrame;
  return code;
}

}  // namespace

Client::Client(const std::string& address) : fd_(frame::dial(address)) {
  frame::PutBuf hello;
  hello.u32(wire::kProtocolVersion);
  ErrorCode rc = wire::send_frame(fd_, wire::MsgType::kHello, hello.bytes());
  wire::Frame reply;
  if (rc == ErrorCode::kOk) rc = wire::recv_frame(fd_, &reply);
  if (rc != ErrorCode::kOk) {
    close();
    PWDFT_CHECK(false, "handshake with " << address << " failed: " << error_name(rc));
  }
  if (reply.type != wire::MsgType::kHelloOk) {
    ErrorCode code = ErrorCode::kBadFrame;
    std::string message = "unexpected handshake reply";
    if (reply.type == wire::MsgType::kError) decode_error(reply, &code, &message);
    close();
    PWDFT_CHECK(false, "server at " << address << " rejected handshake (" << error_name(code)
                                    << "): " << message);
  }
  frame::GetBuf in(reply.payload);
  const std::uint32_t version = in.u32();
  if (!in.exhausted() || version != wire::kProtocolVersion) {
    close();
    PWDFT_CHECK(false, "server at " << address << " speaks protocol version " << version
                                    << ", this client speaks " << wire::kProtocolVersion);
  }
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ErrorCode Client::roundtrip(wire::MsgType type, const std::vector<std::uint8_t>& payload,
                            wire::Frame* reply) {
  if (fd_ < 0) return ErrorCode::kClosed;
  const ErrorCode rc = wire::send_frame(fd_, type, payload);
  if (rc != ErrorCode::kOk) return rc;
  return wire::recv_frame(fd_, reply);
}

ErrorCode Client::id_request(wire::MsgType type, std::size_t id, wire::Frame* reply) {
  frame::PutBuf p;
  p.u64(id);
  return roundtrip(type, p.bytes(), reply);
}

SubmitResult Client::submit(const JobSpec& spec) {
  frame::PutBuf p;
  wire::put_spec(p, spec);
  wire::Frame reply;
  return submit_reply(roundtrip(wire::MsgType::kSubmit, p.bytes(), &reply), reply);
}

JobStatus Client::status(std::size_t id) {
  wire::Frame reply;
  return status_reply(id_request(wire::MsgType::kStatusReq, id, &reply), reply);
}

JobStatus Client::wait(std::size_t id) {
  wire::Frame reply;
  return status_reply(id_request(wire::MsgType::kWaitReq, id, &reply), reply);
}

ErrorCode Client::preempt(std::size_t id) {
  wire::Frame reply;
  return ack_reply(id_request(wire::MsgType::kPreemptReq, id, &reply), reply);
}

ErrorCode Client::cancel(std::size_t id) {
  wire::Frame reply;
  return ack_reply(id_request(wire::MsgType::kCancelReq, id, &reply), reply);
}

SubmitResult Client::resume(std::size_t id) {
  wire::Frame reply;
  return submit_reply(id_request(wire::MsgType::kResumeReq, id, &reply), reply);
}

SubmitResult Client::resume(const std::string& name) {
  frame::PutBuf p;
  p.str(name);
  wire::Frame reply;
  return submit_reply(roundtrip(wire::MsgType::kResumeNameReq, p.bytes(), &reply), reply);
}

JobStatus Client::stream(std::size_t id,
                         const std::function<void(const JobStatus&)>& on_update) {
  wire::Frame reply;
  ErrorCode rc = id_request(wire::MsgType::kStreamReq, id, &reply);
  for (;;) {
    JobStatus s = status_reply(rc, reply);
    if (!s.ok() && s.error != ErrorCode::kShutdown) return s;  // typed failure ends the stream
    bool final = true;
    decode_status(reply, &final, &s);  // re-read the final flag (validated above)
    if (on_update) on_update(s);
    if (final) return s;
    rc = (fd_ < 0) ? ErrorCode::kClosed : wire::recv_frame(fd_, &reply);
  }
}

}  // namespace pwdft::serve
