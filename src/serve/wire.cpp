#include "serve/wire.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.hpp"
#include "common/frame.hpp"
#include "io/frame_file.hpp"

namespace pwdft::serve::wire {

namespace {

/// The serve dialect of the shared frame codec (common/frame.hpp). The
/// byte format predates the shared module; the prefix and version byte are
/// wire-stable.
frame::Protocol protocol(std::uint64_t max_payload) {
  return {"PWDFTNW", kProtocolVersion, static_cast<std::uint32_t>(MsgType::kHello),
          static_cast<std::uint32_t>(MsgType::kSpecSnapshot), max_payload};
}

/// Collapses the shared transport statuses onto the wire-stable serve error
/// enum. kTimeout cannot occur (serve sets no socket timeouts) but maps to
/// kIoError rather than a default: the switch stays total.
ErrorCode to_error(frame::IoStatus s) {
  switch (s) {
    case frame::IoStatus::kOk: return ErrorCode::kOk;
    case frame::IoStatus::kClosed: return ErrorCode::kClosed;
    case frame::IoStatus::kTruncated: return ErrorCode::kTruncated;
    case frame::IoStatus::kBadMagic: return ErrorCode::kBadFrame;
    case frame::IoStatus::kBadType: return ErrorCode::kBadFrame;
    case frame::IoStatus::kVersionMismatch: return ErrorCode::kVersionMismatch;
    case frame::IoStatus::kTooLarge: return ErrorCode::kFrameTooLarge;
    case frame::IoStatus::kTrailingBytes: return ErrorCode::kBadFrame;
    case frame::IoStatus::kChecksumMismatch: return ErrorCode::kChecksumMismatch;
    case frame::IoStatus::kTimeout: return ErrorCode::kIoError;
    case frame::IoStatus::kIoError: return ErrorCode::kIoError;
  }
  return ErrorCode::kIoError;
}

}  // namespace

// --- frame codec -----------------------------------------------------------

std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload) {
  return frame::encode(protocol(kMaxFramePayload), static_cast<std::uint32_t>(type),
                       payload.data(), payload.size());
}

ErrorCode decode_frame(const std::uint8_t* data, std::size_t size, Frame* out,
                       std::uint64_t max_payload) {
  std::uint32_t type = 0;
  const frame::IoStatus s = frame::decode(protocol(max_payload), data, size, &type, &out->payload);
  out->type = static_cast<MsgType>(type);
  return to_error(s);
}

// --- message payload codecs ------------------------------------------------

void put_spec(frame::PutBuf& out, const JobSpec& spec) {
  out.str(spec.name);
  out.u32(static_cast<std::uint32_t>(spec.kind));
  out.i32(spec.priority);
  out.f64(spec.dt_as);
  out.i64(spec.steps);
  out.u64(spec.checkpoint_every);
  out.boolean(spec.record_energy);
  out.u32(static_cast<std::uint32_t>(spec.field.kind));
  for (int d = 0; d < 3; ++d) out.f64(spec.field.kick[d]);
  out.f64(spec.field.laser_e0);
  for (int d = 0; d < 3; ++d) out.i32(spec.sim.cells[d]);
  out.f64(spec.sim.ecut);
  out.i32(spec.sim.dense_factor);
  out.boolean(spec.sim.hybrid);
  out.boolean(spec.sim.nonlocal);
  out.boolean(spec.sim.use_ace);
  out.i32(spec.sim.ace_refresh);
  out.u64(spec.sim.seed);
  out.boolean(spec.sim.hybrid_params.enabled);
  out.f64(spec.sim.hybrid_params.alpha);
  out.f64(spec.sim.hybrid_params.omega);
  out.i32(spec.sim.scf.max_iter);
  out.f64(spec.sim.scf.tol_rho);
  out.f64(spec.sim.scf.mix_beta);
  out.u64(spec.sim.scf.anderson_depth);
  out.i32(spec.sim.scf.lobpcg.max_iter);
  out.f64(spec.sim.scf.lobpcg.tol);
  out.boolean(spec.sim.scf.lobpcg.verbose);
  out.i32(spec.sim.scf.hybrid_outer_max);
  out.f64(spec.sim.scf.hybrid_outer_tol);
  out.boolean(spec.sim.scf.verbose);
  out.f64(spec.ptcn.dt);
  out.f64(spec.ptcn.rho_tol);
  out.i32(spec.ptcn.max_scf);
  out.u64(spec.ptcn.anderson_depth);
  out.f64(spec.ptcn.anderson_beta);
  out.boolean(spec.ptcn.sp_comm);
  out.i32(spec.ptcn.mts_interval);
  out.f64(spec.ptcn.mts_drift_tol);
}

bool get_spec(frame::GetBuf& in, JobSpec* spec) {
  JobSpec s;
  s.name = in.str();
  s.kind = static_cast<JobKind>(in.u32());
  s.priority = in.i32();
  s.dt_as = in.f64();
  s.steps = static_cast<int>(in.i64());
  s.checkpoint_every = in.u64();
  s.record_energy = in.boolean();
  s.field.kind = static_cast<FieldSpec::Kind>(in.u32());
  for (int d = 0; d < 3; ++d) s.field.kick[d] = in.f64();
  s.field.laser_e0 = in.f64();
  for (int d = 0; d < 3; ++d) s.sim.cells[d] = in.i32();
  s.sim.ecut = in.f64();
  s.sim.dense_factor = in.i32();
  s.sim.hybrid = in.boolean();
  s.sim.nonlocal = in.boolean();
  s.sim.use_ace = in.boolean();
  s.sim.ace_refresh = in.i32();
  s.sim.seed = in.u64();
  s.sim.hybrid_params.enabled = in.boolean();
  s.sim.hybrid_params.alpha = in.f64();
  s.sim.hybrid_params.omega = in.f64();
  s.sim.scf.max_iter = in.i32();
  s.sim.scf.tol_rho = in.f64();
  s.sim.scf.mix_beta = in.f64();
  s.sim.scf.anderson_depth = in.u64();
  s.sim.scf.lobpcg.max_iter = in.i32();
  s.sim.scf.lobpcg.tol = in.f64();
  s.sim.scf.lobpcg.verbose = in.boolean();
  s.sim.scf.hybrid_outer_max = in.i32();
  s.sim.scf.hybrid_outer_tol = in.f64();
  s.sim.scf.verbose = in.boolean();
  s.ptcn.dt = in.f64();
  s.ptcn.rho_tol = in.f64();
  s.ptcn.max_scf = in.i32();
  s.ptcn.anderson_depth = in.u64();
  s.ptcn.anderson_beta = in.f64();
  s.ptcn.sp_comm = in.boolean();
  s.ptcn.mts_interval = in.i32();
  s.ptcn.mts_drift_tol = in.f64();
  if (!in.ok()) return false;
  *spec = std::move(s);
  return true;
}

void put_status(frame::PutBuf& out, const JobStatus& status) {
  out.u32(static_cast<std::uint32_t>(status.state));
  out.u32(static_cast<std::uint32_t>(status.error));
  out.str(status.message);
  out.u64(status.steps_done);
  out.f64(status.model_cost);
  out.f64(status.scf_energy);
  out.u32(status.preemptions);
  const std::vector<double> flat = flatten_trace(status.trace);
  out.u64(status.trace.size());
  for (const double v : flat) out.f64(v);
}

bool get_status(frame::GetBuf& in, JobStatus* status) {
  JobStatus s;
  s.state = static_cast<JobState>(in.u32());
  s.error = static_cast<ErrorCode>(in.u32());
  s.message = in.str();
  s.steps_done = in.u64();
  s.model_cost = in.f64();
  s.scf_energy = in.f64();
  s.preemptions = in.u32();
  const std::uint64_t count = in.u64();
  // Size-check against the remaining bytes is implicit: each failed read
  // latches !ok(), so a hostile count cannot drive a huge allocation before
  // the first miss.
  std::vector<double> flat;
  flat.reserve(in.ok() ? std::min<std::uint64_t>(count * kTracePointDoubles, 1 << 20) : 0);
  for (std::uint64_t i = 0; i < count && in.ok(); ++i)
    for (std::size_t d = 0; d < kTracePointDoubles; ++d) flat.push_back(in.f64());
  if (!in.ok()) return false;
  s.trace = unflatten_trace(flat);
  *status = std::move(s);
  return true;
}

// --- trace <-> flat doubles ------------------------------------------------

std::vector<double> flatten_trace(const std::vector<td::TimePoint>& trace) {
  std::vector<double> flat(trace.size() * kTracePointDoubles);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const td::TimePoint& p = trace[i];
    double* out = &flat[i * kTracePointDoubles];
    out[0] = p.t;
    out[1] = p.current[0];
    out[2] = p.current[1];
    out[3] = p.current[2];
    out[4] = p.n_excited;
    out[5] = p.energy;
    out[6] = static_cast<double>(p.scf_iterations);
    out[7] = p.rho_error;
    out[8] = p.wall_seconds;
    out[9] = p.exchange_refreshed ? 1.0 : 0.0;
    out[10] = p.mts_drift;
  }
  return flat;
}

std::vector<td::TimePoint> unflatten_trace(const std::vector<double>& flat) {
  PWDFT_CHECK(flat.size() % kTracePointDoubles == 0,
              "serve: trace blob has " << flat.size() << " doubles, not a multiple of "
                                       << kTracePointDoubles);
  std::vector<td::TimePoint> trace(flat.size() / kTracePointDoubles);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double* in = &flat[i * kTracePointDoubles];
    td::TimePoint& p = trace[i];
    p.t = in[0];
    p.current = {in[1], in[2], in[3]};
    p.n_excited = in[4];
    p.energy = in[5];
    p.scf_iterations = static_cast<int>(in[6]);
    p.rho_error = in[7];
    p.wall_seconds = in[8];
    p.exchange_refreshed = in[9] != 0.0;
    p.mts_drift = in[10];
  }
  return trace;
}

// --- fd transport ----------------------------------------------------------

ErrorCode send_frame(int fd, MsgType type, const std::vector<std::uint8_t>& payload) {
  const frame::IoStatus s = frame::send_frame(fd, protocol(kMaxFramePayload),
                                              static_cast<std::uint32_t>(type), payload.data(),
                                              payload.size());
  // Any transport failure (peer gone mid-write included) stays kIoError,
  // the pre-refactor contract.
  return s == frame::IoStatus::kOk ? ErrorCode::kOk : ErrorCode::kIoError;
}

ErrorCode recv_frame(int fd, Frame* out, std::uint64_t max_payload) {
  std::uint32_t type = 0;
  const frame::IoStatus s = frame::recv_frame(fd, protocol(max_payload), &type, &out->payload);
  out->type = static_cast<MsgType>(type);
  return to_error(s);
}

// --- durable spec snapshots ------------------------------------------------

void save_spec_file(const std::string& path, const JobSpec& spec) {
  frame::PutBuf payload;
  put_spec(payload, spec);
  io::write_frame_file(path, protocol(kMaxFramePayload),
                       static_cast<std::uint32_t>(MsgType::kSpecSnapshot), payload.bytes());
}

ErrorCode load_spec_file(const std::string& path, JobSpec* spec, std::string* why) {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  // A spec is a few hundred bytes; cap well below the transport limit.
  const frame::IoStatus st = io::read_frame_file(path, protocol(1 << 20), &type, &payload);
  if (st != frame::IoStatus::kOk) {
    const ErrorCode e = to_error(st);
    if (why)
      *why = st == frame::IoStatus::kIoError ? "cannot read " + path + ": " + std::strerror(errno)
                                             : std::string(error_name(e)) + " in " + path;
    return e;
  }
  frame::GetBuf in(payload);
  JobSpec s;
  if (type != static_cast<std::uint32_t>(MsgType::kSpecSnapshot) || !get_spec(in, &s) ||
      !in.exhausted()) {
    if (why) *why = "not a well-formed spec snapshot: " + path;
    return ErrorCode::kBadFrame;
  }
  const ErrorCode v = s.validate(why);
  if (v != ErrorCode::kOk) return v;
  *spec = std::move(s);
  return ErrorCode::kOk;
}

}  // namespace pwdft::serve::wire
