#pragma once

/// \file wire.hpp
/// Versioned binary wire protocol for the serve front-end: the serve
/// dialect (magic PWDFTNW) of the shared frame codec, whose header
/// common/frame.hpp documents the byte layout, plus the payload codecs
/// shared by serve::Server, serve::Client, and the engine's durable JobSpec
/// snapshots. Every field is serialized individually in fixed-width
/// little-endian (never a raw struct image), and the frame checksum is
/// validated before any payload is interpreted.
///
/// Decoding is total: every failure mode (bad magic, foreign version,
/// oversized length, short read, checksum mismatch, payload overrun or
/// trailing bytes) maps to a typed serve::ErrorCode — never an exception,
/// never a crash — because frames arrive from untrusted peers. The same
/// frame is the on-disk `<job>.spec.ckpt` snapshot the engine replays
/// after a process restart, written and read through io/frame_file.hpp,
/// so the submit codec is also the durability codec.

#include <cstdint>
#include <string>
#include <vector>

#include "common/frame.hpp"
#include "serve/error.hpp"
#include "serve/job.hpp"

namespace pwdft::serve::wire {

/// Bumped on any incompatible frame or payload-layout change. A receiver
/// rejects foreign versions with kVersionMismatch instead of guessing.
constexpr std::uint32_t kProtocolVersion = 2;

/// Default cap on a declared payload length: a corrupt or hostile length
/// field must produce a typed error, not a giant allocation.
constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

constexpr std::uint64_t kFrameHeaderBytes = frame::kHeaderBytes;

/// Message types. Values are wire-stable: append, never renumber.
enum class MsgType : std::uint32_t {
  kHello = 1,          ///< client → server: u32 protocol version
  kHelloOk = 2,        ///< server → client: u32 protocol version
  kSubmit = 3,         ///< JobSpec payload → kSubmitOk | kError
  kSubmitOk = 4,       ///< u64 job id
  kStatusReq = 5,      ///< u64 id → kStatus (final flag always 1)
  kStatus = 6,         ///< u8 final + JobStatus payload
  kWaitReq = 7,        ///< u64 id; blocks server-side → terminal kStatus
  kStreamReq = 8,      ///< u64 id; a kStatus per progress change, last has final=1
  kPreemptReq = 9,     ///< u64 id → kAck
  kCancelReq = 10,     ///< u64 id → kAck
  kResumeReq = 11,     ///< u64 id → kSubmitOk | kError
  kResumeNameReq = 12, ///< string name → kSubmitOk | kError
  kAck = 13,           ///< u32 ErrorCode (kOk on success)
  kError = 14,         ///< u32 ErrorCode + string message
  kSpecSnapshot = 15,  ///< JobSpec payload; the on-disk spec-file frame
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// --- frame codec over byte buffers -----------------------------------------

/// Assembles magic + header + payload + checksum into one buffer.
std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload);

/// Decodes a whole in-memory frame (spec files, tests). The buffer must
/// contain exactly one frame; trailing bytes are kBadFrame.
ErrorCode decode_frame(const std::uint8_t* data, std::size_t size, Frame* out,
                       std::uint64_t max_payload = kMaxFramePayload);

// --- message payload codecs ------------------------------------------------

void put_spec(frame::PutBuf& out, const JobSpec& spec);
/// Field-by-field decode; false on overrun (caller maps to kBadFrame).
/// Performance knobs that are server-side configuration (FockOptions) are
/// not on the wire, so the server's own settings apply.
bool get_spec(frame::GetBuf& in, JobSpec* spec);

void put_status(frame::PutBuf& out, const JobStatus& status);
bool get_status(frame::GetBuf& in, JobStatus* status);

// --- trace <-> flat doubles ------------------------------------------------
// One td::TimePoint = kTracePointDoubles consecutive doubles; shared by the
// wire status codec and the engine's `.trace.ckpt` blob snapshots so both
// round-trip the identical bytes.

constexpr std::size_t kTracePointDoubles = 11;
std::vector<double> flatten_trace(const std::vector<td::TimePoint>& trace);
/// Throws pwdft::Error when the flat size is not a multiple of the point
/// width (a corrupt blob that passed its checksum cannot silently load).
std::vector<td::TimePoint> unflatten_trace(const std::vector<double>& flat);

// --- fd transport ----------------------------------------------------------

/// Writes one frame, restarting on EINTR and suppressing SIGPIPE. kIoError
/// on any syscall failure (including a peer that went away mid-write).
ErrorCode send_frame(int fd, MsgType type, const std::vector<std::uint8_t>& payload);

/// Reads one frame. kClosed on a clean EOF at a frame boundary, kTruncated
/// on EOF mid-frame, and the decode errors above for malformed bytes. On
/// header-level failures the stream position is undefined; the caller
/// should answer with a typed error frame and drop the connection.
ErrorCode recv_frame(int fd, Frame* out, std::uint64_t max_payload = kMaxFramePayload);

// --- durable spec snapshots ------------------------------------------------

/// Durably writes `spec` as a kSpecSnapshot frame through io::atomic_write
/// (fsync + rename + directory fsync). Throws pwdft::Error naming the file
/// on I/O failure.
void save_spec_file(const std::string& path, const JobSpec& spec);

/// Loads and fully validates a spec snapshot (io::read_frame_file, capped
/// at 1 MiB): frame decode, payload decode, and JobSpec::validate() all
/// typed — a corrupt or foreign file yields an error code, never a crash or
/// a half-initialized spec.
ErrorCode load_spec_file(const std::string& path, JobSpec* spec, std::string* why = nullptr);

}  // namespace pwdft::serve::wire
