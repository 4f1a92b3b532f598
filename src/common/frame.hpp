#pragma once

/// \file frame.hpp
/// Shared binary-frame codec, payload cursors and socket transport.
///
/// Every byte format of the program is a length-prefixed, FNV-1a-checksummed
/// frame: the serve front-end (src/serve/wire.cpp) and the multi-process
/// communicator (src/parallel/socket_comm.cpp) over sockets, and every
/// persisted file (src/io/frame_file.hpp: checkpoints, spec snapshots) on
/// disk. All use the identical layout, differing only in the magic prefix,
/// protocol version, message type range, and payload cap — the `Protocol`
/// descriptor below. Keeping the codec here means the byte formats cannot
/// drift: one encoder, one decoder, one checksum discipline.
///
/// Frame layout (all integers little-endian):
///
///   offset  0  8 bytes  magic: 7-byte protocol prefix + ('0' + version)
///   offset  8  u32      message type
///   offset 12  u64      payload length n (validated against the cap
///                       BEFORE any allocation)
///   offset 20  n bytes  payload
///   offset 20+n u64     FNV-1a-64 over bytes [0, 20+n)
///
/// Decoding is total: every failure mode maps to a typed IoStatus — never
/// an exception, never a crash — because frames arrive from untrusted
/// peers. Callers translate IoStatus into their own error domain
/// (serve::ErrorCode, par::CommError).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pwdft::frame {

constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8;
constexpr std::uint64_t kFooterBytes = 8;

/// Typed outcome of every codec and transport operation. Each caller maps
/// these onto its own wire-stable error enum; this one is in-process only.
enum class IoStatus : int {
  kOk = 0,
  kClosed,            ///< clean EOF at a frame boundary
  kTruncated,         ///< EOF or read failure mid-frame
  kBadMagic,          ///< foreign or corrupt magic prefix
  kBadType,           ///< message type outside the protocol's range
  kVersionMismatch,   ///< right protocol, wrong version byte
  kTooLarge,          ///< declared payload length above the cap
  kTrailingBytes,     ///< in-memory decode: bytes after the footer
  kChecksumMismatch,  ///< frame arrived whole but the FNV-1a digest differs
  kTimeout,           ///< SO_RCVTIMEO / SO_SNDTIMEO expired mid-operation
  kIoError,           ///< any other syscall failure
};

const char* io_status_name(IoStatus s);

/// FNV-1a-64, the checksum of every frame on the wire and on disk.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void update(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
};

void pack_u32(std::uint32_t v, std::uint8_t out[4]);
void pack_u64(std::uint64_t v, std::uint8_t out[8]);
std::uint32_t unpack_u32(const std::uint8_t in[4]);
std::uint64_t unpack_u64(const std::uint8_t in[8]);

/// One frame dialect: which 7-character magic it answers to, which version
/// byte, which message-type values are meaningful, and how large a declared
/// payload may be before it is rejected as corrupt or hostile.
struct Protocol {
  const char* magic_prefix;   ///< exactly 7 characters
  std::uint32_t version;      ///< encoded as the single byte '0' + version
  std::uint32_t min_type;
  std::uint32_t max_type;
  std::uint64_t max_payload;
};

void write_header(std::uint8_t out[kHeaderBytes], const Protocol& proto, std::uint32_t type,
                  std::uint64_t payload_len);

/// Magic + version + type-range + length sanity of a raw header.
IoStatus parse_header(const std::uint8_t hdr[kHeaderBytes], const Protocol& proto,
                      std::uint32_t* type, std::uint64_t* payload_len);

/// Assembles magic + header + payload + checksum into one buffer.
std::vector<std::uint8_t> encode(const Protocol& proto, std::uint32_t type,
                                 const std::uint8_t* payload, std::size_t payload_len);

/// Decodes a whole in-memory frame. The buffer must contain exactly one
/// frame; anything after the footer is kTrailingBytes.
IoStatus decode(const Protocol& proto, const std::uint8_t* data, std::size_t size,
                std::uint32_t* type, std::vector<std::uint8_t>* payload);

// --- payload cursors -------------------------------------------------------
// Field-level payload codec: serve messages and spec snapshots
// (serve/wire.hpp) and SocketComm's rendezvous handshakes build and parse
// their payloads with these two classes.

/// Little-endian payload builder. i32/i64 travel as their two's-complement
/// bit patterns; f64 as the IEEE-754 image (std::bit_cast), so encode →
/// decode is bit-exact — the property the restart-resume path relies on.
class PutBuf {
 public:
  void u8(std::uint8_t v) { b_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  const std::vector<std::uint8_t>& bytes() const { return b_; }

 private:
  std::vector<std::uint8_t> b_;
};

/// Bounds-checked payload reader. An overrun latches !ok() and every later
/// read returns zero values; callers check ok() (and exhausted(), to reject
/// trailing bytes) once at the end instead of after every field.
class GetBuf {
 public:
  GetBuf(const std::uint8_t* data, std::size_t size) : p_(data), n_(size) {}
  explicit GetBuf(const std::vector<std::uint8_t>& v) : GetBuf(v.data(), v.size()) {}
  /// The reader keeps a pointer into the bytes: a temporary would dangle.
  explicit GetBuf(std::vector<std::uint8_t>&&) = delete;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && pos_ == n_; }

 private:
  bool take(std::size_t n);  ///< advances pos_ or latches the failure
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- fd transport ----------------------------------------------------------

/// Write loop; MSG_NOSIGNAL so a vanished peer yields EPIPE, not SIGPIPE.
/// kTimeout when a send timeout (SO_SNDTIMEO) expires, kClosed when the
/// peer reset or closed the connection, kIoError otherwise.
IoStatus write_all(int fd, const std::uint8_t* p, std::size_t n);

/// Reads exactly n bytes. 1 = got them, 0 = clean EOF before the first
/// byte, -1 = error or EOF mid-read, -2 = receive timeout (SO_RCVTIMEO).
int read_exact(int fd, std::uint8_t* p, std::size_t n);

IoStatus send_frame(int fd, const Protocol& proto, std::uint32_t type,
                    const std::uint8_t* payload, std::size_t payload_len);

/// Reads one frame. kClosed on a clean EOF at a frame boundary, kTruncated
/// on EOF mid-frame, kTimeout when the receive timeout expires, and the
/// decode errors above for malformed bytes. On failure the stream position
/// is undefined; the caller should drop the connection.
IoStatus recv_frame(int fd, const Protocol& proto, std::uint32_t* type,
                    std::vector<std::uint8_t>* payload);

// --- addresses -------------------------------------------------------------
// "unix:<path>" (filesystem socket) or "tcp:<host>:<port>" with a numeric
// IPv4 host or "localhost"; "tcp:127.0.0.1:0" binds an ephemeral port.

struct Listener {
  int fd = -1;
  std::string address;    ///< resolved form (ephemeral port filled in)
  std::string unix_path;  ///< non-empty for unix sockets; close() unlinks it
  /// Closes the fd and unlinks the unix socket file. Idempotent.
  void close();
};

/// Binds + listens; throws pwdft::Error on an unparseable address or a
/// failed syscall (standing up a listener is an environment error).
Listener listen_on(const std::string& address);

/// Connects; throws pwdft::Error on failure for the same reason.
int dial(const std::string& address);

/// Non-throwing connect: -1 and a reason on failure. Retry loops (a peer's
/// listener may not exist yet during a multi-process rendezvous) need the
/// failure as a value, not an exception per attempt.
int try_dial(const std::string& address, std::string* why);

}  // namespace pwdft::frame
