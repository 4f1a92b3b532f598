#include "common/frame.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace pwdft::frame {

static_assert(std::endian::native == std::endian::little,
              "frame format is little-endian; big-endian hosts need byte swaps");

const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kClosed: return "closed";
    case IoStatus::kTruncated: return "truncated";
    case IoStatus::kBadMagic: return "bad magic";
    case IoStatus::kBadType: return "bad message type";
    case IoStatus::kVersionMismatch: return "version mismatch";
    case IoStatus::kTooLarge: return "frame too large";
    case IoStatus::kTrailingBytes: return "trailing bytes";
    case IoStatus::kChecksumMismatch: return "checksum mismatch";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kIoError: return "io error";
  }
  return "unknown";
}

void pack_u64(std::uint64_t v, std::uint8_t out[8]) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

std::uint64_t unpack_u64(const std::uint8_t in[8]) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void pack_u32(std::uint32_t v, std::uint8_t out[4]) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

std::uint32_t unpack_u32(const std::uint8_t in[4]) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

// --- payload cursors -------------------------------------------------------

void PutBuf::u32(std::uint32_t v) {
  std::uint8_t b[4];
  pack_u32(v, b);
  b_.insert(b_.end(), b, b + 4);
}

void PutBuf::u64(std::uint64_t v) {
  std::uint8_t b[8];
  pack_u64(v, b);
  b_.insert(b_.end(), b, b + 8);
}

void PutBuf::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void PutBuf::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  b_.insert(b_.end(), s.begin(), s.end());
}

bool GetBuf::take(std::size_t n) {
  if (!ok_ || n > n_ - pos_) {
    ok_ = false;
    return false;
  }
  pos_ += n;
  return true;
}

std::uint8_t GetBuf::u8() {
  const std::size_t at = pos_;
  return take(1) ? p_[at] : 0;
}

std::uint32_t GetBuf::u32() {
  const std::size_t at = pos_;
  return take(4) ? unpack_u32(p_ + at) : 0;
}

std::uint64_t GetBuf::u64() {
  const std::size_t at = pos_;
  return take(8) ? unpack_u64(p_ + at) : 0;
}

double GetBuf::f64() { return std::bit_cast<double>(u64()); }

std::string GetBuf::str() {
  const std::uint32_t len = u32();
  const std::size_t at = pos_;
  if (!take(len)) return {};
  return std::string(reinterpret_cast<const char*>(p_ + at), len);
}

// --- frame codec -----------------------------------------------------------

void write_header(std::uint8_t out[kHeaderBytes], const Protocol& proto, std::uint32_t type,
                  std::uint64_t payload_len) {
  std::memcpy(out, proto.magic_prefix, 7);
  out[7] = static_cast<std::uint8_t>('0' + proto.version);
  pack_u32(type, out + 8);
  pack_u64(payload_len, out + 12);
}

IoStatus parse_header(const std::uint8_t hdr[kHeaderBytes], const Protocol& proto,
                      std::uint32_t* type, std::uint64_t* payload_len) {
  if (std::memcmp(hdr, proto.magic_prefix, 7) != 0) return IoStatus::kBadMagic;
  if (hdr[7] != static_cast<std::uint8_t>('0' + proto.version))
    return IoStatus::kVersionMismatch;
  const std::uint32_t t = unpack_u32(hdr + 8);
  if (t < proto.min_type || t > proto.max_type) return IoStatus::kBadType;
  *type = t;
  *payload_len = unpack_u64(hdr + 12);
  if (*payload_len > proto.max_payload) return IoStatus::kTooLarge;
  return IoStatus::kOk;
}

std::vector<std::uint8_t> encode(const Protocol& proto, std::uint32_t type,
                                 const std::uint8_t* payload, std::size_t payload_len) {
  std::vector<std::uint8_t> out(kHeaderBytes + payload_len + kFooterBytes);
  write_header(out.data(), proto, type, payload_len);
  if (payload_len > 0) std::memcpy(out.data() + kHeaderBytes, payload, payload_len);
  Fnv1a hash;
  hash.update(out.data(), kHeaderBytes + payload_len);
  pack_u64(hash.h, out.data() + kHeaderBytes + payload_len);
  return out;
}

IoStatus decode(const Protocol& proto, const std::uint8_t* data, std::size_t size,
                std::uint32_t* type, std::vector<std::uint8_t>* payload) {
  if (size < kHeaderBytes + kFooterBytes) return IoStatus::kTruncated;
  std::uint64_t payload_len = 0;
  const IoStatus hdr = parse_header(data, proto, type, &payload_len);
  if (hdr != IoStatus::kOk) return hdr;
  const std::uint64_t want = kHeaderBytes + payload_len + kFooterBytes;
  if (size < want) return IoStatus::kTruncated;
  if (size > want) return IoStatus::kTrailingBytes;
  Fnv1a hash;
  hash.update(data, kHeaderBytes + payload_len);
  if (unpack_u64(data + kHeaderBytes + payload_len) != hash.h)
    return IoStatus::kChecksumMismatch;
  payload->assign(data + kHeaderBytes, data + kHeaderBytes + payload_len);
  return IoStatus::kOk;
}

// --- fd transport ----------------------------------------------------------

IoStatus write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kTimeout;
      if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
      return IoStatus::kIoError;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return IoStatus::kOk;
}

int read_exact(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

IoStatus send_frame(int fd, const Protocol& proto, std::uint32_t type,
                    const std::uint8_t* payload, std::size_t payload_len) {
  const std::vector<std::uint8_t> f = encode(proto, type, payload, payload_len);
  return write_all(fd, f.data(), f.size());
}

IoStatus recv_frame(int fd, const Protocol& proto, std::uint32_t* type,
                    std::vector<std::uint8_t>* payload) {
  std::uint8_t hdr[kHeaderBytes];
  const int got = read_exact(fd, hdr, sizeof hdr);
  if (got == 0) return IoStatus::kClosed;
  if (got == -2) return IoStatus::kTimeout;
  if (got < 0) return IoStatus::kTruncated;
  std::uint64_t payload_len = 0;
  const IoStatus e = parse_header(hdr, proto, type, &payload_len);
  if (e != IoStatus::kOk) return e;
  payload->assign(payload_len, 0);
  if (payload_len > 0) {
    const int body = read_exact(fd, payload->data(), payload_len);
    if (body == -2) return IoStatus::kTimeout;
    if (body != 1) return IoStatus::kTruncated;
  }
  std::uint8_t footer[kFooterBytes];
  const int foot = read_exact(fd, footer, sizeof footer);
  if (foot == -2) return IoStatus::kTimeout;
  if (foot != 1) return IoStatus::kTruncated;
  Fnv1a hash;
  hash.update(hdr, sizeof hdr);
  hash.update(payload->data(), payload->size());
  if (unpack_u64(footer) != hash.h) return IoStatus::kChecksumMismatch;
  return IoStatus::kOk;
}

// --- addresses -------------------------------------------------------------

namespace {

struct ParsedAddr {
  bool is_unix = false;
  std::string path;  ///< unix
  std::string host;  ///< tcp, numeric or "localhost"
  std::uint16_t port = 0;
};

ParsedAddr parse_address(const std::string& address) {
  ParsedAddr a;
  if (address.rfind("unix:", 0) == 0) {
    a.is_unix = true;
    a.path = address.substr(5);
    PWDFT_CHECK(!a.path.empty(), "net: empty unix socket path in '" << address << "'");
    PWDFT_CHECK(a.path.size() < sizeof(sockaddr_un{}.sun_path),
                "net: unix socket path too long: " << a.path);
    return a;
  }
  PWDFT_CHECK(address.rfind("tcp:", 0) == 0,
              "net: address '" << address << "' is neither unix:<path> nor tcp:<host>:<port>");
  const std::string rest = address.substr(4);
  const std::size_t colon = rest.rfind(':');
  PWDFT_CHECK(colon != std::string::npos && colon > 0 && colon + 1 < rest.size(),
              "net: tcp address '" << address << "' is not tcp:<host>:<port>");
  a.host = rest.substr(0, colon);
  if (a.host == "localhost") a.host = "127.0.0.1";
  const std::string port_s = rest.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_s.c_str(), &end, 10);
  PWDFT_CHECK(end && *end == '\0' && port >= 0 && port <= 65535,
              "net: bad tcp port '" << port_s << "' in '" << address << "'");
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

sockaddr_in tcp_sockaddr(const ParsedAddr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  PWDFT_CHECK(::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) == 1,
              "net: '" << a.host << "' is not a numeric IPv4 address (or localhost)");
  return sa;
}

sockaddr_un unix_sockaddr(const ParsedAddr& a) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, a.path.c_str(), a.path.size() + 1);
  return sa;
}

}  // namespace

Listener listen_on(const std::string& address) {
  const ParsedAddr a = parse_address(address);
  Listener l;
  if (a.is_unix) {
    l.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PWDFT_CHECK(l.fd >= 0, "net: socket() failed: " << std::strerror(errno));
    ::unlink(a.path.c_str());  // stale socket from a killed process
    const sockaddr_un sa = unix_sockaddr(a);
    PWDFT_CHECK(::bind(l.fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0,
                "net: bind(" << a.path << ") failed: " << std::strerror(errno));
    l.unix_path = a.path;
    l.address = address;
  } else {
    l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    PWDFT_CHECK(l.fd >= 0, "net: socket() failed: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa = tcp_sockaddr(a);
    PWDFT_CHECK(::bind(l.fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0,
                "net: bind(" << address << ") failed: " << std::strerror(errno));
    socklen_t len = sizeof sa;
    PWDFT_CHECK(::getsockname(l.fd, reinterpret_cast<sockaddr*>(&sa), &len) == 0,
                "net: getsockname failed: " << std::strerror(errno));
    l.address = "tcp:" + a.host + ":" + std::to_string(ntohs(sa.sin_port));
  }
  PWDFT_CHECK(::listen(l.fd, 64) == 0,
              "net: listen(" << l.address << ") failed: " << std::strerror(errno));
  return l;
}

void Listener::close() {
  if (fd >= 0) ::close(fd);
  if (!unix_path.empty()) ::unlink(unix_path.c_str());
  fd = -1;
  unix_path.clear();
}

int try_dial(const std::string& address, std::string* why) {
  const ParsedAddr a = parse_address(address);
  const int fd = ::socket(a.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  PWDFT_CHECK(fd >= 0, "net: socket() failed: " << std::strerror(errno));
  int rc;
  if (a.is_unix) {
    const sockaddr_un sa = unix_sockaddr(a);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  } else {
    const sockaddr_in sa = tcp_sockaddr(a);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  }
  if (rc != 0) {
    if (why) *why = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int dial(const std::string& address) {
  std::string why;
  const int fd = try_dial(address, &why);
  PWDFT_CHECK(fd >= 0, "net: connect(" << address << ") failed: " << why);
  return fd;
}

}  // namespace pwdft::frame
