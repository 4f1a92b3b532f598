#include "io/frame_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace pwdft::io {

namespace {

/// Owns one fd. Closing keeps errno, so a failure path can still report the
/// call that failed.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    const int saved = errno;
    if (fd >= 0) ::close(fd);
    errno = saved;
  }
  int fd;
};

/// Gather-writes every part, resuming after short writes and EINTR.
bool write_parts(int fd, std::span<const Bytes> parts) {
  std::vector<iovec> iov;
  for (const Bytes& p : parts)
    if (!p.empty()) iov.push_back({const_cast<std::uint8_t*>(p.data()), p.size()});
  for (std::size_t i = 0; i < iov.size();) {
    const ssize_t w = ::writev(fd, iov.data() + i, static_cast<int>(iov.size() - i));
    if (w < 0 && errno == EINTR) continue;
    if (w == 0) errno = EIO;  // no progress on a regular file: report, never spin
    if (w <= 0) return false;
    auto n = static_cast<std::size_t>(w);
    for (; i < iov.size() && n >= iov[i].iov_len; ++i) n -= iov[i].iov_len;
    if (i < iov.size()) {
      iov[i].iov_base = static_cast<std::uint8_t*>(iov[i].iov_base) + n;
      iov[i].iov_len -= n;
    }
  }
  return true;
}

}  // namespace

void atomic_write(const std::string& path, std::span<const Bytes> parts) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& step, const std::string& file) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp.c_str());
    throw WriteError("io: cannot " + step + " " + file + ": " + why);
  };
  {
    Fd f(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (f.fd < 0) fail("create", tmp);
    if (!write_parts(f.fd, parts)) fail("write", tmp);
    if (::fsync(f.fd) != 0) fail("fsync", tmp);
    if (::close(std::exchange(f.fd, -1)) != 0) fail("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename " + tmp + " to", path);
  // The rename is durable only once the directory entry is on disk.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const Fd d(::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (d.fd < 0 || ::fsync(d.fd) != 0) fail("fsync the directory of", path);
}

void write_frame_file(const std::string& path, const frame::Protocol& proto, std::uint32_t type,
                      Bytes head, Bytes body) {
  std::uint8_t header[frame::kHeaderBytes];
  std::uint8_t footer[frame::kFooterBytes];
  frame::write_header(header, proto, type, head.size() + body.size());
  frame::Fnv1a hash;
  for (const Bytes part : {Bytes(header), head, body}) hash.update(part.data(), part.size());
  frame::pack_u64(hash.h, footer);
  const Bytes parts[] = {header, head, body, footer};
  atomic_write(path, parts);
}

frame::IoStatus read_frame_file(const std::string& path, const frame::Protocol& proto,
                                std::uint32_t* type, std::vector<std::uint8_t>* payload) {
  const Fd f(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (f.fd < 0 || ::fstat(f.fd, &st) != 0) return frame::IoStatus::kIoError;
  constexpr std::uint64_t kFraming = frame::kHeaderBytes + frame::kFooterBytes;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kFraming) return frame::IoStatus::kTruncated;
  std::uint8_t header[frame::kHeaderBytes];
  if (::pread(f.fd, header, sizeof header, 0) != static_cast<ssize_t>(sizeof header))
    return frame::IoStatus::kIoError;
  std::uint64_t len = 0;
  const frame::IoStatus s = frame::parse_header(header, proto, type, &len);
  if (s != frame::IoStatus::kOk) return s;
  // The declared length must match the file before recv_frame allocates it.
  if (len != size - kFraming)
    return len > size - kFraming ? frame::IoStatus::kTruncated : frame::IoStatus::kTrailingBytes;
  return frame::recv_frame(f.fd, proto, type, payload);
}

}  // namespace pwdft::io
