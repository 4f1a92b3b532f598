#pragma once

/// \file frame_file.hpp
/// The one durable writer and the one reader behind every file the program
/// persists. A frame file holds exactly one common/frame frame of some
/// dialect: the checkpoint families of io/checkpoint.hpp and the serve spec
/// snapshots of serve/wire.hpp.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/frame.hpp"

namespace pwdft::io {

using Bytes = std::span<const std::uint8_t>;

/// A durable write that failed; what() names the file and strerror(errno).
struct WriteError : Error {
  using Error::Error;
};

/// Durably replaces `path` with the concatenation of `parts`: gather-writes
/// `<path>.tmp`, fsyncs it, renames it over `path`, and fsyncs the
/// directory. Once it returns the file survives a power loss; a crash at any
/// point leaves the old or the new file, never a torn one. On any failure
/// (ENOSPC, EIO, EFBIG, ...) it removes `<path>.tmp` and throws WriteError,
/// leaving `path` untouched.
void atomic_write(const std::string& path, std::span<const Bytes> parts);

/// Writes one `proto` frame whose payload is `head` followed by `body`
/// through atomic_write. The checksum is computed over the parts in place,
/// so a large body (a wavefunction snapshot) is never copied.
void write_frame_file(const std::string& path, const frame::Protocol& proto, std::uint32_t type,
                      Bytes head, Bytes body = {});

/// Reads a file that must hold exactly one `proto` frame. The declared
/// length is checked against the file size before anything is allocated
/// (shorter: kTruncated, longer: kTrailingBytes); kIoError when the file
/// cannot be opened or read (errno tells why); else recv_frame's statuses.
frame::IoStatus read_frame_file(const std::string& path, const frame::Protocol& proto,
                                std::uint32_t* type, std::vector<std::uint8_t>* payload);

}  // namespace pwdft::io
