#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/frame.hpp"
#include "io/frame_file.hpp"

namespace pwdft::io {

namespace {

// Bulk payloads (Complex / double arrays) are written from their in-memory
// representation; the on-disk format is defined little-endian.
static_assert(std::endian::native == std::endian::little,
              "checkpoint format is little-endian; big-endian hosts need byte swaps");
static_assert(sizeof(double) == 8 && sizeof(Complex) == 16);

/// Each checkpoint family is a common/frame dialect named by its magic, with
/// one message type; the file size bounds the payload, so the cap is open.
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::uint32_t kSnapshot = 1;
constexpr frame::Protocol kPsi{"PWDFTPS", kFormatVersion, kSnapshot, kSnapshot, ~0ull};
constexpr frame::Protocol kBlob{"PWDFTBL", kFormatVersion, kSnapshot, kSnapshot, ~0ull};

constexpr std::size_t kMetaBytes = 6 * 8;

/// The payload opens with the six CheckpointMeta fields, each fixed-width
/// little-endian (never a raw struct image); the data follows.
void save(const std::string& path, const frame::Protocol& proto, const CheckpointMeta& m,
          const void* data, std::size_t bytes) {
  const std::uint64_t fields[] = {m.n_g, m.n_bands, m.n_dense, std::bit_cast<std::uint64_t>(m.ecut),
                                  std::bit_cast<std::uint64_t>(m.time_au), m.step};
  std::array<std::uint8_t, kMetaBytes> meta{};
  for (std::size_t i = 0; i < 6; ++i) frame::pack_u64(fields[i], &meta[8 * i]);
  write_frame_file(path, proto, kSnapshot, meta, {static_cast<const std::uint8_t*>(data), bytes});
}

/// Reads one snapshot of `proto` into `payload` and decodes its meta; throws
/// naming the file. Returns the count of `width`-byte elements after it.
std::uint64_t load(const std::string& path, const frame::Protocol& proto, std::size_t width,
                   std::vector<std::uint8_t>& payload, CheckpointMeta* m) {
  std::uint32_t type = 0;
  const frame::IoStatus s = read_frame_file(path, proto, &type, &payload);
  const int err = errno;
  PWDFT_CHECK(s != frame::IoStatus::kIoError,
              "checkpoint: cannot read " << path << ": " << std::strerror(err));
  PWDFT_CHECK(s != frame::IoStatus::kVersionMismatch,
              "checkpoint: unsupported format version in " << path << " (this build reads v"
                                                           << kFormatVersion << ")");
  PWDFT_CHECK(s == frame::IoStatus::kOk, "checkpoint: " << frame::io_status_name(s) << " in "
                                                        << path << " (not a valid "
                                                        << proto.magic_prefix << " snapshot)");
  const std::uint64_t bytes = payload.size() - std::min(payload.size(), kMetaBytes);
  PWDFT_CHECK(payload.size() >= kMetaBytes && bytes % width == 0,
              "checkpoint: payload of " << payload.size() << " bytes is malformed in " << path);
  std::uint64_t f[6] = {};
  for (std::size_t i = 0; i < 6; ++i) f[i] = frame::unpack_u64(&payload[8 * i]);
  *m = {f[0], f[1], f[2], std::bit_cast<double>(f[3]), std::bit_cast<double>(f[4]), f[5]};
  return bytes / width;
}

/// Copies the `bytes` of data that follow the meta (none for an empty blob).
void copy_data(const std::vector<std::uint8_t>& payload, void* out, std::size_t bytes) {
  if (bytes > 0) std::memcpy(out, payload.data() + kMetaBytes, bytes);
}

void check_compatible(const CheckpointMeta& got, const CheckpointMeta* expected) {
  if (!expected) return;
  PWDFT_CHECK(got.n_g == expected->n_g, "checkpoint: planewave count mismatch (file "
                                            << got.n_g << ", run " << expected->n_g << ")");
  PWDFT_CHECK(got.n_bands == expected->n_bands, "checkpoint: band count mismatch");
  PWDFT_CHECK(std::abs(got.ecut - expected->ecut) < 1e-12, "checkpoint: cutoff mismatch");
}

}  // namespace

CheckpointMeta CheckpointMeta::from_setup(const ham::PlanewaveSetup& setup,
                                          std::size_t n_bands, double time_au,
                                          std::uint64_t step) {
  CheckpointMeta m;
  m.n_g = setup.n_g();
  m.n_bands = n_bands;
  m.n_dense = setup.n_dense();
  m.ecut = setup.ecut;
  m.time_au = time_au;
  m.step = step;
  return m;
}

void save_wavefunctions(const std::string& path, const CheckpointMeta& meta,
                        const CMatrix& psi) {
  PWDFT_CHECK(psi.rows() == meta.n_g && psi.cols() == meta.n_bands,
              "checkpoint: wavefunction shape does not match metadata");
  save(path, kPsi, meta, psi.data(), psi.size() * sizeof(Complex));
}

CheckpointMeta load_wavefunctions(const std::string& path, CMatrix& psi,
                                  const CheckpointMeta* expected) {
  std::vector<std::uint8_t> payload;
  CheckpointMeta m;
  const std::uint64_t n = load(path, kPsi, sizeof(Complex), payload, &m);
  check_compatible(m, expected);
  // The division guards the product against wrap-around on a corrupt shape.
  PWDFT_CHECK(n == m.n_g * m.n_bands && (m.n_g == 0 || n / m.n_g == m.n_bands),
              "checkpoint: payload does not match the " << m.n_g << " x " << m.n_bands
                                                        << " header shape in " << path);
  psi.resize(m.n_g, m.n_bands);
  copy_data(payload, psi.data(), n * sizeof(Complex));
  return m;
}

void save_blob(const std::string& path, const CheckpointMeta& meta,
               const std::vector<double>& data) {
  save(path, kBlob, meta, data.data(), data.size() * sizeof(double));
}

CheckpointMeta load_blob(const std::string& path, std::vector<double>& data) {
  std::vector<std::uint8_t> payload;
  CheckpointMeta m;
  data.resize(load(path, kBlob, sizeof(double), payload, &m));
  copy_data(payload, data.data(), data.size() * sizeof(double));
  return m;
}

}  // namespace pwdft::io
