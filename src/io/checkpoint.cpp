#include "io/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.hpp"

namespace pwdft::io {

namespace {

// Bulk payloads (Complex / double arrays) are written with raw f.write on the
// in-memory representation; the on-disk format is defined little-endian.
static_assert(std::endian::native == std::endian::little,
              "checkpoint format is little-endian; big-endian hosts need byte swaps");
static_assert(sizeof(double) == 8 && sizeof(Complex) == 16);

// Magic layout: "PWDFT" + two-char family + ASCII version digit.
constexpr char kFamilyPsi[2] = {'P', 'S'};
constexpr char kFamilyRho[2] = {'R', 'H'};
constexpr char kFamilyBlob[2] = {'B', 'L'};

constexpr std::uint64_t kHeaderBytesV2 = 8 + 6 * 8;  // magic + six meta fields
constexpr std::uint64_t kFooterBytes = 8;            // FNV-1a-64 checksum

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

void pack_u64(std::uint64_t v, unsigned char out[8]) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

std::uint64_t unpack_u64(const unsigned char in[8]) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// Atomic checkpoint writer: streams into `<path>.tmp`, hashing every byte,
/// then appends the checksum footer, flushes, and renames into place. A crash
/// anywhere before the rename leaves the previous snapshot untouched.
class Writer {
 public:
  explicit Writer(const std::string& path)
      : final_path_(path),
        tmp_path_(path + ".tmp"),
        f_(tmp_path_, std::ios::binary | std::ios::trunc) {
    PWDFT_CHECK(f_.good(), "checkpoint: cannot open " << tmp_path_ << " for writing");
  }

  void bytes(const void* p, std::size_t n) {
    f_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    hash_.update(p, n);
  }

  void u64(std::uint64_t v) {
    unsigned char b[8];
    pack_u64(v, b);
    bytes(b, 8);
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void commit() {
    unsigned char b[8];
    pack_u64(hash_.h, b);  // footer is not part of its own hash
    f_.write(reinterpret_cast<const char*>(b), 8);
    f_.flush();
    PWDFT_CHECK(f_.good(), "checkpoint: short write to " << tmp_path_);
    f_.close();
    PWDFT_CHECK(!f_.fail(), "checkpoint: failed to close " << tmp_path_);
    PWDFT_CHECK(std::rename(tmp_path_.c_str(), final_path_.c_str()) == 0,
                "checkpoint: cannot rename " << tmp_path_ << " to " << final_path_);
  }

 private:
  std::string final_path_;
  std::string tmp_path_;
  std::ofstream f_;
  Fnv1a hash_;
};

/// Checkpoint reader: hashes every byte it hands out so finish() can compare
/// against the stored footer, and knows the file size up front so payload
/// lengths are validated *before* any allocation (a bit-flipped band count
/// must produce a clear error, not a 2^60-byte resize).
class Reader {
 public:
  explicit Reader(const std::string& path) : path_(path), f_(path, std::ios::binary) {
    PWDFT_CHECK(f_.good(), "checkpoint: cannot open " << path);
    f_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(f_.tellg());
    f_.seekg(0, std::ios::beg);
  }

  const std::string& path() const { return path_; }
  std::uint64_t file_size() const { return size_; }

  void bytes(void* p, std::size_t n, const char* what) {
    f_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    PWDFT_CHECK(f_.gcount() == static_cast<std::streamsize>(n) && !f_.bad(),
                "checkpoint: truncated " << what << " in " << path_);
    hash_.update(p, n);
  }

  std::uint64_t u64(const char* what) {
    unsigned char b[8];
    bytes(b, 8, what);
    return unpack_u64(b);
  }

  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

  /// v2 epilogue: exactly one checksum footer, matching the hash of
  /// everything before it, and then EOF.
  void finish() {
    const std::uint64_t computed = hash_.h;
    unsigned char b[8];
    f_.read(reinterpret_cast<char*>(b), 8);
    PWDFT_CHECK(f_.gcount() == 8 && !f_.bad(), "checkpoint: truncated checksum in " << path_);
    PWDFT_CHECK(unpack_u64(b) == computed,
                "checkpoint: checksum mismatch in " << path_ << " (file is corrupt)");
    f_.peek();
    PWDFT_CHECK(f_.eof(), "checkpoint: trailing bytes after checksum in " << path_);
  }

 private:
  std::string path_;
  std::ifstream f_;
  std::uint64_t size_ = 0;
  Fnv1a hash_;
};

/// Validates magic, family and format version (only v2 is read).
void read_magic(Reader& r, const char family[2]) {
  char got[8];
  r.bytes(got, 8, "magic");
  PWDFT_CHECK(std::memcmp(got, "PWDFT", 5) == 0 && got[5] == family[0] && got[6] == family[1],
              "checkpoint: bad magic in " << r.path() << " (not a PWDFT" << family[0]
                                          << family[1] << " snapshot)");
  PWDFT_CHECK(got[7] == '2', "checkpoint: unsupported format version '"
                                 << got[7] << "' in " << r.path() << " (this build reads v2)");
}

void write_meta_v2(Writer& w, const char family[2], const CheckpointMeta& m) {
  const char magic[8] = {'P', 'W', 'D', 'F', 'T', family[0], family[1], '2'};
  w.bytes(magic, 8);
  w.u64(m.n_g);
  w.u64(m.n_bands);
  w.u64(m.n_dense);
  w.f64(m.ecut);
  w.f64(m.time_au);
  w.u64(m.step);
}

CheckpointMeta read_meta_v2(Reader& r) {
  CheckpointMeta m;
  m.n_g = r.u64("header");
  m.n_bands = r.u64("header");
  m.n_dense = r.u64("header");
  m.ecut = r.f64("header");
  m.time_au = r.f64("header");
  m.step = r.u64("header");
  return m;
}

/// v2 files have an exact size: header (+ any extra fields) + payload +
/// footer. Checked before allocating the payload buffer; distinguishes
/// truncation from appended garbage in the error.
void check_exact_size_v2(const Reader& r, std::uint64_t extra_header_bytes,
                         std::uint64_t payload_bytes) {
  const std::uint64_t want = kHeaderBytesV2 + extra_header_bytes + payload_bytes + kFooterBytes;
  PWDFT_CHECK(r.file_size() >= want, "checkpoint: truncated payload in "
                                         << r.path() << " (" << r.file_size() << " bytes, want "
                                         << want << ")");
  PWDFT_CHECK(r.file_size() == want, "checkpoint: trailing bytes in "
                                         << r.path() << " (" << r.file_size() << " bytes, want "
                                         << want << ")");
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
  Writer w(path);
  write_meta_v2(w, kFamilyPsi, meta);
  w.bytes(psi.data(), psi.size() * sizeof(Complex));
  w.commit();
}

CheckpointMeta load_wavefunctions(const std::string& path, CMatrix& psi,
                                  const CheckpointMeta* expected) {
  Reader r(path);
  read_magic(r, kFamilyPsi);
  const CheckpointMeta m = read_meta_v2(r);
  check_compatible(m, expected);
  const std::uint64_t payload = m.n_g * m.n_bands * sizeof(Complex);
  check_exact_size_v2(r, 0, payload);
  psi.resize(m.n_g, m.n_bands);
  r.bytes(psi.data(), payload, "payload");
  r.finish();
  return m;
}

void save_density(const std::string& path, const CheckpointMeta& meta,
                  const std::vector<double>& rho) {
  PWDFT_CHECK(rho.size() == meta.n_dense, "checkpoint: density size does not match metadata");
  Writer w(path);
  write_meta_v2(w, kFamilyRho, meta);
  w.bytes(rho.data(), rho.size() * sizeof(double));
  w.commit();
}

CheckpointMeta load_density(const std::string& path, std::vector<double>& rho,
                            const CheckpointMeta* expected) {
  Reader r(path);
  read_magic(r, kFamilyRho);
  const CheckpointMeta m = read_meta_v2(r);
  if (expected) {
    PWDFT_CHECK(m.n_dense == expected->n_dense, "checkpoint: dense-grid size mismatch");
  }
  const std::uint64_t payload = m.n_dense * sizeof(double);
  check_exact_size_v2(r, 0, payload);
  rho.resize(m.n_dense);
  r.bytes(rho.data(), payload, "payload");
  r.finish();
  return m;
}

void save_blob(const std::string& path, const CheckpointMeta& meta,
               const std::vector<double>& data) {
  Writer w(path);
  write_meta_v2(w, kFamilyBlob, meta);
  w.u64(data.size());
  w.bytes(data.data(), data.size() * sizeof(double));
  w.commit();
}

CheckpointMeta load_blob(const std::string& path, std::vector<double>& data) {
  Reader r(path);
  read_magic(r, kFamilyBlob);
  const CheckpointMeta m = read_meta_v2(r);
  const std::uint64_t count = r.u64("blob count");
  check_exact_size_v2(r, 8, count * sizeof(double));
  data.resize(count);
  r.bytes(data.data(), count * sizeof(double), "payload");
  r.finish();
  return m;
}

}  // namespace pwdft::io
