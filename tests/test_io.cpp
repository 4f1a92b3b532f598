#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "io/checkpoint.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

/// One checkpoint file in a private scratch directory (test::ScratchDir).
struct TempPath {
  explicit TempPath(const char* name) : dir("ckpt"), path(dir.file(name)) {}
  test::ScratchDir dir;
  std::string path;
};

TEST(Checkpoint, WavefunctionRoundTripPreservesBits) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 6, 3);
  const auto meta = io::CheckpointMeta::from_setup(setup, 6, 1.25, 17);

  TempPath p("psi.bin");
  io::save_wavefunctions(p.path, meta, psi);
  CMatrix loaded;
  const auto got = io::load_wavefunctions(p.path, loaded, &meta);
  EXPECT_EQ(got.step, 17u);
  EXPECT_DOUBLE_EQ(got.time_au, 1.25);
  ASSERT_EQ(loaded.rows(), psi.rows());
  ASSERT_EQ(loaded.cols(), psi.cols());
  EXPECT_EQ(test::max_abs_diff(loaded, psi), 0.0);
}

TEST(Checkpoint, RejectsWrongMagic) {
  TempPath p("bad.bin");
  std::ofstream f(p.path, std::ios::binary);
  f << "NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  f.close();
  CMatrix psi;
  EXPECT_THROW(io::load_wavefunctions(p.path, psi), Error);
}

TEST(Checkpoint, RejectsTruncatedPayload) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 7);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 0.0, 0);
  TempPath p("trunc.bin");
  io::save_wavefunctions(p.path, meta, psi);
  // Chop the file.
  std::ifstream in(p.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(p.path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  CMatrix loaded;
  EXPECT_THROW(io::load_wavefunctions(p.path, loaded), Error);
}

TEST(Checkpoint, RejectsIncompatibleRun) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 9);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 0.0, 0);
  TempPath p("mismatch.bin");
  io::save_wavefunctions(p.path, meta, psi);

  io::CheckpointMeta other = meta;
  other.n_bands = 8;  // restart with a different band count
  CMatrix loaded;
  EXPECT_THROW(io::load_wavefunctions(p.path, loaded, &other), Error);
  other = meta;
  other.ecut = 5.0;
  EXPECT_THROW(io::load_wavefunctions(p.path, loaded, &other), Error);
}

TEST(Checkpoint, MissingFileThrows) {
  CMatrix psi;
  EXPECT_THROW(io::load_wavefunctions("/tmp/pwdft_does_not_exist.bin", psi), Error);
}

TEST(Checkpoint, MetadataShapeMismatchOnSaveThrows) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 11);
  auto meta = io::CheckpointMeta::from_setup(setup, 6, 0.0, 0);  // wrong band count
  TempPath p("shape.bin");
  EXPECT_THROW(io::save_wavefunctions(p.path, meta, psi), Error);
}

// --- Fault suite for the v3 crash-safe format ------------------------------

namespace fault {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

}  // namespace fault

// Simulated crash mid-save: a torn partial write lands at `<path>.tmp`, never
// at the final path, so the previous good snapshot stays loadable bit-for-bit.
TEST(CheckpointFault, InterruptedSaveKeepsOldSnapshotLoadable) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi_old = test::random_orthonormal(setup, 4, 21);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 2.5, 50);
  TempPath p("crash.bin");
  io::save_wavefunctions(p.path, meta, psi_old);

  // Crash simulation: a newer save died after writing half its bytes to the
  // temp file (the only file an interrupted save ever touches).
  const std::string good = fault::slurp(p.path);
  fault::spit(p.path + ".tmp", good.substr(0, good.size() / 2));

  CMatrix loaded;
  const auto got = io::load_wavefunctions(p.path, loaded, &meta);
  EXPECT_EQ(got.step, 50u);
  EXPECT_EQ(test::max_abs_diff(loaded, psi_old), 0.0);
  std::remove((p.path + ".tmp").c_str());
}

// A save that fails mid-write (the file-size limit stands in for a full
// disk) throws naming the file, removes its temp file, and leaves the
// previous snapshot loadable bit-for-bit.
TEST(CheckpointFault, FailedSaveKeepsOldSnapshotAndLeavesNoTemp) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi_old = test::random_orthonormal(setup, 4, 25);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 1.5, 30);
  TempPath p("diskfull.bin");
  io::save_wavefunctions(p.path, meta, psi_old);
  try {
    test::FileSizeLimit limit(1024);  // well below one snapshot
    io::save_wavefunctions(p.path, meta, test::random_orthonormal(setup, 4, 27));
    FAIL() << "a save past the file-size limit should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p.path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::ifstream(p.path + ".tmp").good());
  CMatrix loaded;
  const auto got = io::load_wavefunctions(p.path, loaded, &meta);
  EXPECT_EQ(got.step, 30u);
  EXPECT_EQ(test::max_abs_diff(loaded, psi_old), 0.0);
}

TEST(CheckpointFault, SaveLeavesNoTempFileBehind) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 23);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 0.0, 0);
  TempPath p("notmp.bin");
  io::save_wavefunctions(p.path, meta, psi);
  std::ifstream tmp(p.path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

// Every single-bit flip anywhere in the file — magic, header, payload, or
// checksum — must be rejected; sampled stride keeps the test fast.
TEST(CheckpointFault, RejectsBitFlipsAnywhere) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 3, 31);
  const auto meta = io::CheckpointMeta::from_setup(setup, 3, 0.0, 4);
  TempPath p("flip.bin");
  io::save_wavefunctions(p.path, meta, psi);
  const std::string good = fault::slurp(p.path);

  for (std::size_t byte = 0; byte < good.size(); byte += 97) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    fault::spit(p.path, bad);
    CMatrix loaded;
    EXPECT_THROW(io::load_wavefunctions(p.path, loaded), Error) << "flip at byte " << byte;
  }
}

TEST(CheckpointFault, RejectsTrailingGarbage) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 3, 33);
  const auto meta = io::CheckpointMeta::from_setup(setup, 3, 0.0, 0);
  TempPath p("trail.bin");
  io::save_wavefunctions(p.path, meta, psi);
  fault::spit(p.path, fault::slurp(p.path) + "junk");
  CMatrix loaded;
  EXPECT_THROW(io::load_wavefunctions(p.path, loaded), Error);
}

TEST(CheckpointFault, RejectsTruncationAtEveryRegion) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 3, 35);
  const auto meta = io::CheckpointMeta::from_setup(setup, 3, 0.0, 0);
  TempPath p("trunc2.bin");
  io::save_wavefunctions(p.path, meta, psi);
  const std::string good = fault::slurp(p.path);
  // Mid-magic, mid-header, mid-payload, mid-checksum.
  for (const std::size_t keep : {4ul, 30ul, good.size() / 2, good.size() - 3}) {
    fault::spit(p.path, good.substr(0, keep));
    CMatrix loaded;
    EXPECT_THROW(io::load_wavefunctions(p.path, loaded), Error) << "kept " << keep << " bytes";
  }
}

TEST(CheckpointFault, RejectsUnknownFormatVersion) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, 3, 37);
  const auto meta = io::CheckpointMeta::from_setup(setup, 3, 0.0, 0);
  TempPath p("ver.bin");
  io::save_wavefunctions(p.path, meta, psi);
  std::string bad = fault::slurp(p.path);
  CMatrix loaded;
  // '1' is the retired v1 layout (raw-struct header, no checksum), '2' the
  // retired v2 layout (own envelope, no frame header).
  for (const char ver : {'9', '1', '2'}) {
    bad[7] = ver;  // version byte of the magic
    fault::spit(p.path, bad);
    try {
      io::load_wavefunctions(p.path, loaded);
      FAIL() << "version " << ver << " should have thrown";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version"), std::string::npos);
    }
  }
}

TEST(CheckpointFault, RejectsWrongFamilyMagic) {
  auto setup = test::make_si8_setup(3.0, 1);
  Rng rng(3);
  std::vector<double> data(setup.n_g() * 3 * 2);
  for (auto& v : data) v = rng.uniform(0.0, 1.0);
  const auto meta = io::CheckpointMeta::from_setup(setup, 3, 0.0, 0);
  TempPath p("family.bin");
  io::save_blob(p.path, meta, data);
  // A blob is not a wavefunction file even though both parse as v3 frames
  // and this one holds exactly n_g x n_bands complex doubles.
  CMatrix psi;
  EXPECT_THROW(io::load_wavefunctions(p.path, psi), Error);
}

TEST(CheckpointFault, BlobRoundTripAndFaults) {
  auto setup = test::make_si8_setup(3.0, 1);
  const auto meta = io::CheckpointMeta::from_setup(setup, 4, 1.0, 2);
  std::vector<double> data = {1.0, -2.5, 3.25, 0.0, 1e-300, 7.75};
  TempPath p("blob.bin");
  io::save_blob(p.path, meta, data);

  std::vector<double> loaded;
  const auto got = io::load_blob(p.path, loaded);
  EXPECT_EQ(got.step, 2u);
  ASSERT_EQ(loaded.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(loaded[i], data[i]);

  std::string bad = fault::slurp(p.path);
  bad[bad.size() - 20] = static_cast<char>(bad[bad.size() - 20] ^ 0x01);
  fault::spit(p.path, bad);
  EXPECT_THROW(io::load_blob(p.path, loaded), Error);
}

}  // namespace
}  // namespace pwdft
