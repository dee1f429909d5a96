// Corruption/interruption torture tests for the sectioned checkpoint
// container and the serial codec: truncation at every byte offset, bit
// flips at every position, header bombs, stale tmp files, trailing
// garbage. The invariant under test: no on-disk state — however mangled —
// may crash the loader, drive a huge allocation, or load silently wrong;
// every failure is a clean Error.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/checkpoint.h"
#include "util/error.h"
#include "util/serial.h"

namespace hsconas::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small two-section checkpoint whose full image fits torture loops.
std::string write_sample(const std::string& path) {
  CheckpointWriter writer;
  util::ByteWriter alpha;
  alpha.u32(7);
  alpha.str("hello");
  alpha.vec_f64({1.5, -2.5, 3.25});
  writer.add_section("alpha", alpha.take());
  util::ByteWriter beta;
  beta.f64(3.5);
  beta.vec_i32({1, 2, 3});
  writer.add_section("beta", beta.take());
  writer.save(path);
  return slurp(path);
}

TEST(CheckpointRobustness, RoundTripsSections) {
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.bin";
  write_sample(path);
  CheckpointReader reader(path);
  EXPECT_TRUE(reader.has("alpha"));
  EXPECT_TRUE(reader.has("beta"));
  EXPECT_FALSE(reader.has("gamma"));
  EXPECT_THROW(reader.section("gamma"), Error);

  util::ByteReader alpha(reader.section("alpha"));
  EXPECT_EQ(alpha.u32(), 7u);
  EXPECT_EQ(alpha.str(), "hello");
  EXPECT_EQ(alpha.vec_f64(), (std::vector<double>{1.5, -2.5, 3.25}));
  alpha.expect_done();

  util::ByteReader beta(reader.section("beta"));
  EXPECT_EQ(beta.f64(), 3.5);
  EXPECT_EQ(beta.vec_i32(), (std::vector<int>{1, 2, 3}));
  beta.expect_done();
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, TruncationAtEveryOffsetFailsCleanly) {
  const std::string path = testing::TempDir() + "/ckpt_trunc_src.bin";
  const std::string full = write_sample(path);
  ASSERT_GT(full.size(), 8u);

  const std::string mangled = testing::TempDir() + "/ckpt_trunc.bin";
  for (std::size_t n = 0; n < full.size(); ++n) {
    spew(mangled, full.substr(0, n));
    EXPECT_THROW(CheckpointReader r(mangled), Error)
        << "truncated to " << n << " of " << full.size() << " bytes";
  }
  std::remove(path.c_str());
  std::remove(mangled.c_str());
}

TEST(CheckpointRobustness, BitFlipAtEveryPositionIsDetected) {
  const std::string path = testing::TempDir() + "/ckpt_flip_src.bin";
  const std::string full = write_sample(path);

  const std::string mangled = testing::TempDir() + "/ckpt_flip.bin";
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = full;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      spew(mangled, corrupt);
      EXPECT_THROW(CheckpointReader r(mangled), Error)
          << "flip byte " << byte << " bit " << bit << " undetected";
    }
  }
  std::remove(path.c_str());
  std::remove(mangled.c_str());
}

TEST(CheckpointRobustness, TrailingGarbageIsRejected) {
  const std::string path = testing::TempDir() + "/ckpt_tail.bin";
  const std::string full = write_sample(path);
  spew(path, full + std::string(16, '\x5a'));
  EXPECT_THROW(CheckpointReader r(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, HeaderBombsFailBeforeAllocating) {
  // Hand-crafted headers claiming absurd name/section/payload sizes must be
  // rejected by bounds checks, not by an out-of-memory crash.
  const std::string path = testing::TempDir() + "/ckpt_bomb.bin";

  {  // name_len = 0xFFFFFFFF
    util::ByteWriter w;
    w.bytes("HSCK", 4);
    w.u32(kCheckpointVersion);
    w.u32(1);           // one section
    w.u32(0xFFFFFFFFu); // name_len bomb
    spew(path, w.take());
    EXPECT_THROW(CheckpointReader r(path), Error);
  }
  {  // payload_size far beyond the file
    util::ByteWriter w;
    w.bytes("HSCK", 4);
    w.u32(kCheckpointVersion);
    w.u32(1);
    w.u32(1);
    w.bytes("a", 1);
    w.u64(0x7FFFFFFFFFFFull);  // payload_size bomb
    w.u32(0);                  // crc (never reached)
    spew(path, w.take());
    EXPECT_THROW(CheckpointReader r(path), Error);
  }
  {  // section_count bomb
    util::ByteWriter w;
    w.bytes("HSCK", 4);
    w.u32(kCheckpointVersion);
    w.u32(0xFFFFFFFFu);
    spew(path, w.take());
    EXPECT_THROW(CheckpointReader r(path), Error);
  }
  {  // wrong magic / wrong version
    util::ByteWriter w;
    w.bytes("NOPE", 4);
    w.u32(kCheckpointVersion);
    w.u32(0);
    spew(path, w.take());
    EXPECT_THROW(CheckpointReader r(path), Error);
    util::ByteWriter v;
    v.bytes("HSCK", 4);
    v.u32(kCheckpointVersion + 7);
    v.u32(0);
    spew(path, v.take());
    EXPECT_THROW(CheckpointReader r(path), Error);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, StaleTmpFromKilledWriterIsHarmless) {
  // A writer killed between the tmp write and the rename leaves path.tmp
  // behind. The real path must still load (previous complete snapshot),
  // and the next save must succeed and clean up.
  const std::string path = testing::TempDir() + "/ckpt_stale.bin";
  write_sample(path);
  spew(path + ".tmp", "torn half-written garbage");

  EXPECT_NO_THROW(CheckpointReader r(path));  // .tmp never read

  CheckpointWriter writer;
  writer.add_section("only", std::string("payload"));
  writer.save(path);
  CheckpointReader reader(path);
  EXPECT_TRUE(reader.has("only"));
  EXPECT_FALSE(reader.has("alpha"));  // fully replaced, not merged
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "save left its .tmp behind";
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, SaveToUnwritablePathThrowsAndLeavesNoTmp) {
  CheckpointWriter writer;
  writer.add_section("s", std::string("x"));
  EXPECT_THROW(writer.save("/no/such/dir/ckpt.bin"), Error);
}

// ------------------------------------------------------------ serial codec --

TEST(SerialCodec, ReaderCapsRejectOversizedClaimsBeforeAllocation) {
  util::ByteWriter w;
  w.u32(0x40000000u);  // vector "count" with no elements behind it
  const std::string buf = w.take();
  {
    util::ByteReader r(buf);
    EXPECT_THROW(r.vec_i32(), Error);
  }
  {
    util::ByteReader r(buf);
    EXPECT_THROW(r.vec_f64(), Error);
  }
  {
    util::ByteReader r(buf);
    EXPECT_THROW(r.str(), Error);
  }
  {  // explicit cap tighter than the claim
    util::ByteWriter small;
    small.vec_i32({1, 2, 3, 4});
    util::ByteReader r(small.data());
    EXPECT_THROW(r.vec_i32(2), Error);
  }
  {  // reading past the end of a POD
    util::ByteReader r(std::string_view("ab", 2));
    EXPECT_THROW(r.u64(), Error);
  }
}

TEST(SerialCodec, ExpectDoneCatchesUnderAndOverConsumption) {
  util::ByteWriter w;
  w.u32(1);
  w.u32(2);
  util::ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_THROW(r.expect_done(), Error);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_NO_THROW(r.expect_done());
  EXPECT_THROW(r.u8(), Error);
}

}  // namespace
}  // namespace hsconas::core
