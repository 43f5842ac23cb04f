// Snapshot container and ring: typed round-trips, exhaustive truncation
// and bit-flip rejection, version negotiation, and the newest-intact
// fallback walk that makes a torn ring generation recoverable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>

#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "testing/temp_path.hpp"

namespace es::snap {
namespace {

/// A small image exercising every value type across two sections.
std::string sample_image() {
  SnapshotWriter writer;
  writer.begin_section("AAAA");
  writer.u64(0x1122334455667788ULL);
  writer.f64(3.5);
  writer.str("hello");
  writer.end_section();
  writer.begin_section("BBBB");
  writer.u8(7);
  writer.u32(0xDEADBEEFu);
  writer.i64(-5);
  writer.i32(-123456);
  writer.boolean(true);
  writer.str("");
  writer.end_section();
  return writer.finish();
}

/// Reads the sample image back and returns true when every value matches
/// what sample_image() wrote.  Throws SnapshotError on any defect the
/// reader detects.
bool sample_reads_back(const std::string& image) {
  SnapshotReader reader(image);
  reader.open_section("AAAA");
  bool ok = reader.u64() == 0x1122334455667788ULL;
  ok = ok && reader.f64() == 3.5;
  ok = ok && reader.str() == "hello";
  ok = ok && reader.remaining() == 0;
  reader.open_section("BBBB");
  ok = ok && reader.u8() == 7;
  ok = ok && reader.u32() == 0xDEADBEEFu;
  ok = ok && reader.i64() == -5;
  ok = ok && reader.i32() == -123456;
  ok = ok && reader.boolean();
  ok = ok && reader.str().empty();
  ok = ok && reader.remaining() == 0;
  return ok;
}

SnapshotErrorKind kind_of(const std::string& image) {
  try {
    SnapshotReader reader(image);
  } catch (const SnapshotError& error) {
    return error.kind();
  }
  ADD_FAILURE() << "image of " << image.size() << " bytes was accepted";
  return SnapshotErrorKind::kIo;
}

TEST(SnapshotContainer, RoundTripsEveryValueType) {
  EXPECT_TRUE(sample_reads_back(sample_image()));
}

TEST(SnapshotContainer, DoublesRoundTripBitExactly) {
  SnapshotWriter writer;
  writer.begin_section("DBLS");
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e308, 5e-324,
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) writer.f64(v);
  writer.end_section();
  SnapshotReader reader(writer.finish());
  reader.open_section("DBLS");
  for (const double v : values) {
    const double got = reader.f64();
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &got, 8);
    EXPECT_EQ(a, b);
  }
}

TEST(SnapshotContainer, ZeroSectionSnapshotIsWellFormed) {
  SnapshotWriter writer;
  SnapshotReader reader(writer.finish());
  EXPECT_FALSE(reader.has_section("AAAA"));
}

TEST(SnapshotContainer, HasSectionSeesOnlyWrittenSections) {
  SnapshotReader reader(sample_image());
  EXPECT_TRUE(reader.has_section("AAAA"));
  EXPECT_TRUE(reader.has_section("BBBB"));
  EXPECT_FALSE(reader.has_section("CCCC"));
}

TEST(SnapshotContainer, MissingSectionThrowsCorrupt) {
  SnapshotReader reader(sample_image());
  try {
    reader.open_section("ZZZZ");
    FAIL() << "missing section accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.kind(), SnapshotErrorKind::kCorrupt);
  }
}

TEST(SnapshotContainer, SectionUnderrunThrowsCorrupt) {
  SnapshotWriter writer;
  writer.begin_section("TINY");
  writer.u32(1);
  writer.end_section();
  SnapshotReader reader(writer.finish());
  reader.open_section("TINY");
  EXPECT_THROW((void)reader.u64(), SnapshotError);
}

TEST(SnapshotContainer, EveryTruncationIsRejected) {
  const std::string image = sample_image();
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const SnapshotErrorKind kind = kind_of(image.substr(0, cut));
    // A strict prefix can never be a version mismatch of an intact file.
    EXPECT_EQ(kind, SnapshotErrorKind::kCorrupt) << "cut at " << cut;
  }
}

TEST(SnapshotContainer, EveryBitFlipIsDetected) {
  // A single flipped bit anywhere must be *detected*: either the reader
  // rejects the image outright (CRC / frame / header damage) or — for the
  // few bytes outside any checksum, the section tags — the read-back no
  // longer finds the expected content.  What must never happen is a clean
  // read-back of different bytes.
  const std::string image = sample_image();
  for (std::size_t offset = 0; offset < image.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
      try {
        EXPECT_FALSE(sample_reads_back(flipped))
            << "flip at byte " << offset << " bit " << bit
            << " read back clean";
      } catch (const SnapshotError& error) {
        EXPECT_NE(error.kind(), SnapshotErrorKind::kIo);
      }
    }
  }
}

TEST(SnapshotContainer, VersionBumpThrowsVersionMismatch) {
  std::string image = sample_image();
  image[4] = static_cast<char>(static_cast<unsigned char>(image[4]) + 1);
  EXPECT_EQ(kind_of(image), SnapshotErrorKind::kVersion);
}

TEST(SnapshotContainer, BadMagicThrowsCorrupt) {
  std::string image = sample_image();
  image[0] = 'X';
  EXPECT_EQ(kind_of(image), SnapshotErrorKind::kCorrupt);
}

TEST(SnapshotContainer, TrailingBytesAreRejected) {
  EXPECT_EQ(kind_of(sample_image() + "x"), SnapshotErrorKind::kCorrupt);
}

TEST(SnapshotContainer, EmptyImageIsCorruptNotVersioned) {
  EXPECT_EQ(kind_of(std::string()), SnapshotErrorKind::kCorrupt);
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = es::testing::unique_temp_path("snap_test_ring");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(SnapshotFileTest, WriteReadRoundTrip) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/one.essnap";
  write_snapshot_file(path, sample_image());
  SnapshotReader reader = read_snapshot_file(path);
  EXPECT_TRUE(reader.has_section("AAAA"));
}

TEST_F(SnapshotFileTest, MissingFileIsIoError) {
  try {
    (void)read_snapshot_file(dir_ + "/absent.essnap");
    FAIL() << "missing file accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.kind(), SnapshotErrorKind::kIo);
  }
}

TEST_F(SnapshotFileTest, WriteIntoMissingDirectoryIsIoError) {
  try {
    write_snapshot_file(dir_ + "/no/such/dir/x.essnap", sample_image());
    FAIL() << "write into missing directory succeeded";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.kind(), SnapshotErrorKind::kIo);
  }
}

TEST_F(SnapshotFileTest, RingKeepsTheNewestGenerations) {
  SnapshotRing ring(dir_, 3);
  for (int i = 0; i < 5; ++i) (void)ring.commit(sample_image());
  const auto entries = list_snapshots(dir_);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].generation, 3u);
  EXPECT_EQ(entries[2].generation, 5u);
  EXPECT_EQ(ring.next_generation(), 6u);
}

TEST_F(SnapshotFileTest, RingContinuesNumberingAcrossProcesses) {
  {
    SnapshotRing ring(dir_, 4);
    (void)ring.commit(sample_image());
    (void)ring.commit(sample_image());
  }
  SnapshotRing reopened(dir_, 4);
  EXPECT_EQ(reopened.next_generation(), 3u);
}

TEST_F(SnapshotFileTest, ListIgnoresForeignFiles) {
  SnapshotRing ring(dir_, 2);
  (void)ring.commit(sample_image());
  std::ofstream(dir_ + "/README.txt") << "not a snapshot";
  std::ofstream(dir_ + "/snap-abc.essnap") << "bad generation";
  EXPECT_EQ(list_snapshots(dir_).size(), 1u);
}

TEST_F(SnapshotFileTest, LatestIntactSkipsCorruptNewestGeneration) {
  SnapshotRing ring(dir_, 4);
  (void)ring.commit(sample_image());
  const std::string newest = ring.commit(sample_image());
  // Torn write on the newest generation: damage a CRC-protected payload
  // byte (offset 20 = first byte after the header and the first section's
  // tag + length frame).
  {
    std::fstream file(newest, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(20);
    file.put('\xA5');
  }
  const auto intact = latest_intact(dir_);
  ASSERT_TRUE(intact.has_value());
  EXPECT_EQ(intact->generation, 1u);
}

TEST_F(SnapshotFileTest, LatestIntactIsNulloptWhenAllGenerationsAreTorn) {
  SnapshotRing ring(dir_, 4);
  const std::string path = ring.commit(sample_image());
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "torn";
  EXPECT_FALSE(latest_intact(dir_).has_value());
}

TEST_F(SnapshotFileTest, LatestIntactOnMissingDirectoryIsIoError) {
  try {
    (void)latest_intact(dir_ + "/never-created");
    FAIL() << "missing directory accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.kind(), SnapshotErrorKind::kIo);
  }
}

}  // namespace
}  // namespace es::snap
