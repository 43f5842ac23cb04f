// Crash-safe file writing: success path, producer abort (simulated partial
// write), and I/O failure must all leave either the previous file version or
// the complete new one — never a torn write, never a stray temp file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "testing/temp_path.hpp"
#include "util/atomic_file.hpp"

namespace es::util {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = es::testing::unique_temp_path("atomic_file_test") + ".csv";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(AtomicFileTest, WritesContentAndRemovesTheTemp) {
  EXPECT_TRUE(write_file_atomic(path_, [](std::ostream& out) {
    out << "a,b\n1,2\n";
    return true;
  }));
  EXPECT_EQ(read_all(path_), "a,b\n1,2\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, OverwritesAtomically) {
  ASSERT_TRUE(write_file_atomic(path_, [](std::ostream& out) {
    out << "old";
    return true;
  }));
  EXPECT_TRUE(write_file_atomic(path_, [](std::ostream& out) {
    out << "new content";
    return true;
  }));
  EXPECT_EQ(read_all(path_), "new content");
}

TEST_F(AtomicFileTest, AbortedProducerKeepsThePreviousVersion) {
  ASSERT_TRUE(write_file_atomic(path_, [](std::ostream& out) {
    out << "complete previous version";
    return true;
  }));
  // Simulated crash mid-write: some rows were emitted, then the producer
  // fails.  The target must still hold the previous complete version.
  EXPECT_FALSE(write_file_atomic(path_, [](std::ostream& out) {
    out << "partial";
    return false;
  }));
  EXPECT_EQ(read_all(path_), "complete previous version");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, AbortedProducerLeavesNoFileWhenNoneExisted) {
  EXPECT_FALSE(write_file_atomic(path_, [](std::ostream& out) {
    out << "partial";
    return false;
  }));
  EXPECT_FALSE(exists(path_));
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, SuccessfulWriteIssuesBothFsyncs) {
  // Durability contract: data fsync before the rename, directory fsync
  // after.  The counter proves the path is exercised, not silently skipped.
  const std::uint64_t before = atomic_file_fsyncs();
  ASSERT_TRUE(write_file_atomic(path_, [](std::ostream& out) {
    out << "durable";
    return true;
  }));
  EXPECT_GE(atomic_file_fsyncs(), before + 2);
}

TEST_F(AtomicFileTest, AbortedProducerSkipsTheDirectoryFsync) {
  const std::uint64_t before = atomic_file_fsyncs();
  EXPECT_FALSE(write_file_atomic(path_, [](std::ostream& out) {
    out << "partial";
    return false;
  }));
  // No rename happened, so at most the (discarded) temp file was synced;
  // the directory fsync that commits a rename must not have run twice.
  EXPECT_LE(atomic_file_fsyncs(), before + 1);
}

TEST_F(AtomicFileTest, UnwritableDirectoryFails) {
  const std::string bogus =
      ::testing::TempDir() + "no-such-dir-xyz/out.csv";
  EXPECT_FALSE(write_file_atomic(bogus, [](std::ostream& out) {
    out << "data";
    return true;
  }));
}

}  // namespace
}  // namespace es::util
