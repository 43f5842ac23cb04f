// Per-test scratch paths under ::testing::TempDir().
//
// ctest -j runs every discovered TEST as its own process, concurrently, and
// all of them share one TempDir.  A fixed file name would be written and
// removed by several tests at once; suffixing the test name and the pid
// keeps each test's files its own.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace es::testing {

inline std::string unique_temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + stem;
  if (info != nullptr) {
    path += '_';
    path += info->test_suite_name();
    path += '.';
    path += info->name();
  }
  return path + '_' + std::to_string(::getpid());
}

}  // namespace es::testing
