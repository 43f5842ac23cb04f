// Kernel-equivalence golden: a fixed Fig-7 mini-sweep, byte-compared with
// data/golden/kernel_equivalence.csv, which was recorded from the engine
// before its event kernel was rewritten.  Any engine change that moves a
// single simulated metric of these runs fails here; regenerate the golden
// only for a deliberate change of the science.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "testing/sweep_csv.hpp"

namespace es {
namespace {

TEST(KernelEquivalence, MiniSweepMatchesGolden) {
  std::ifstream in(ES_KERNEL_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << ES_KERNEL_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty());
  EXPECT_EQ(testing::sweep_csv_bytes(testing::kernel_mini_sweep(),
                                     "kernel_equivalence.csv"),
            golden.str());
}

}  // namespace
}  // namespace es
