// Workload::normalize() against the sorts it may skip: a range already in
// its order is left as it is, and that must be exactly what the sort would
// have returned, ties and duplicates included.
#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace es::workload {
namespace {

std::uint64_t bits(double value) {
  std::uint64_t word = 0;
  std::memcpy(&word, &value, sizeof word);
  return word;
}

/// normalize() as it was before it skipped ordered ranges.
Workload unconditionally_sorted(Workload workload) {
  std::sort(workload.jobs.begin(), workload.jobs.end(), job_before);
  std::stable_sort(workload.eccs.begin(), workload.eccs.end(), ecc_before);
  return workload;
}

void expect_byte_equal(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.eccs.size(), b.eccs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id) << "job " << i;
    EXPECT_EQ(bits(a.jobs[i].arr), bits(b.jobs[i].arr)) << "job " << i;
    EXPECT_EQ(a.jobs[i].num, b.jobs[i].num) << "job " << i;
    EXPECT_EQ(bits(a.jobs[i].dur), bits(b.jobs[i].dur)) << "job " << i;
    EXPECT_EQ(bits(a.jobs[i].start), bits(b.jobs[i].start)) << "job " << i;
  }
  for (std::size_t i = 0; i < a.eccs.size(); ++i) {
    EXPECT_EQ(bits(a.eccs[i].issue), bits(b.eccs[i].issue)) << "ecc " << i;
    EXPECT_EQ(a.eccs[i].job_id, b.eccs[i].job_id) << "ecc " << i;
    EXPECT_EQ(a.eccs[i].type, b.eccs[i].type) << "ecc " << i;
    EXPECT_EQ(bits(a.eccs[i].amount), bits(b.eccs[i].amount)) << "ecc " << i;
  }
}

void expect_normalize_matches(const Workload& input) {
  Workload normalized = input;
  normalized.normalize();
  expect_byte_equal(normalized, unconditionally_sorted(input));
}

/// Arrivals and issue times from a handful of values, ids and targets from
/// a few more: most neighbours tie on the first key, some on both.  `num`
/// and `amount` number the records, so any reordering of a tie shows.
Workload tie_heavy(std::uint64_t seed) {
  util::Rng rng(seed);
  Workload workload;
  for (int i = 0; i < 300; ++i) {
    Job job;
    job.id = rng.uniform_int(1, 40);
    job.arr = static_cast<double>(rng.uniform_int(0, 3));
    job.num = i + 1;
    workload.jobs.push_back(job);
    Ecc ecc;
    ecc.issue = static_cast<double>(rng.uniform_int(0, 3));
    ecc.job_id = rng.uniform_int(1, 5);
    ecc.type = rng.bernoulli(0.5) ? EccType::kExtendTime : EccType::kReduceTime;
    ecc.amount = i + 1;
    workload.eccs.push_back(ecc);
  }
  // Equal-issue commands of one job, in a row.
  for (int i = 0; i < 5; ++i) {
    Ecc ecc;
    ecc.issue = 2;
    ecc.job_id = 3;
    ecc.amount = 1000 + i;
    workload.eccs.push_back(ecc);
  }
  return workload;
}

TEST(Workload, NormalizeMatchesUnconditionalSort) {
  GeneratorConfig config;
  config.num_jobs = 500;
  config.seed = 7;
  config.p_dedicated = 0.5;
  config.p_extend = 0.3;
  config.p_reduce = 0.3;
  const Workload sorted = generate(config);
  {
    SCOPED_TRACE("sorted");
    expect_normalize_matches(sorted);
  }
  {
    SCOPED_TRACE("reversed");
    Workload reversed = sorted;
    std::reverse(reversed.jobs.begin(), reversed.jobs.end());
    std::reverse(reversed.eccs.begin(), reversed.eccs.end());
    expect_normalize_matches(reversed);
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const Workload ties = tie_heavy(seed);
    expect_normalize_matches(ties);
    // Already in order: duplicated (arr, id) jobs still take the sort, and
    // the ordered commands, equal keys included, stay as they are.
    expect_normalize_matches(unconditionally_sorted(ties));
  }
}

}  // namespace
}  // namespace es::workload
