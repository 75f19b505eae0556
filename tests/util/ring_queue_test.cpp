#include "util/ring_queue.hpp"

#include <gtest/gtest.h>

namespace eslurm::util {
namespace {

TEST(RingQueue, KeepsFifoOrderAcrossGrowthAndWrap) {
  RingQueue<int> ring;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head wraps before and after growth.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_in - next_out));
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, CapacityStopsGrowingAtAFlatLength) {
  RingQueue<int> ring;
  for (int i = 0; i < 20; ++i) ring.push_back(i);
  const std::size_t plateau = ring.capacity();
  for (int i = 0; i < 10000; ++i) {
    ring.pop_front();
    ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), plateau);
  EXPECT_EQ(ring.size(), 20u);
}

}  // namespace
}  // namespace eslurm::util
