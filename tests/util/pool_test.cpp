#include "util/pool.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace eslurm::util {
namespace {

TEST(SlabPool, AcquireGrowsThenRecyclesLifo) {
  SlabPool<int> pool;
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  const auto c = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(pool.in_use(), 3u);
  pool.release(b);
  pool.release(a);
  // LIFO: the most recently released slot comes back first.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool.capacity(), 3u);  // no new slots were created
  EXPECT_EQ(pool.in_use(), 3u);
}

TEST(SlabPool, RecycledSlotsKeepTheirContents) {
  SlabPool<std::string> pool;
  const auto slot = pool.acquire();
  pool[slot] = "retained capacity";
  pool.release(slot);
  const auto again = pool.acquire();
  ASSERT_EQ(again, slot);
  // Recycle-as-is: the old value survives; callers overwrite, the pool
  // never clears.
  EXPECT_EQ(pool[again], "retained capacity");
}

TEST(SlabPool, StableStorageKeepsAddressesAcrossGrowth) {
  SlabPool<int, /*StableStorage=*/true> pool;
  const auto first = pool.acquire();
  pool[first] = 11;
  int* address = &pool[first];
  for (int i = 0; i < 4096; ++i) pool.acquire();  // force many blocks
  EXPECT_EQ(address, &pool[first]);
  EXPECT_EQ(*address, 11);
}

TEST(SlabPool, SteadyStateChurnsWithoutNewSlots) {
  SlabPool<std::vector<int>> pool;
  std::vector<SlabPool<std::vector<int>>::Index> held;
  for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
  for (const auto index : held) pool.release(index);
  const std::size_t high_water = pool.capacity();
  for (int round = 0; round < 100; ++round) {
    held.clear();
    for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
    for (const auto index : held) pool.release(index);
  }
  EXPECT_EQ(pool.capacity(), high_water);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(HandlePool, StaleHandlesNeverMatchAReusedSlot) {
  HandlePool<int> pool;
  const auto first = pool.acquire();
  pool[first] = 7;
  ASSERT_NE(pool.find(first), nullptr);
  EXPECT_EQ(*pool.find(first), 7);
  pool.release(first);
  EXPECT_EQ(pool.find(first), nullptr);  // free slot

  const auto second = pool.acquire();  // LIFO: the same slot, new generation
  EXPECT_EQ(second & ((1u << HandlePool<int>::kSlotBits) - 1),
            first & ((1u << HandlePool<int>::kSlotBits) - 1));
  EXPECT_NE(second, first);
  EXPECT_EQ(pool.find(first), nullptr);  // reused slot
  ASSERT_NE(pool.find(second), nullptr);
  EXPECT_EQ(pool.capacity(), 1u);
  EXPECT_EQ(pool.in_use(), 1u);
  // A handle past the slab, or with no generation ever issued, is stale.
  EXPECT_EQ(pool.find(second + 1), nullptr);
  EXPECT_EQ(pool.find(0), nullptr);
}

}  // namespace
}  // namespace eslurm::util
