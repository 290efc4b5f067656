// Nested fan-out on one ThreadPool (help-while-wait).
//
// Fleet mode finalizes a corpus from inside a pool task and that
// finalize itself calls `parallel_for` on the same pool — so a waiter
// must never block while the tasks it waits for sit in the queue behind
// it.  The first test is the exact scenario that deadlocked under the
// old blocking wait: a single-worker pool whose only worker issues an
// inner `parallel_for`.  The stress tests run the corpus×shard shape on
// a multi-worker pool and are part of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace sdc {
namespace {

TEST(ThreadPoolNested, InnerParallelForFromSingleWorkerCompletes) {
  // Pre help-while-wait this deadlocked: the only worker parked in the
  // inner wait while the inner shard task sat queued behind it.  (A
  // regression hangs the test; ctest's timeout turns that into a fail.)
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.submit([&] {
    parallel_for(pool, 16, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
  });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPoolNested, TwoLevelFanOutComputesEveryCell) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  parallel_for(pool, 8, [&](std::size_t corpus) {
    parallel_for(pool, 16, [&](std::size_t shard) {
      total.fetch_add(corpus * 100 + shard + 1, std::memory_order_relaxed);
    });
  });
  // sum_{corpus<8} (16*100*corpus + sum_{1..16}) = 1600*28 + 8*136.
  EXPECT_EQ(total.load(), 1600u * 28u + 8u * 136u);
}

TEST(ThreadPoolNested, ThreeDeepNestingOnTwoWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 3, [&](std::size_t) {
    parallel_for(pool, 3, [&](std::size_t) {
      parallel_for(pool, 3, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(count.load(), 27);
}

TEST(ThreadPoolNested, InnerExceptionPropagatesThroughNestedWaits) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 4,
                            [&](std::size_t i) {
                              parallel_for(pool, 4, [&](std::size_t j) {
                                if (i == 1 && j == 1) {
                                  throw std::runtime_error("inner failure");
                                }
                              });
                            }),
               std::runtime_error);
}

TEST(ThreadPoolNested, HelpWhileWaitFeedsMetricSinks) {
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> help{0};
  std::atomic<std::int64_t> depth{0};
  ThreadPoolMetricSinks sinks;
  sinks.tasks = &tasks;
  sinks.help_while_wait = &help;
  sinks.queue_depth = &depth;
  set_thread_pool_metric_sinks(sinks);
  {
    ThreadPool pool(1);
    pool.submit([&] { parallel_for(pool, 8, [](std::size_t) {}); });
    pool.wait_idle();
  }
  // Detach before the local atomics go out of scope.
  set_thread_pool_metric_sinks(ThreadPoolMetricSinks{});
  // The outer task plus at least one inner shard ran...
  EXPECT_GE(tasks.load(), 2u);
  // ...and with one worker occupied by the outer task, every inner
  // shard can only have run on the help-while-wait path.
  EXPECT_GE(help.load(), 1u);
  // Every submit was balanced by a pop.
  EXPECT_EQ(depth.load(), 0);
}

TEST(ThreadPoolNested, CorpusShardStress) {
  // The fleet shape, oversubscribed: more outer tasks than workers, two
  // inner waves each (stitch + finalize), checked for lost or doubled
  // work.  Run under TSan in CI.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  parallel_for(pool, 12, [&](std::size_t) {
    for (int wave = 0; wave < 2; ++wave) {
      parallel_for(pool, 8, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 12u * 2u * 8u);
}

}  // namespace
}  // namespace sdc
