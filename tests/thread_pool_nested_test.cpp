// Nested `parallel_for` on one ThreadPool: a call from a worker of the
// same pool runs its loop inline on that worker, so no task ever waits
// on the pool it occupies.  A blocking wait there deadlocks a fully
// occupied pool — the first test is that scenario, a single-worker pool
// whose only worker issues an inner `parallel_for`.  The others check
// that nested calls complete, run inline and propagate exceptions, and
// run an oversubscribed outer fan-out; the TSan CI job repeats them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"

namespace sdc {
namespace {

TEST(ThreadPoolNested, InnerParallelForFromSingleWorkerCompletes) {
  // A blocking inner wait deadlocks here: the only worker would park
  // while the inner shard task sat queued behind it.  (A regression
  // hangs the test; ctest's timeout turns that into a fail.)
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

TEST(ThreadPoolNested, NestedCallRunsInlineOnTheWorker) {
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::int64_t> depth{0};
  ThreadPoolMetricSinks sinks;
  sinks.tasks = &tasks;
  sinks.queue_depth = &depth;
  set_thread_pool_metric_sinks(sinks);
  std::thread::id outer;
  std::atomic<int> inner_elsewhere{0};
  std::atomic<int> inner_runs{0};
  {
    ThreadPool pool(4);
    pool.submit([&] {
      outer = std::this_thread::get_id();
      parallel_for(pool, 8, [&](std::size_t) {
        inner_runs.fetch_add(1, std::memory_order_relaxed);
        if (std::this_thread::get_id() != outer) {
          inner_elsewhere.fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
    pool.wait_idle();
  }
  // Detach before the local atomics go out of scope.
  set_thread_pool_metric_sinks(ThreadPoolMetricSinks{});
  EXPECT_EQ(inner_runs.load(), 8);
  EXPECT_EQ(inner_elsewhere.load(), 0);
  // Only the outer task went through the queue...
  EXPECT_EQ(tasks.load(), 1u);
  // ...and every submit was balanced by a pop.
  EXPECT_EQ(depth.load(), 0);
}

TEST(ThreadPoolNested, CorpusShardStress) {
  // More outer tasks than workers, each issuing two inner calls on the
  // same pool, checked for lost or doubled work.  Run under TSan in CI.
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
