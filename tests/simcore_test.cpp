// Unit tests for the discrete-event engine: ordering, determinism,
// periodic tasks and their cancellation.
#include <gtest/gtest.h>

#include <vector>

#include "simcore/engine.hpp"

namespace sdc::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(millis(30), [&] { order.push_back(3); });
  engine.schedule_at(millis(10), [&] { order.push_back(1); });
  engine.schedule_at(millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(millis(5), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine engine;
  SimTime seen = -1;
  engine.schedule_at(millis(123), [&] { seen = engine.now(); });
  engine.run();
  EXPECT_EQ(seen, millis(123));
  EXPECT_EQ(engine.now(), millis(123));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  SimTime inner = -1;
  engine.schedule_at(millis(100), [&] {
    engine.schedule_after(millis(50), [&] { inner = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(inner, millis(150));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  SimTime fired = -1;
  engine.schedule_at(millis(10), [&] {
    engine.schedule_after(millis(-5), [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, millis(10));
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(millis(10), [&] { ++fired; });
  engine.schedule_at(millis(100), [&] { ++fired; });
  EXPECT_EQ(engine.run(millis(50)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, StepProcessesSingleEvent) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(millis(1), [&] { ++fired; });
  engine.schedule_at(millis(2), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RequestStopExitsRun) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(millis(1), [&] {
    ++fired;
    engine.request_stop();
  });
  engine.schedule_at(millis(2), [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule_after(millis(1), recurse);
  };
  engine.schedule_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), millis(99));
}

TEST(PeriodicTask, FiresAtFixedInterval) {
  Engine engine;
  std::vector<SimTime> fires;
  PeriodicTask task = PeriodicTask::start(engine, millis(10), millis(25), [&] {
    fires.push_back(engine.now());
    return fires.size() < 4;
  });
  engine.run();
  ASSERT_EQ(fires.size(), 4u);
  EXPECT_EQ(fires[0], millis(10));
  EXPECT_EQ(fires[1], millis(35));
  EXPECT_EQ(fires[3], millis(85));
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTask, CancelStopsChain) {
  Engine engine;
  int fires = 0;
  PeriodicTask task = PeriodicTask::start(engine, 0, millis(10), [&] {
    ++fires;
    return true;
  });
  engine.schedule_at(millis(35), [&] { task.cancel(); });
  engine.run(millis(200));
  EXPECT_EQ(fires, 4);  // t=0,10,20,30
  EXPECT_FALSE(task.active());
}

TEST(Engine, DeterministicEventCountAcrossRuns) {
  const auto run_once = [] {
    Engine engine;
    std::uint64_t sum = 0;
    for (int i = 0; i < 50; ++i) {
      engine.schedule_at(millis(i * 7 % 13), [&sum, i, &engine] {
        sum += static_cast<std::uint64_t>(i) * engine.now();
      });
    }
    engine.run();
    return sum;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace sdc::sim
