#include "transient/revocation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace tn = deflate::transient;
namespace sim = deflate::sim;

namespace {

tn::RevocationConfig poisson_config(double rate = 1.0 / 12.0) {
  tn::RevocationConfig config;
  config.model = tn::RevocationModel::Poisson;
  config.poisson_rate_per_hour = rate;
  config.recovery_hours = 0.25;
  return config;
}

tn::RevocationConfig temporal_config() {
  tn::RevocationConfig config;
  config.model = tn::RevocationModel::TemporallyConstrained;
  config.max_lifetime_hours = 24.0;
  config.early_fraction = 0.2;
  config.early_tau_hours = 2.0;
  config.late_shape = 8.0;
  config.recovery_hours = 0.25;
  return config;
}

}  // namespace

TEST(Revocation, NoneModelProducesNoEvents) {
  const tn::RevocationEngine engine({}, 42);
  EXPECT_TRUE(engine.schedule_for(0, sim::SimTime::from_hours(1000)).empty());
}

TEST(Revocation, ScheduleAlternatesRevokeRestore) {
  const tn::RevocationEngine engine(poisson_config(), 42);
  const auto events = engine.schedule_for(3, sim::SimTime::from_hours(500));
  ASSERT_FALSE(events.empty());
  bool expect_revoke = true;
  sim::SimTime last;
  for (const auto& event : events) {
    EXPECT_EQ(event.revoke, expect_revoke);
    EXPECT_EQ(event.server, 3U);
    EXPECT_GE(event.at, last);
    last = event.at;
    expect_revoke = !expect_revoke;
  }
}

TEST(Revocation, PoissonRateRoughlyHonored) {
  const double rate = 1.0 / 12.0;  // one revocation per 12h up-time
  const tn::RevocationEngine engine(poisson_config(rate), 9);
  const sim::SimTime horizon = sim::SimTime::from_hours(24.0 * 365);
  double revocations = 0.0;
  const std::size_t servers = 20;
  for (std::size_t s = 0; s < servers; ++s) {
    for (const auto& event : engine.schedule_for(s, horizon)) {
      if (event.revoke) revocations += 1.0;
    }
  }
  // Up-time dominates (recovery is 0.25h vs 12h mean lifetime).
  const double expected =
      static_cast<double>(servers) * horizon.hours() / (12.0 + 0.25);
  EXPECT_NEAR(revocations / expected, 1.0, 0.15);
}

TEST(Revocation, TemporalLifetimesRespectTheCap) {
  const auto config = temporal_config();
  const tn::RevocationEngine engine(config, 123);
  for (std::size_t s = 0; s < 10; ++s) {
    const auto events =
        engine.schedule_for(s, sim::SimTime::from_hours(24.0 * 30));
    sim::SimTime acquired;
    for (const auto& event : events) {
      if (event.revoke) {
        const double lifetime = (event.at - acquired).hours();
        EXPECT_GT(lifetime, 0.0);
        EXPECT_LE(lifetime, config.max_lifetime_hours + 1e-9);
      } else {
        acquired = event.at;
      }
    }
  }
}

TEST(Revocation, TemporalHazardIsBathtubShaped) {
  // Lifetimes concentrate near the 24h cap with an early infant-mortality
  // bump; the middle of the window is quiet (Kadupitiya et al. Fig. 3).
  const auto config = temporal_config();
  const tn::RevocationEngine engine(config, 77);
  std::size_t early = 0, mid = 0, late = 0, total = 0;
  for (std::size_t s = 0; s < 200; ++s) {
    const auto events =
        engine.schedule_for(s, sim::SimTime::from_hours(24.0 * 40));
    sim::SimTime acquired;
    for (const auto& event : events) {
      if (!event.revoke) {
        acquired = event.at;
        continue;
      }
      const double lifetime = (event.at - acquired).hours();
      ++total;
      if (lifetime < 6.0) {
        ++early;
      } else if (lifetime < 18.0) {
        ++mid;
      } else {
        ++late;
      }
    }
  }
  ASSERT_GT(total, 500U);
  // Most mass near the cap, a visible early bump, and a quiet middle:
  // both tails individually out-weigh the (3x wider) middle band.
  EXPECT_GT(late, mid);
  EXPECT_GT(early, mid / 3);
}

TEST(Revocation, PriceCrossingFollowsTheTrace) {
  // Price: below bid for 2h, above for 1h, below again.
  std::vector<double> prices;
  for (int i = 0; i < 24; ++i) prices.push_back(0.3);
  for (int i = 0; i < 12; ++i) prices.push_back(0.9);
  for (int i = 0; i < 24; ++i) prices.push_back(0.3);
  const tn::PriceTrace trace(sim::SimTime::from_minutes(5), prices);

  tn::RevocationConfig config;
  config.model = tn::RevocationModel::PriceCrossing;
  config.bid = 0.5;
  tn::RevocationEngine engine(config, 1);
  engine.set_price_trace(&trace);

  const auto events = engine.schedule_for(0, trace.duration());
  ASSERT_EQ(events.size(), 2U);
  EXPECT_TRUE(events[0].revoke);
  EXPECT_EQ(events[0].at, sim::SimTime::from_minutes(24 * 5));
  EXPECT_FALSE(events[1].revoke);
  EXPECT_EQ(events[1].at, sim::SimTime::from_minutes(36 * 5));
}

TEST(Revocation, PriceCrossingWithoutTraceThrows) {
  tn::RevocationConfig config;
  config.model = tn::RevocationModel::PriceCrossing;
  const tn::RevocationEngine engine(config, 1);
  EXPECT_THROW(engine.schedule_for(0, sim::SimTime::from_hours(1)),
               std::logic_error);
}

TEST(Revocation, DeterministicAcrossThreadCounts) {
  // Same (seed, server) -> same schedule, no matter how many threads
  // generate the schedules or in what order the servers are visited.
  const auto config = temporal_config();
  const tn::RevocationEngine engine(config, 2024);
  const sim::SimTime horizon = sim::SimTime::from_hours(24.0 * 14);
  const std::size_t servers = 64;

  std::vector<std::vector<tn::RevocationEvent>> serial(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    serial[s] = engine.schedule_for(s, horizon);
  }

  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    std::vector<std::vector<tn::RevocationEvent>> parallel(servers);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t s = next.fetch_add(1); s < servers;
             s = next.fetch_add(1)) {
          parallel[s] = engine.schedule_for(s, horizon);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (std::size_t s = 0; s < servers; ++s) {
      EXPECT_EQ(parallel[s], serial[s]) << "server " << s << " with "
                                        << threads << " threads";
    }
  }
}

TEST(Revocation, MergedScheduleSortedAndComplete) {
  const tn::RevocationEngine engine(poisson_config(), 5);
  const std::vector<std::size_t> servers{2, 5, 9};
  const sim::SimTime horizon = sim::SimTime::from_hours(24.0 * 30);
  const auto merged = engine.schedule(servers, horizon);
  std::size_t total = 0;
  for (const std::size_t s : servers) {
    total += engine.schedule_for(s, horizon).size();
  }
  EXPECT_EQ(merged.size(), total);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].at, merged[i].at);
  }
}

TEST(Revocation, ExpectedRatePositiveForActiveModels) {
  EXPECT_DOUBLE_EQ(tn::RevocationEngine({}, 1).expected_rate_per_hour(), 0.0);
  EXPECT_NEAR(tn::RevocationEngine(poisson_config(0.1), 1).expected_rate_per_hour(),
              0.1, 1e-12);
  const double temporal_rate =
      tn::RevocationEngine(temporal_config(), 1).expected_rate_per_hour();
  // Roughly one revocation per <=24h cycle.
  EXPECT_GT(temporal_rate, 1.0 / 30.0);
  EXPECT_LT(temporal_rate, 1.0);
}

TEST(Revocation, ZeroRecoveryNeverCollapsesRevokeAndRestore) {
  // recovery_hours = 0 must not produce a revoke and restore at the same
  // timestamp (the simulator orders restores first, which would leave the
  // server permanently down).
  auto config = poisson_config(1.0 / 6.0);
  config.recovery_hours = 0.0;
  const tn::RevocationEngine engine(config, 31);
  const auto events = engine.schedule_for(0, sim::SimTime::from_hours(500));
  ASSERT_GT(events.size(), 2U);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].at, events[i - 1].at);
  }
}

TEST(Revocation, PriceCrossingRevokesAtTimeZeroWhenBidUnderWater) {
  // A bid already below the spot price at t=0 never holds capacity: the
  // schedule starts with an immediate revoke so the simulator and the
  // billing agree the server was never held.
  const tn::PriceTrace trace(sim::SimTime::from_minutes(5),
                             std::vector<double>(24, 0.8));
  tn::RevocationConfig config;
  config.model = tn::RevocationModel::PriceCrossing;
  config.bid = 0.5;
  tn::RevocationEngine engine(config, 1);
  engine.set_price_trace(&trace);
  const auto events = engine.schedule_for(0, trace.duration());
  ASSERT_EQ(events.size(), 1U);
  EXPECT_TRUE(events[0].revoke);
  EXPECT_EQ(events[0].at, sim::SimTime{});
}
