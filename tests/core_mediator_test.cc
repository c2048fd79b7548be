// Storage mediator: admission control, reservation accounting, striping-unit
// policy, load sharing, and the object directory.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "src/core/object_directory.h"
#include "src/core/storage_mediator.h"
#include "src/util/units.h"

namespace swift {
namespace {

StorageMediator MakeMediator(uint32_t agents, double rate_each = MiBPerSecond(1),
                             uint64_t storage_each = MiB(100),
                             StorageMediator::Options options = StorageMediator::Options()) {
  StorageMediator mediator(options);
  for (uint32_t i = 0; i < agents; ++i) {
    mediator.RegisterAgent(AgentCapacity{rate_each, storage_each});
  }
  return mediator;
}

TEST(MediatorTest, LowRateGetsFewAgentsLargeUnit) {
  // §2: "If the required transfer rate is low, then the striping unit can be
  // large and Swift can spread the data over only a few storage agents."
  StorageMediator mediator = MakeMediator(8);
  auto plan = mediator.OpenSession({.object_name = "audio",
                                    .expected_size = MiB(10),
                                    .required_rate = KiBPerSecond(175),  // CD audio
                                    .typical_request = KiB(512)});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stripe.num_agents, 1u);
  EXPECT_EQ(plan->stripe.stripe_unit, KiB(512));
}

TEST(MediatorTest, HighRateGetsManyAgentsSmallUnit) {
  // "If the required data-rate is high, then the striping unit will be
  // chosen small enough to exploit all the parallelism needed."
  StorageMediator mediator = MakeMediator(8);
  auto plan = mediator.OpenSession({.object_name = "video",
                                    .expected_size = MiB(100),
                                    .required_rate = MiBPerSecond(5),
                                    .typical_request = KiB(512)});
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->stripe.num_agents, 6u);
  EXPECT_LE(plan->stripe.stripe_unit, KiB(128));
  EXPECT_EQ(plan->agent_ids.size(), plan->stripe.num_agents);
}

TEST(MediatorTest, RedundancyAddsAnAgent) {
  StorageMediator mediator = MakeMediator(4);
  auto plan = mediator.OpenSession({.object_name = "movie",
                                    .expected_size = MiB(10),
                                    .required_rate = MiBPerSecond(1.6),
                                    .redundancy = true});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stripe.parity, ParityMode::kRotating);
  EXPECT_EQ(plan->stripe.num_agents, 3u);  // 2 data + 1 parity
}

TEST(MediatorTest, RejectsWhenRateExceedsInstallation) {
  // "storage mediators will reject any request with requirements it is
  // unable to satisfy."
  StorageMediator mediator = MakeMediator(3);
  auto plan = mediator.OpenSession({.object_name = "firehose",
                                    .expected_size = MiB(1),
                                    .required_rate = MiBPerSecond(20)});
  EXPECT_EQ(plan.code(), StatusCode::kResourceExhausted);
}

TEST(MediatorTest, RejectsWhenStorageExhausted) {
  StorageMediator mediator = MakeMediator(2, MiBPerSecond(1), MiB(1));
  auto plan = mediator.OpenSession({.object_name = "big",
                                    .expected_size = MiB(100),
                                    .required_rate = KiBPerSecond(100)});
  EXPECT_EQ(plan.code(), StatusCode::kResourceExhausted);
}

TEST(MediatorTest, RejectsWhenNetworkExhausted) {
  StorageMediator::Options options;
  options.network_capacity = MiBPerSecond(1);
  StorageMediator mediator = MakeMediator(8, MiBPerSecond(1), MiB(100), options);
  auto first = mediator.OpenSession(
      {.object_name = "a", .expected_size = MiB(1), .required_rate = KiBPerSecond(800)});
  ASSERT_TRUE(first.ok());
  auto second = mediator.OpenSession(
      {.object_name = "b", .expected_size = MiB(1), .required_rate = KiBPerSecond(800)});
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  // Closing the first frees the interconnect for the second.
  ASSERT_TRUE(mediator.CloseSession(first->session_id).ok());
  auto retry = mediator.OpenSession(
      {.object_name = "b", .expected_size = MiB(1), .required_rate = KiBPerSecond(800)});
  EXPECT_TRUE(retry.ok());
}

TEST(MediatorTest, ReservationsAccumulateAndRelease) {
  StorageMediator mediator = MakeMediator(2);
  auto plan = mediator.OpenSession({.object_name = "x",
                                    .expected_size = MiB(4),
                                    .required_rate = KiBPerSecond(900),
                                    .typical_request = MiB(1)});
  ASSERT_TRUE(plan.ok());
  double reserved_total = 0;
  for (uint32_t id : plan->agent_ids) {
    reserved_total += mediator.ReservedRate(id);
    EXPECT_GT(mediator.ReservedStorage(id), 0u);
  }
  EXPECT_NEAR(reserved_total, KiBPerSecond(900), 1.0);

  ASSERT_TRUE(mediator.CloseSession(plan->session_id).ok());
  for (uint32_t id : plan->agent_ids) {
    EXPECT_DOUBLE_EQ(mediator.ReservedRate(id), 0.0);
    EXPECT_EQ(mediator.ReservedStorage(id), 0u);
  }
  // Close is idempotent: a retried close is a no-op success.
  EXPECT_TRUE(mediator.CloseSession(plan->session_id).ok());
}

TEST(MediatorTest, LoadSharingSpreadsSessions) {
  // Two one-agent sessions must land on different agents.
  StorageMediator mediator = MakeMediator(2);
  auto a = mediator.OpenSession(
      {.object_name = "a", .expected_size = MiB(1), .required_rate = KiBPerSecond(200)});
  auto b = mediator.OpenSession(
      {.object_name = "b", .expected_size = MiB(1), .required_rate = KiBPerSecond(200)});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->agent_ids.size(), 1u);
  ASSERT_EQ(b->agent_ids.size(), 1u);
  EXPECT_NE(a->agent_ids[0], b->agent_ids[0]);
}

TEST(MediatorTest, AdmitsUntilAgentsSaturateThenRejects) {
  // Best-case aggregate: 4 agents * 1 MiB/s * 0.9 load factor. Sessions of
  // 0.8 MiB/s each: 4 admitted (one per agent), the 5th must be rejected.
  StorageMediator mediator = MakeMediator(4);
  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    auto plan = mediator.OpenSession({.object_name = "s" + std::to_string(i),
                                      .expected_size = MiB(1),
                                      .required_rate = MiBPerSecond(0.8)});
    if (plan.ok()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 4);
}

TEST(MediatorTest, RetiredAgentsNotChosen) {
  StorageMediator mediator = MakeMediator(3);
  ASSERT_TRUE(mediator.RetireAgent(0).ok());
  auto plan = mediator.OpenSession({.object_name = "x",
                                    .expected_size = MiB(1),
                                    .required_rate = MiBPerSecond(1.6)});
  ASSERT_TRUE(plan.ok());
  for (uint32_t id : plan->agent_ids) {
    EXPECT_NE(id, 0u);
  }
  EXPECT_EQ(mediator.RetireAgent(9).code(), StatusCode::kNotFound);
}

TEST(MediatorTest, MaxAgentsCapRespected) {
  StorageMediator mediator = MakeMediator(8);
  auto plan = mediator.OpenSession({.object_name = "capped",
                                    .expected_size = MiB(1),
                                    .required_rate = 0,
                                    .redundancy = true,
                                    .max_agents = 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stripe.num_agents, 2u);
  EXPECT_EQ(plan->stripe.DataAgentsPerRow(), 1u);
}

TEST(MediatorTest, PickStripeUnitPolicy) {
  StorageMediator mediator = MakeMediator(1);
  // 1 MiB request over 4 data agents → 256 KiB units.
  EXPECT_EQ(mediator.PickStripeUnit(MiB(1), 4), KiB(256));
  // Over 3 agents → largest power of two <= 349525 = 256 KiB.
  EXPECT_EQ(mediator.PickStripeUnit(MiB(1), 3), KiB(256));
  // Clamped below.
  EXPECT_EQ(mediator.PickStripeUnit(KiB(4), 8), KiB(4));
  // Clamped above.
  EXPECT_EQ(mediator.PickStripeUnit(MiB(64), 1), MiB(1));
}

TEST(MediatorTest, BestEffortSessionNeedsNoRate) {
  StorageMediator mediator = MakeMediator(2);
  auto plan = mediator.OpenSession({.object_name = "scratch", .expected_size = KiB(64)});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->reserved_rate, 0.0);
  EXPECT_EQ(mediator.ReservedRate(plan->agent_ids[0]), 0.0);
}

TEST(MediatorTest, PickStripeUnitEdgeCases) {
  StorageMediator mediator = MakeMediator(1);
  // Typical request smaller than min_stripe_unit * data_agents: clamped to
  // the minimum rather than splitting below it.
  EXPECT_EQ(mediator.PickStripeUnit(KiB(8), 4), KiB(4));
  EXPECT_EQ(mediator.PickStripeUnit(1, 8), KiB(4));
  // Zero typical request: still a valid (minimum) unit.
  EXPECT_EQ(mediator.PickStripeUnit(0, 3), KiB(4));
  // Non-power-of-two share (300000 / 3 = 100000): rounds down to the largest
  // power of two that fits, 64 KiB.
  EXPECT_EQ(mediator.PickStripeUnit(300000, 3), KiB(64));
  // Clamped to max_stripe_unit no matter how large the request.
  EXPECT_EQ(mediator.PickStripeUnit(MiB(512), 1), MiB(1));
  // Custom bounds are respected.
  StorageMediator::Options narrow;
  narrow.min_stripe_unit = KiB(16);
  narrow.max_stripe_unit = KiB(64);
  StorageMediator bounded = MakeMediator(1, MiBPerSecond(1), MiB(100), narrow);
  EXPECT_EQ(bounded.PickStripeUnit(KiB(4), 4), KiB(16));
  EXPECT_EQ(bounded.PickStripeUnit(MiB(8), 1), KiB(64));
}

// ------------------------------------------------------- control plane -----

TEST(MediatorControlTest, CloseUnknownSessionIsNoOp) {
  StorageMediator mediator = MakeMediator(2);
  EXPECT_TRUE(mediator.CloseSession(12345).ok());
  EXPECT_TRUE(mediator.CloseSession(0).ok());
}

TEST(MediatorControlTest, AutoRetireReleasesReservations) {
  StorageMediator::Options options;
  options.heartbeat_interval_ms = 100;
  options.heartbeat_miss_limit = 3;
  StorageMediator mediator(options);
  for (uint16_t i = 0; i < 3; ++i) {
    mediator.RegisterAgent(AgentCapacity{MiBPerSecond(1), MiB(100)},
                           static_cast<uint16_t>(5000 + i), 1000);
  }
  auto plan = mediator.OpenSession({.object_name = "x",
                                    .expected_size = MiB(1),
                                    .required_rate = MiBPerSecond(1.6)},
                                   1000);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->agent_ids.size(), 2u);
  const uint32_t silent = plan->agent_ids[0];
  const uint32_t chatty = plan->agent_ids[1];

  // Everyone but `silent` keeps heartbeating.
  for (uint64_t t = 1100; t <= 1400; t += 100) {
    for (uint32_t id = 0; id < 3; ++id) {
      if (id != silent) {
        ASSERT_TRUE(mediator.NoteHeartbeat(id, 0, t).ok());
      }
    }
    mediator.AdvanceTime(t);
  }

  // 1400 > 1000 + 100*3: the silent agent is auto-retired and its
  // reservations for the still-open session are released.
  EXPECT_TRUE(mediator.AgentRetired(silent));
  EXPECT_DOUBLE_EQ(mediator.ReservedRate(silent), 0.0);
  EXPECT_EQ(mediator.ReservedStorage(silent), 0u);
  EXPECT_GT(mediator.ReservedRate(chatty), 0.0);
  EXPECT_EQ(mediator.active_session_count(), 1u);

  // Heartbeats from a retired agent bounce with NOT_FOUND (re-register).
  EXPECT_EQ(mediator.NoteHeartbeat(silent, 0, 1500).code(), StatusCode::kNotFound);

  // Closing the session afterwards releases only what is still charged —
  // nothing goes negative and the survivor ends clean.
  ASSERT_TRUE(mediator.CloseSession(plan->session_id).ok());
  for (uint32_t id = 0; id < 3; ++id) {
    EXPECT_DOUBLE_EQ(mediator.ReservedRate(id), 0.0);
    EXPECT_EQ(mediator.ReservedStorage(id), 0u);
  }
  EXPECT_TRUE(mediator.CloseSession(plan->session_id).ok());  // idempotent
}

TEST(MediatorControlTest, LeaseExpiryFreesRateForNewSession) {
  StorageMediator mediator = MakeMediator(1);
  auto hog = mediator.OpenSession({.object_name = "hog",
                                   .expected_size = MiB(1),
                                   .required_rate = MiBPerSecond(0.8),
                                   .lease_ms = 500},
                                  0);
  ASSERT_TRUE(hog.ok());

  // While the lease is live the rate is committed: a second session of the
  // same size must be rejected.
  auto blocked = mediator.OpenSession({.object_name = "blocked",
                                       .expected_size = MiB(1),
                                       .required_rate = MiBPerSecond(0.8)},
                                      100);
  EXPECT_EQ(blocked.code(), StatusCode::kResourceExhausted);

  mediator.AdvanceTime(499);
  EXPECT_EQ(mediator.active_session_count(), 1u);
  mediator.AdvanceTime(500);
  EXPECT_EQ(mediator.active_session_count(), 0u);
  EXPECT_DOUBLE_EQ(mediator.ReservedRate(0), 0.0);

  auto retry = mediator.OpenSession({.object_name = "blocked",
                                     .expected_size = MiB(1),
                                     .required_rate = MiBPerSecond(0.8)},
                                    600);
  EXPECT_TRUE(retry.ok());
  // Closing the expired session later is still a no-op success.
  EXPECT_TRUE(mediator.CloseSession(hog->session_id).ok());
}

TEST(MediatorControlTest, RenewLeaseExtendsDeadline) {
  StorageMediator mediator = MakeMediator(2);
  auto plan = mediator.OpenSession({.object_name = "x",
                                    .expected_size = MiB(1),
                                    .required_rate = KiBPerSecond(100),
                                    .lease_ms = 500},
                                   0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(mediator.SessionLeaseMs(plan->session_id), 500u);

  ASSERT_TRUE(mediator.RenewLease(plan->session_id, 400).ok());
  mediator.AdvanceTime(600);  // past the original deadline, inside the renewed one
  EXPECT_EQ(mediator.active_session_count(), 1u);
  mediator.AdvanceTime(900);  // 400 + 500: renewed lease lapses
  EXPECT_EQ(mediator.active_session_count(), 0u);

  // The id was genuinely issued and then auto-retired: SESSION_GONE, not
  // NOT_FOUND — the renewing client must reopen rather than keep retrying.
  EXPECT_EQ(mediator.RenewLease(plan->session_id, 1000).code(), StatusCode::kSessionGone);
  auto unleased = mediator.OpenSession({.object_name = "y", .expected_size = KiB(64)});
  ASSERT_TRUE(unleased.ok());
  EXPECT_EQ(mediator.RenewLease(unleased->session_id, 0).code(), StatusCode::kInvalidArgument);
}

TEST(MediatorControlTest, DefaultLeaseAppliesWhenRequestHasNone) {
  StorageMediator::Options options;
  options.default_lease_ms = 300;
  StorageMediator mediator = MakeMediator(1, MiBPerSecond(1), MiB(100), options);
  auto plan = mediator.OpenSession({.object_name = "x", .expected_size = KiB(64)}, 0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(mediator.SessionLeaseMs(plan->session_id), 300u);
  mediator.AdvanceTime(300);
  EXPECT_EQ(mediator.active_session_count(), 0u);
}

TEST(MediatorControlTest, ReplanMapsFailedColumnOntoSpare) {
  StorageMediator mediator = MakeMediator(4);
  auto plan = mediator.OpenSession({.object_name = "movie",
                                    .expected_size = MiB(4),
                                    .required_rate = MiBPerSecond(1.6),
                                    .redundancy = true});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->agent_ids.size(), 3u);
  const uint32_t failed = plan->agent_ids[1];
  const double rate_before = mediator.ReservedRate(failed);
  ASSERT_GT(rate_before, 0.0);

  auto revised = mediator.ReplanSession(plan->session_id, failed);
  ASSERT_TRUE(revised.ok());
  // Same session, same geometry; only column 1 changed, to the one agent not
  // already in the plan.
  EXPECT_EQ(revised->session_id, plan->session_id);
  EXPECT_EQ(revised->stripe.num_agents, plan->stripe.num_agents);
  EXPECT_EQ(revised->stripe.stripe_unit, plan->stripe.stripe_unit);
  EXPECT_EQ(revised->agent_ids[0], plan->agent_ids[0]);
  EXPECT_EQ(revised->agent_ids[2], plan->agent_ids[2]);
  const uint32_t replacement = revised->agent_ids[1];
  EXPECT_NE(replacement, failed);

  // The failed agent is retired with its charge released; the replacement
  // carries the column's reservation instead.
  EXPECT_TRUE(mediator.AgentRetired(failed));
  EXPECT_DOUBLE_EQ(mediator.ReservedRate(failed), 0.0);
  EXPECT_NEAR(mediator.ReservedRate(replacement), rate_before, 1e-9);

  // A duplicate report (retransmitted kReportFailure) is a no-op success
  // returning the current plan.
  auto again = mediator.ReplanSession(plan->session_id, failed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->agent_ids, revised->agent_ids);
  EXPECT_NEAR(mediator.ReservedRate(replacement), rate_before, 1e-9);

  // Closing releases everything, including the replacement's charge.
  ASSERT_TRUE(mediator.CloseSession(plan->session_id).ok());
  for (uint32_t id = 0; id < 4; ++id) {
    EXPECT_DOUBLE_EQ(mediator.ReservedRate(id), 0.0);
  }
}

TEST(MediatorControlTest, ReplanErrors) {
  StorageMediator mediator = MakeMediator(3);
  auto plan = mediator.OpenSession({.object_name = "x",
                                    .expected_size = MiB(1),
                                    .required_rate = MiBPerSecond(1.6)});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->agent_ids.size(), 2u);

  EXPECT_EQ(mediator.ReplanSession(999, plan->agent_ids[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(mediator.ReplanSession(plan->session_id, 77).code(), StatusCode::kNotFound);
  // An agent outside the session that was never replaced: invalid report.
  uint32_t outsider = 3;
  for (uint32_t id = 0; id < 3; ++id) {
    if (id != plan->agent_ids[0] && id != plan->agent_ids[1]) {
      outsider = id;
    }
  }
  EXPECT_EQ(mediator.ReplanSession(plan->session_id, outsider).code(),
            StatusCode::kInvalidArgument);

  // First failure consumes the only spare; a second failure has no live
  // replacement left.
  ASSERT_TRUE(mediator.ReplanSession(plan->session_id, plan->agent_ids[0]).ok());
  EXPECT_EQ(mediator.ReplanSession(plan->session_id, plan->agent_ids[1]).code(),
            StatusCode::kResourceExhausted);
}

TEST(MediatorControlTest, ListSessionsReportsLeases) {
  StorageMediator mediator = MakeMediator(2);
  auto leased = mediator.OpenSession({.object_name = "leased",
                                      .expected_size = KiB(64),
                                      .lease_ms = 1000},
                                     0);
  auto forever = mediator.OpenSession({.object_name = "forever", .expected_size = KiB(64)});
  ASSERT_TRUE(leased.ok());
  ASSERT_TRUE(forever.ok());
  auto infos = mediator.ListSessions(400);
  ASSERT_EQ(infos.size(), 2u);
  for (const auto& info : infos) {
    if (info.session_id == leased->session_id) {
      EXPECT_TRUE(info.leased);
      EXPECT_EQ(info.lease_remaining_ms, 600u);
    } else {
      EXPECT_FALSE(info.leased);
      EXPECT_EQ(info.lease_remaining_ms, 0u);
    }
  }
}

// ----------------------------------------------------------- directory -----

ObjectMetadata SampleMetadata(const std::string& name) {
  ObjectMetadata m;
  m.name = name;
  m.stripe = {.num_agents = 3, .stripe_unit = KiB(64), .parity = ParityMode::kRotating};
  m.agent_ids = {2, 0, 1};
  m.size = 123456;
  return m;
}

TEST(ObjectDirectoryTest, CreateLookupRemove) {
  ObjectDirectory directory;
  ASSERT_TRUE(directory.Create(SampleMetadata("movie")).ok());
  EXPECT_TRUE(directory.Exists("movie"));
  auto found = directory.Lookup("movie");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->size, 123456u);
  EXPECT_EQ(found->agent_ids, (std::vector<uint32_t>{2, 0, 1}));
  EXPECT_EQ(directory.Create(SampleMetadata("movie")).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(directory.Remove("movie").ok());
  EXPECT_FALSE(directory.Exists("movie"));
  EXPECT_EQ(directory.Lookup("movie").code(), StatusCode::kNotFound);
}

TEST(ObjectDirectoryTest, RejectsBadMetadata) {
  ObjectDirectory directory;
  ObjectMetadata bad = SampleMetadata("bad name with spaces");
  EXPECT_EQ(directory.Create(bad).code(), StatusCode::kInvalidArgument);
  ObjectMetadata mismatched = SampleMetadata("ok");
  mismatched.agent_ids.pop_back();
  EXPECT_EQ(directory.Create(mismatched).code(), StatusCode::kInvalidArgument);
}

TEST(ObjectDirectoryTest, UpdateSize) {
  ObjectDirectory directory;
  ASSERT_TRUE(directory.Create(SampleMetadata("obj")).ok());
  ASSERT_TRUE(directory.UpdateSize("obj", 999).ok());
  EXPECT_EQ(directory.Lookup("obj")->size, 999u);
  EXPECT_EQ(directory.UpdateSize("ghost", 1).code(), StatusCode::kNotFound);
}

TEST(ObjectDirectoryTest, SaveLoadRoundTrip) {
  ObjectDirectory directory;
  ASSERT_TRUE(directory.Create(SampleMetadata("alpha")).ok());
  ObjectMetadata beta = SampleMetadata("beta");
  beta.stripe.parity = ParityMode::kNone;
  beta.agent_ids = {5, 6, 7};
  beta.size = 0;
  ASSERT_TRUE(directory.Create(beta).ok());

  const std::string path = ::testing::TempDir() + "/swift_directory_test.txt";
  ASSERT_TRUE(directory.SaveToFile(path).ok());

  ObjectDirectory loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.object_count(), 2u);
  auto alpha = loaded.Lookup("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->stripe.stripe_unit, KiB(64));
  EXPECT_EQ(alpha->stripe.parity, ParityMode::kRotating);
  EXPECT_EQ(alpha->size, 123456u);
  auto loaded_beta = loaded.Lookup("beta");
  ASSERT_TRUE(loaded_beta.ok());
  EXPECT_EQ(loaded_beta->agent_ids, (std::vector<uint32_t>{5, 6, 7}));
}

TEST(ObjectDirectoryTest, SaveReplacesTheFileAtomically) {
  // Save writes a new file and renames it over the old one instead of
  // truncating the live file in place: a hard link to the old file keeps
  // the old bytes, and no temp file is left behind.
  const std::string path = ::testing::TempDir() + "/swift_directory_atomic.txt";
  const std::string link = path + ".old";
  std::remove(link.c_str());
  ObjectDirectory before;
  ASSERT_TRUE(before.Create(SampleMetadata("old")).ok());
  ASSERT_TRUE(before.SaveToFile(path).ok());
  ASSERT_EQ(::link(path.c_str(), link.c_str()), 0);

  ObjectDirectory after;
  ASSERT_TRUE(after.Create(SampleMetadata("new")).ok());
  ASSERT_TRUE(after.SaveToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  ObjectDirectory saved;
  ASSERT_TRUE(saved.LoadFromFile(path).ok());
  EXPECT_TRUE(saved.Exists("new"));
  EXPECT_FALSE(saved.Exists("old"));
  ObjectDirectory linked;
  ASSERT_TRUE(linked.LoadFromFile(link).ok());
  EXPECT_TRUE(linked.Exists("old"));
  EXPECT_FALSE(linked.Exists("new"));
  std::remove(link.c_str());
}

TEST(ObjectDirectoryTest, FailedSaveLeavesTheFileUntouched) {
  const std::string path = ::testing::TempDir() + "/swift_directory_keep.txt";
  ObjectDirectory original;
  ASSERT_TRUE(original.Create(SampleMetadata("kept")).ok());
  ASSERT_TRUE(original.SaveToFile(path).ok());
  // A directory squatting on the temp name makes the save fail before the
  // rename: the old file must survive as it was.
  std::filesystem::create_directory(path + ".tmp");
  ObjectDirectory replacement;
  ASSERT_TRUE(replacement.Create(SampleMetadata("lost")).ok());
  EXPECT_EQ(replacement.SaveToFile(path).code(), StatusCode::kIoError);
  std::filesystem::remove(path + ".tmp");
  ObjectDirectory loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_TRUE(loaded.Exists("kept"));
  EXPECT_FALSE(loaded.Exists("lost"));
}

TEST(ObjectDirectoryTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/swift_directory_garbage.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("v1 broken 3\n", f);
  std::fclose(f);
  ObjectDirectory directory;
  EXPECT_EQ(directory.LoadFromFile(path).code(), StatusCode::kIoError);
  EXPECT_EQ(directory.LoadFromFile("/nonexistent/dir/file").code(), StatusCode::kIoError);
}

TEST(ObjectDirectoryTest, ListIsSorted) {
  ObjectDirectory directory;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(directory.Create(SampleMetadata(name)).ok());
  }
  EXPECT_EQ(directory.List(), (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

}  // namespace
}  // namespace swift
