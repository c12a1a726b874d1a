// Facade (SecCloudSystem) and CBS-baseline tests.
#include <gtest/gtest.h>

#include "baselines/cbs.h"
#include "seccloud/system.h"

namespace seccloud {
namespace {

using core::DataBlock;
using core::FuncKind;
using num::Xoshiro256;
using pairing::tiny_group;

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : sys(tiny_group(), 33), user(sys.register_user("alice")) {
    std::vector<DataBlock> blocks;
    for (std::uint64_t i = 0; i < 24; ++i) blocks.push_back(DataBlock::from_value(i, 3 * i));
    upload = user.sign_blocks(std::move(blocks));
    for (std::uint64_t i = 0; i < 6; ++i) {
      core::ComputeRequest req;
      req.kind = static_cast<FuncKind>(i % 6);
      for (std::uint64_t j = 0; j < 4; ++j) req.positions.push_back(4 * i + j);
      task.requests.push_back(std::move(req));
    }
  }
  core::SecCloudSystem sys;
  core::SystemUser user;
  std::vector<core::SignedBlock> upload;
  core::ComputationTask task;
};

TEST_F(SystemTest, FullFlowThroughFacade) {
  ASSERT_TRUE(sys.cloud_server().store(user.key().q_id, upload));
  EXPECT_EQ(sys.cloud_server().stored(), 24u);

  const auto executed = sys.cloud_server().compute(user.key().q_id, task);
  const auto report = sys.agency().audit(user, sys.cloud_server(), executed.task_id, task,
                                         executed.commitment, /*samples=*/4, /*epoch=*/1);
  EXPECT_TRUE(report.accepted);
}

TEST_F(SystemTest, CounterResetCallerWindowSpansStoreAndAudit) {
  // Regression: store() and audit() used to call reset_counters() on the
  // shared group, so a caller's counters() delta across them came out wrong
  // (or underflowed). The library now reports lifetime-counter deltas.
  const pairing::PairingGroup& g = tiny_group();
  const pairing::OpCounters window_start = g.counters();
  const pairing::OpCounters lifetime_start = g.lifetime_counters();

  ASSERT_TRUE(sys.cloud_server().store(user.key().q_id, upload));
  const auto executed = sys.cloud_server().compute(user.key().q_id, task);
  const pairing::OpCounters before_audit = g.lifetime_counters();
  const auto report = sys.agency().audit(user, sys.cloud_server(), executed.task_id, task,
                                         executed.commitment, /*samples=*/4, /*epoch=*/1);
  ASSERT_TRUE(report.accepted);

  const pairing::OpCounters lifetime_delta = g.lifetime_counters() - lifetime_start;
  EXPECT_EQ(g.counters() - window_start, lifetime_delta);
  EXPECT_GT(report.ops.pairings, 0u);
  EXPECT_LE(report.ops.pairings, (g.lifetime_counters() - before_audit).pairings);
}

TEST_F(SystemTest, ServerRejectsTamperedUpload) {
  auto tampered = upload;
  tampered[5].block.payload[0] ^= 1;
  EXPECT_FALSE(sys.cloud_server().store(user.key().q_id, tampered));
  EXPECT_EQ(sys.cloud_server().stored(), 0u);
}

TEST_F(SystemTest, ServerRejectsOtherUsersBlocksUnderWrongIdentity) {
  auto mallory = sys.register_user("mallory");
  // Mallory's blocks presented as Alice's: batch check fails.
  std::vector<DataBlock> blocks;
  blocks.push_back(DataBlock::from_value(0, 1));
  auto mallory_upload = mallory.sign_blocks(std::move(blocks));
  EXPECT_FALSE(sys.cloud_server().store(user.key().q_id, mallory_upload));
}

TEST_F(SystemTest, RespondUnknownTaskThrows) {
  core::AuditChallenge challenge;
  EXPECT_THROW(sys.cloud_server().respond(user.key().q_id, 999, challenge, 0),
               std::out_of_range);
}

TEST_F(SystemTest, RecommendedSampleSizeMatchesFigure4) {
  const analysis::CheatModel conservative{0.5, 0.5, 2.0, 0.0};
  EXPECT_EQ(sys.agency().recommended_sample_size(conservative), 33u);
  const analysis::CheatModel unguessable{0.5, 0.5, analysis::infinite_range(), 0.0};
  EXPECT_EQ(sys.agency().recommended_sample_size(unguessable), 15u);
}

TEST_F(SystemTest, MultipleUsersCoexist) {
  auto bob = sys.register_user("bob");
  std::vector<DataBlock> bob_blocks;
  for (std::uint64_t i = 100; i < 104; ++i) bob_blocks.push_back(DataBlock::from_value(i, i));
  const auto bob_upload = bob.sign_blocks(bob_blocks);
  ASSERT_TRUE(sys.cloud_server().store(user.key().q_id, upload));
  ASSERT_TRUE(sys.cloud_server().store(bob.key().q_id, bob_upload));
  EXPECT_EQ(sys.cloud_server().stored(), 28u);
}

// --- CBS baseline -------------------------------------------------------

std::uint64_t test_function(std::uint64_t x) { return x * x + 7 * x + 13; }

TEST(Cbs, HonestParticipantPassesAudit) {
  const auto participant = baselines::CbsParticipant::compute(test_function, 100);
  Xoshiro256 rng{5};
  const auto report =
      baselines::CbsSupervisor::audit(test_function, participant.root(), participant, 20, rng);
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.samples, 20u);
}

TEST(Cbs, LazyParticipantCaughtWithPaperSampleSize) {
  Xoshiro256 cheat_rng{6};
  // 50% honest, unguessable range (random u64 guesses): per Fig. 4 R→∞,
  // t = 15 drives survival below 1e-4.
  const auto participant = baselines::CbsParticipant::compute_cheating(
      test_function, 400, 0.5, cheat_rng);
  Xoshiro256 rng{7};
  int undetected = 0;
  for (int round = 0; round < 40; ++round) {
    const auto report = baselines::CbsSupervisor::audit(test_function, participant.root(),
                                                        participant, 15, rng);
    if (report.accepted) ++undetected;
  }
  EXPECT_EQ(undetected, 0);
}

TEST(Cbs, CommitmentBindsResults) {
  const auto honest = baselines::CbsParticipant::compute(test_function, 64);
  // Open a leaf, then audit against a DIFFERENT root: root checks must fail.
  const auto other = baselines::CbsParticipant::compute(
      [](std::uint64_t x) { return x + 1; }, 64);
  Xoshiro256 rng{8};
  const auto report =
      baselines::CbsSupervisor::audit(test_function, other.root(), honest, 10, rng);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.root_failures, 10u);
}

TEST(Cbs, PublicVerifiabilityIsThePrivacyGap) {
  // CBS proofs verify against the bare root — no secret key involved.
  // (This is precisely what lets a cheating grid participant resell results,
  // and what SecCloud's designated-verifier transform removes.)
  const auto participant = baselines::CbsParticipant::compute(test_function, 32);
  const auto proof = participant.open(9);
  const merkle::Digest leaf = [&] {
    std::vector<std::uint8_t> bytes(16);
    for (int i = 0; i < 8; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(proof.claimed_result >> (i * 8));
      bytes[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(proof.input >> (i * 8));
    }
    return merkle::MerkleTree::leaf_hash(bytes);
  }();
  // A third party with no keys at all can authenticate the sold data:
  EXPECT_TRUE(merkle::MerkleTree::verify(participant.root(), leaf, proof.path));
}

TEST(Cbs, EmptyDomainThrows) {
  EXPECT_THROW(baselines::CbsParticipant::compute(test_function, 0), std::invalid_argument);
}

}  // namespace
}  // namespace seccloud
