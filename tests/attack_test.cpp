// Tests for attack profiles and the adaptive DOPE attacker (Fig. 12).
#include <gtest/gtest.h>

#include <memory>

#include "attack/dope_attacker.hpp"
#include "attack/profiles.hpp"
#include "cluster/cluster.hpp"
#include "schemes/baselines.hpp"

namespace dope::attack {
namespace {

using workload::Catalog;

// ---------------------------------------------------------------- profiles

TEST(Profiles, EveryKindHasNameAndMixture) {
  for (const auto kind : kAllAttackKinds) {
    EXPECT_FALSE(attack_name(kind).empty());
    EXPECT_FALSE(attack_mixture(kind).empty());
  }
}

TEST(Profiles, VolumeAttacksUseVolumeTypes) {
  Rng rng(1);
  EXPECT_EQ(attack_mixture(AttackKind::kSynFlood).sample(rng),
            Catalog::kSynPacket);
  EXPECT_EQ(attack_mixture(AttackKind::kUdpFlood).sample(rng),
            Catalog::kUdpPacket);
}

TEST(Profiles, DopeVariantsTargetSingleHeavyUrl) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(attack_mixture(AttackKind::kDopeCollaFilt).sample(rng),
              Catalog::kCollaFilt);
    EXPECT_EQ(attack_mixture(AttackKind::kDopeKMeans).sample(rng),
              Catalog::kKMeans);
  }
}

TEST(Profiles, MakeAttackConfigStampsGroundTruth) {
  const auto config =
      make_attack_config(AttackKind::kHttpFlood, 500.0, 32, 9'000, 5);
  EXPECT_TRUE(config.ground_truth_attack);
  EXPECT_EQ(config.num_sources, 32u);
  EXPECT_EQ(config.source_base, 9'000u);
  EXPECT_DOUBLE_EQ(config.rate_rps, 500.0);
  EXPECT_THROW(make_attack_config(AttackKind::kHttpFlood, -1.0, 1, 0, 0),
               std::invalid_argument);
}

// ----------------------------------------------------------- dope attacker

struct AttackRig {
  sim::Engine engine;
  workload::Catalog catalog = Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<DopeAttacker> attacker;

  explicit AttackRig(power::BudgetLevel level = power::BudgetLevel::kLow,
                     bool with_firewall = false,
                     DopeAttackerConfig config = default_config()) {
    cluster::ClusterConfig cc;
    cc.num_servers = 8;
    cc.budget_level = level;
    if (with_firewall) {
      net::FirewallConfig fw;
      fw.threshold_rps = 150.0;
      fw.check_interval = 5 * kSecond;
      cc.firewall = fw;
    }
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
    cluster->install_scheme(std::make_unique<schemes::CappingScheme>());
    attacker = std::make_unique<DopeAttacker>(engine, catalog, config,
                                              cluster->edge_sink());
    cluster->add_record_listener(attacker->feedback_sink());
  }

  static DopeAttackerConfig default_config() {
    DopeAttackerConfig config;
    config.mixture = workload::Mixture::single(Catalog::kKMeans);
    return config;
  }
};

TEST(DopeAttacker, StartsInProbingPhase) {
  AttackRig rig;
  EXPECT_EQ(rig.attacker->phase(), AttackPhase::kProbing);
  EXPECT_DOUBLE_EQ(rig.attacker->current_rate(), 10.0);
}

TEST(DopeAttacker, RampsAfterBaselineEstablished) {
  AttackRig rig;
  rig.engine.run_until(30 * kSecond);
  EXPECT_GT(rig.attacker->current_rate(), 10.0);
  EXPECT_NE(rig.attacker->phase(), AttackPhase::kProbing);
}

TEST(DopeAttacker, AchievesPowerEmergencyOnUnprotectedCluster) {
  // Against a Low-PB cluster with capping and no firewall the attacker
  // should find a rate that degrades latency and hold there.
  AttackRig rig;
  rig.engine.run_until(5 * kMinute);
  EXPECT_TRUE(rig.attacker->emergency_achieved());
  // The victim's capping confirms the emergency from the inside.
  bool any_throttled = false;
  for (auto* n : rig.cluster->servers()) {
    if (n->level() < rig.cluster->ladder().max_level()) any_throttled = true;
  }
  EXPECT_TRUE(any_throttled);
}

TEST(DopeAttacker, StaysUnderPerSourceFirewallThreshold) {
  AttackRig rig(power::BudgetLevel::kLow, /*with_firewall=*/true);
  rig.engine.run_until(5 * kMinute);
  // 64 agents: even 4000 rps aggregate is 62 rps/agent — under the 150
  // threshold, so the firewall must never have banned anyone.
  EXPECT_EQ(rig.cluster->data().firewall()->total_bans(), 0u);
  EXPECT_TRUE(rig.attacker->emergency_achieved());
}

TEST(DopeAttacker, FewAgentsGetDetectedAndBackOff) {
  // With only 2 agents, the per-agent rate crosses the threshold during
  // the ramp; the attacker must observe blocking and back off.
  DopeAttackerConfig config = AttackRig::default_config();
  config.num_agents = 2;
  AttackRig rig(power::BudgetLevel::kLow, /*with_firewall=*/true, config);
  rig.engine.run_until(10 * kMinute);
  EXPECT_GT(rig.cluster->data().firewall()->total_bans(), 0u);
  bool backed_off = false;
  for (const auto& d : rig.attacker->decisions()) {
    if (d.phase == AttackPhase::kBackoff) backed_off = true;
  }
  EXPECT_TRUE(backed_off);
}

TEST(DopeAttacker, DecisionLogIsTimeOrderedAndBounded) {
  AttackRig rig;
  rig.engine.run_until(2 * kMinute);
  const auto& decisions = rig.attacker->decisions();
  ASSERT_FALSE(decisions.empty());
  Time prev = -1;
  for (const auto& d : decisions) {
    EXPECT_GT(d.at, prev);
    prev = d.at;
    EXPECT_GE(d.rate_rps, 0.0);
    EXPECT_LE(d.rate_rps, 4'000.0);
  }
}

TEST(DopeAttacker, StopHaltsTraffic) {
  AttackRig rig;
  rig.engine.run_until(30 * kSecond);
  rig.attacker->stop();
  const auto sent = rig.attacker->generator().generated();
  rig.engine.run_until(60 * kSecond);
  EXPECT_EQ(rig.attacker->generator().generated(), sent);
}

TEST(DopeAttacker, ValidatesConfig) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  DopeAttackerConfig config;  // empty mixture
  EXPECT_THROW(
      DopeAttacker(engine, catalog, config, [](workload::Request&&) {}),
      std::invalid_argument);
}

TEST(PhaseName, AllPhasesNamed) {
  EXPECT_EQ(phase_name(AttackPhase::kProbing), "probing");
  EXPECT_EQ(phase_name(AttackPhase::kRamping), "ramping");
  EXPECT_EQ(phase_name(AttackPhase::kHolding), "holding");
  EXPECT_EQ(phase_name(AttackPhase::kBackoff), "backoff");
}

}  // namespace
}  // namespace dope::attack
