#include "scenario/partition_world.hpp"

#include <algorithm>
#include <utility>

namespace bsscenario {

using bsim::FaultPlan;
using bsnet::Node;
using bsnet::NodeConfig;

namespace {

constexpr std::uint32_t kVictimIp = 0x0a100001;   // 10.16.0.1
constexpr std::uint32_t kWitnessIp = 0x0a280001;  // 10.40.0.1: neither side
constexpr std::uint32_t kMinerIp = 0x0a200001;    // 10.32.0.1
constexpr int kRelays = 3;                        // 10.33-10.35.0.1

// Buddies sit in 10.17-10.20.0.1.
constexpr std::uint32_t BuddyIp(int i) {
  return 0x0a000001 + (static_cast<std::uint32_t>(17 + i) << 16);
}
constexpr std::uint32_t RelayIp(int i) {
  return 0x0a000001 + (static_cast<std::uint32_t>(33 + i) << 16);
}

}  // namespace

PartitionWorld::PartitionWorld(PartitionSpec spec)
    : spec_(std::move(spec)),
      net_(sched_),
      plan_(sched_, spec_.fault_seed),
      victim_config_(VictimConfig()) {
  net_.SetFaultPlan(&plan_);
  if (spec_.loss > 0.0) {
    // Clean boot, then weather.
    bsim::FaultSpec lossy;
    lossy.loss = spec_.loss;
    sched_.After(4 * bsim::kSecond, [this, lossy]() { plan_.SetDefaultFaults(lossy); });
  }
  const std::uint64_t base = spec_.node_seed_base;

  // Mining side: one miner + a small relay mesh, each in its own /16.
  NodeConfig miner_cfg;
  miner_cfg.chain = victim_config_.chain;
  miner_cfg.target_outbound = kRelays;
  miner_cfg.rng_seed = base + 1000;
  miner_ = AddNode(kMinerIp, miner_cfg, {RelayIp(0), RelayIp(1), RelayIp(2)}, 0);
  for (int i = 0; i < kRelays; ++i) {
    NodeConfig rc;
    rc.chain = victim_config_.chain;
    rc.target_outbound = 2;
    rc.rng_seed = base + 1100 + static_cast<std::uint64_t>(i);
    AddNode(RelayIp(i), rc, {kMinerIp, RelayIp((i + 1) % kRelays)},
            50 * bsim::kMillisecond * (i + 1));
  }

  // Victim-side buddies: each bridges one detoured relay link into the
  // victim's side of the cut. Hardened worlds switch their monitor on too:
  // the damping A/B at the buddies is part of what the defenses compare.
  for (int i = 0; i < kBuddies; ++i) {
    NodeConfig bc;
    bc.chain = victim_config_.chain;
    bc.target_outbound = 2;
    bc.rng_seed = base + static_cast<std::uint64_t>(i);
    bc.enable_partition_resilience = spec_.hardened;
    buddies_.push_back(AddNode(BuddyIp(i), bc, {RelayIp(i % kRelays), kVictimIp},
                               300 * bsim::kMillisecond + i * 50 * bsim::kMillisecond));
  }

  // The witness: a listen-only node in a /16 the detour does not touch, with
  // healthy routes to both sides. relay=false means it never announces a
  // block to anyone: the only thing it leaks is tip-probe answers, which is
  // exactly the gossip channel the partition monitor feeds on.
  NodeConfig wc;
  wc.chain = victim_config_.chain;
  wc.target_outbound = 2;
  wc.rng_seed = base + 2000;
  wc.relay = false;
  wc.enable_partition_resilience = true;
  AddNode(kWitnessIp, wc, {kVictimIp, kMinerIp}, 600 * bsim::kMillisecond);

  // The victim boots knowing only its own side. The wider network's
  // addresses arrive shortly after boot: the stock node's slots are already
  // full by then, so only the partition machinery ever uses them.
  sched_.After(bsim::kSecond, [this]() { victim_ = SpawnVictim(false); });
  sched_.After(5 * bsim::kSecond, [this]() {
    if (victim_ != nullptr) LearnWideNet(*victim_);
  });
  sched_.After(2 * bsim::kSecond, [this]() { MineTick(); });

  // The routing cut: every segment from the mining side back to the victim's
  // side takes the detour; the forward path is untouched (the pure one-way
  // hijack). At half time only the victim's own /16 is repaired: the staged,
  // prefix-by-prefix resolution of a real incident.
  std::vector<std::uint32_t> side_a = {FaultPlan::GroupOf(kVictimIp)};
  for (int i = 0; i < kBuddies; ++i) side_a.push_back(FaultPlan::GroupOf(BuddyIp(i)));
  std::vector<std::uint32_t> side_b = {FaultPlan::GroupOf(kMinerIp)};
  for (int i = 0; i < kRelays; ++i) side_b.push_back(FaultPlan::GroupOf(RelayIp(i)));
  plan_.ScheduleDelayPartition(side_a, side_b, /*ab=*/0,
                               /*ba=*/kDetourSeconds * bsim::kSecond,
                               kPartitionAtSeconds * bsim::kSecond);
  plan_.SchedulePartialHeal({FaultPlan::GroupOf(kVictimIp)}, side_b,
                            (spec_.run_seconds / 2) * bsim::kSecond);

  if (spec_.crash_restart) {
    plan_.on_host_crash = [this](std::uint32_t ip) {
      if (ip != kVictimIp || victim_ == nullptr) return;
      victim_->Stop();
      graveyard_.push_back(std::move(victim_));
    };
    plan_.on_host_restart = [this](std::uint32_t ip) {
      if (ip != kVictimIp) return;
      if (spec_.restart_reseeds) {
        victim_ = SpawnVictim(true);
      } else {
        victim_ = std::make_unique<Node>(sched_, net_, kVictimIp, victim_config_);
        victim_->Start();
      }
    };
    plan_.ScheduleCrash(kVictimIp, kCrashAtSeconds * bsim::kSecond,
                        kRestartAfterSeconds * bsim::kSecond);
  }
}

PartitionWorld::~PartitionWorld() = default;

NodeConfig PartitionWorld::VictimConfig() {
  NodeConfig config;
  config.rng_seed = spec_.victim_seed;
  config.target_outbound = kTargetOutbound;
  if (spec_.hardened) {
    config.enable_partition_resilience = true;  // damping included
    config.enable_anchors = true;
    config.enable_stale_tip_recovery = true;
    config.stale_tip_timeout = 15 * bsim::kSecond;
  }
  if (spec_.crash_restart) {
    config.enable_durable_store = true;
    config.store_dir = kStoreDir;
    config.store_fs = &fs_;
  }
  return config;
}

Node* PartitionWorld::AddNode(std::uint32_t ip, const NodeConfig& config,
                              const std::vector<std::uint32_t>& known,
                              bsim::SimTime start_at) {
  auto node = std::make_unique<Node>(sched_, net_, ip, config);
  for (const std::uint32_t k : known) node->AddKnownAddress({k, 8333});
  Node* raw = node.get();
  sched_.After(start_at, [raw]() { raw->Start(); });
  world_.push_back(std::move(node));
  return raw;
}

std::unique_ptr<Node> PartitionWorld::SpawnVictim(bool knows_wide_net) {
  auto node = std::make_unique<Node>(sched_, net_, kVictimIp, victim_config_);
  for (int i = 0; i < kBuddies; ++i) node->AddKnownAddress({BuddyIp(i), 8333});
  if (knows_wide_net) LearnWideNet(*node);
  node->Start();
  return node;
}

void PartitionWorld::LearnWideNet(Node& node) {
  node.AddKnownAddress({kMinerIp, 8333});
  for (int i = 0; i < kRelays; ++i) node.AddKnownAddress({RelayIp(i), 8333});
}

void PartitionWorld::MineTick() {
  miner_->MineAndRelay();
  sched_.After(kMineEverySeconds * bsim::kSecond, [this]() { MineTick(); });
}

PartitionOutcome PartitionWorld::Run() {
  PartitionOutcome out;
  out.gap_series.reserve(static_cast<std::size_t>(spec_.run_seconds));
  for (int s = 1; s <= spec_.run_seconds; ++s) {
    sched_.RunUntil(s * bsim::kSecond);
    const int victim_h = victim_ == nullptr ? 0 : victim_->Chain().TipHeight();
    out.gap_series.push_back(miner_->Chain().TipHeight() - victim_h);
  }
  out.final_gap = out.gap_series.back();

  // Reconvergence: seconds from the heal until the gap drops to <= 1 block
  // and stays there for the rest of the run.
  const int heal_s = spec_.run_seconds / 2;
  int last_bad = -1;
  for (int i = heal_s; i < static_cast<int>(out.gap_series.size()); ++i) {
    if (out.gap_series[static_cast<std::size_t>(i)] > 1) last_bad = i;
  }
  if (last_bad == -1) {
    out.reconverge_seconds = 0.0;
  } else if (last_bad + 1 != static_cast<int>(out.gap_series.size())) {
    out.reconverge_seconds = static_cast<double>(last_bad + 2 - heal_s);
  }

  const auto census = [&out](Node& node) {
    out.honest_bans += node.Bans().Size();
    for (const bsnet::Peer* peer : node.Peers()) {
      out.max_honest_score = std::max(out.max_honest_score, node.Tracker().Score(peer->id));
    }
  };
  for (const auto& node : world_) census(*node);
  if (victim_ != nullptr) {
    census(*victim_);
    out.deferred_penalties += victim_->DeferredPenalties();
  }
  for (Node* buddy : buddies_) out.deferred_penalties += buddy->DeferredPenalties();
  return out;
}

}  // namespace bsscenario
