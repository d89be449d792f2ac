// The Hijacking-Bitcoin routing-detour world (arXiv:1605.07524): the
// victim's /16 and four same-side buddy /16s keep every TCP session alive
// while all return traffic from the mining side (one miner, three relays)
// crawls through a 45 s detour from t = 10 s; the victim's own /16 is healed
// at half time. A listen-only witness with healthy routes answers
// tip-probes with the true height. bench_partition, `banscore-lab
// partition` and the ChaosPartition test all run this world; the spec
// carries every value in which they differ.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/simfs.hpp"

namespace bsscenario {

struct PartitionSpec {
  /// Hardened = partition resilience (damping on) + anchors + stale-tip
  /// recovery on the victim, partition resilience on the buddies.
  bool hardened = true;
  int run_seconds = 90;  // the victim's /16 heals at run_seconds / 2
  std::uint64_t victim_seed = 42;
  /// Buddy i seeds with base + i, the miner with base + 1000, relay i with
  /// base + 1100 + i, the witness with base + 2000.
  std::uint64_t node_seed_base = 1000;
  std::uint64_t fault_seed = 4242;
  /// The victim runs on the durable store, crashes at t = 30 s and is
  /// reborn 4 s later. `restart_reseeds` hands the reborn node its buddies
  /// and the wide net's addresses again; otherwise it knows only what its
  /// store replays.
  bool crash_restart = false;
  bool restart_reseeds = true;
  double loss = 0.0;  // > 0: this share of segments dropped from t = 4 s
};

struct PartitionOutcome {
  std::vector<int> gap_series;  // miner tip - victim tip, one sample per second
  int final_gap = 0;            // last sample
  double reconverge_seconds = -1.0;  // from the heal; -1 = never
  /// Honest-ban census over the whole world: there is no attacker here, so
  /// every ban and every tracker point is friendly fire.
  std::size_t honest_bans = 0;
  int max_honest_score = 0;
  std::uint64_t deferred_penalties = 0;  // victim + buddies
};

class PartitionWorld {
 public:
  static constexpr int kBuddies = 4;
  static constexpr int kTargetOutbound = 4;
  static constexpr int kMineEverySeconds = 3;
  static constexpr int kPartitionAtSeconds = 10;
  static constexpr int kDetourSeconds = 45;
  static constexpr int kCrashAtSeconds = 30;
  static constexpr int kRestartAfterSeconds = 4;
  static constexpr const char* kStoreDir = "victim-store";  // on Fs()

  explicit PartitionWorld(PartitionSpec spec);
  ~PartitionWorld();
  PartitionWorld(const PartitionWorld&) = delete;
  PartitionWorld& operator=(const PartitionWorld&) = delete;

  /// Run to spec.run_seconds, sampling the tip gap every second.
  PartitionOutcome Run();

  /// Null before the victim boots at t = 1 s.
  bsnet::Node* Victim() { return victim_.get(); }
  bsnet::Node& Miner() { return *miner_; }
  bsim::FaultPlan& Plan() { return plan_; }
  bsim::SimFs& Fs() { return fs_; }

 private:
  bsnet::NodeConfig VictimConfig();
  bsnet::Node* AddNode(std::uint32_t ip, const bsnet::NodeConfig& config,
                       const std::vector<std::uint32_t>& known, bsim::SimTime start_at);
  std::unique_ptr<bsnet::Node> SpawnVictim(bool knows_wide_net);
  void LearnWideNet(bsnet::Node& node);
  void MineTick();

  PartitionSpec spec_;
  bsim::Scheduler sched_;
  bsim::Network net_;
  bsim::FaultPlan plan_;
  bsim::SimFs fs_;
  bsnet::NodeConfig victim_config_;
  std::vector<std::unique_ptr<bsnet::Node>> world_;
  bsnet::Node* miner_ = nullptr;
  std::vector<bsnet::Node*> buddies_;
  std::vector<std::unique_ptr<bsnet::Node>> graveyard_;
  std::unique_ptr<bsnet::Node> victim_;
};

}  // namespace bsscenario
