#include "scenario/chaos_world.hpp"

#include <cstdio>
#include <utility>

namespace bsscenario {

using bsnet::Node;
using bsnet::NodeConfig;

NodeConfig ChaosVictimConfig() {
  NodeConfig config;
  config.target_outbound = ChaosWorld::kHonestPeers;
  config.ban_duration = 30 * bsim::kSecond;
  config.ping_interval = 2 * bsim::kSecond;
  config.ping_timeout = 10 * bsim::kSecond;
  config.handshake_timeout = 8 * bsim::kSecond;
  config.reconnect_backoff = true;
  config.reconnect_backoff_cap = 8 * bsim::kSecond;  // recovers within the run
  config.trace_capacity = 4096;
  return config;
}

ChaosWorld::ChaosWorld(ChaosSpec spec)
    : net(sched),
      plan(sched, spec.seed),
      spec_(std::move(spec)),
      chaos_rng_(spec_.seed * 7919 + 1),
      crafter_(spec_.victim.chain) {
  net.SetFaultPlan(&plan);  // before any connection: reliable TCP from t=0
  for (int i = 0; i < kHonestPeers; ++i) {
    NodeConfig pc;
    pc.target_outbound = 0;
    pc.rng_seed = 1000 + static_cast<std::uint64_t>(i);
    honest_.push_back(std::make_unique<Node>(sched, net, kHonestBase + i, pc));
    honest_.back()->Start();
  }
  attacker = std::make_unique<bsattack::AttackerNode>(sched, net, kAttackerIp,
                                                      spec_.victim.chain.magic);
  SpawnVictim(/*load_banlist=*/false);
}

ChaosWorld::~ChaosWorld() {
  if (!spec_.banlist_path.empty()) std::remove(spec_.banlist_path.c_str());
}

void ChaosWorld::Boot() { sched.RunUntil(5 * bsim::kSecond); }

void ChaosWorld::RunWeatherAndHeal(double chaos_seconds, double flap_window_seconds) {
  bsim::FaultSpec weather;
  weather.loss = 0.08 * chaos_rng_.NextDouble();
  weather.duplicate = 0.06 * chaos_rng_.NextDouble();
  weather.reorder = 0.10 * chaos_rng_.NextDouble();
  weather.corrupt = 0.05 * chaos_rng_.NextDouble();
  plan.SetDefaultFaults(weather);
  for (int flap = 0; flap < 2; ++flap) {
    const bsim::SimTime at =
        5 * bsim::kSecond +
        static_cast<bsim::SimTime>(chaos_rng_.NextDouble() * flap_window_seconds) *
            bsim::kSecond;
    const bsim::SimTime down =
        (1 + static_cast<bsim::SimTime>(chaos_rng_.NextDouble() * 3)) * bsim::kSecond;
    plan.ScheduleLinkFlap(kVictimIp, kHonestBase + chaos_rng_.Below(kHonestPeers), at,
                          down);
  }
  const std::size_t crash_index = chaos_rng_.Below(kHonestPeers);
  plan.on_host_crash = [this, crash_index](std::uint32_t) { CrashHonest(crash_index); };
  plan.on_host_restart = [this, crash_index](std::uint32_t) {
    RestartHonest(crash_index);
  };
  plan.ScheduleCrash(kHonestBase + static_cast<std::uint32_t>(crash_index),
                     20 * bsim::kSecond, 8 * bsim::kSecond);

  StartHonestTraffic();
  StartAttack();
  const bsim::SimTime chaos_end = 5 * bsim::kSecond + bsim::FromSeconds(chaos_seconds);
  sched.RunUntil(chaos_end);

  StopAttack();
  plan.SetDefaultFaults(bsim::FaultSpec{});
  sched.RunUntil(chaos_end + victim->Config().ban_duration + 15 * bsim::kSecond);
}

void ChaosWorld::SpawnVictim(bool load_banlist) {
  victim = std::make_unique<Node>(sched, net, kVictimIp, spec_.victim);
  if (load_banlist && !spec_.banlist_path.empty()) {
    victim->Bans().LoadFromFile(spec_.banlist_path, sched.Now());
  }
  for (const auto& peer : honest_) victim->AddKnownAddress({peer->Ip(), 8333});
  AttachInvariantHooks();
  victim->Start();
}

void ChaosWorld::CrashVictim() {
  if (!spec_.banlist_path.empty()) victim->Bans().SaveToFile(spec_.banlist_path);
  victim->Stop();
  graveyard_.push_back(std::move(victim));
}

void ChaosWorld::CrashHonest(std::size_t index) {
  honest_[index]->Stop();
  graveyard_.push_back(std::move(honest_[index]));
}

void ChaosWorld::RestartHonest(std::size_t index) {
  NodeConfig pc;
  pc.target_outbound = 0;
  pc.rng_seed = 1000 + static_cast<std::uint64_t>(index);
  honest_[index] = std::make_unique<Node>(
      sched, net, kHonestBase + static_cast<std::uint32_t>(index), pc);
  honest_[index]->Start();
}

void ChaosWorld::StartHonestTraffic() {
  honest_running_ = true;
  HonestTick();
}

void ChaosWorld::StartAttack() {
  attack_running_ = true;
  AttackTick();
}

bool ChaosWorld::OnlyAttackerScored() const {
  for (const std::uint32_t ip : scored_ips) {
    if (ip != kAttackerIp) return false;
  }
  return true;
}

void ChaosWorld::AttachInvariantHooks() {
  victim->on_misbehavior = [this](const bsnet::Peer& peer, bsnet::Misbehavior,
                                  const bsnet::MisbehaviorOutcome& outcome) {
    if (!outcome.rule_applied) return;
    scored_ips.insert(peer.remote.ip);
    if (outcome.total_score >= victim->Config().ban_threshold && !outcome.should_ban) {
      ++threshold_crossings_without_ban;
    }
  };
  victim->on_peer_banned = [this](const bsnet::Peer& peer) {
    ++ban_events[peer.remote];
    last_banned = peer.remote;
  };
}

void ChaosWorld::HonestTick() {
  if (!honest_running_) return;
  for (const auto& peer : honest_) {
    if (peer != nullptr) peer->SendToRemoteIp(kVictimIp, bsproto::PingMsg{++honest_nonce_});
  }
  sched.After(500 * bsim::kMillisecond, [this]() { HonestTick(); });
}

void ChaosWorld::AttackTick() {
  if (!attack_running_) return;
  bsattack::AttackSession* ready = nullptr;
  bool any_live = false;
  for (bsattack::AttackSession* session : attacker->LiveSessions()) {
    any_live = true;
    if (session->SessionReady()) {
      ready = session;
      break;
    }
  }
  if (ready != nullptr) {
    attacker->Send(*ready, crafter_.SegwitInvalidTx());
    ++attack_deliveries;
  } else if (!any_live) {
    // Previous identifier banned (or handshake lost to faults): come back as
    // a fresh Sybil identifier. Stuck half-open sessions clear themselves via
    // the SYN timeout.
    attacker->OpenSession({kVictimIp, 8333});
  }
  sched.After(2 * bsim::kSecond, [this]() { AttackTick(); });
}

}  // namespace bsscenario
