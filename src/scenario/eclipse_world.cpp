#include "scenario/eclipse_world.hpp"

#include <algorithm>
#include <utility>

namespace bsscenario {

using bsnet::Node;
using bsnet::NodeConfig;

namespace {

constexpr std::uint32_t kVictimIp = 0x0a000001;
// The attacker and its infrastructure share the 192.168/16 netgroup.
constexpr std::uint32_t kAttackerIp = 0xc0a80001;

// ith honest peer: its own /16 netgroup (10.(16+i).0.1).
constexpr std::uint32_t HonestIp(int i) {
  return 0x0a000001 + (static_cast<std::uint32_t>(16 + i) << 16);
}
constexpr std::uint32_t InfraIp(int i) {
  return 0xc0a80002 + static_cast<std::uint32_t>(i);
}

constexpr bsim::SimTime kCrashAt = 9 * bsim::kSecond;
constexpr bsim::SimTime kRestartAt = 11 * bsim::kSecond;

}  // namespace

EclipseWorld::EclipseWorld(EclipseSpec spec)
    : spec_(std::move(spec)),
      net_(sched_),
      plan_(sched_, spec_.victim_seed),
      victim_config_(VictimConfig()),
      crafter_(victim_config_.chain),
      attacker_ips_{kAttackerIp} {
  if (spec_.loss > 0.0) {
    // Clean boot, then weather: the mesh links and the first blocks must land
    // before loss starts, because a ring link that misses a block at mine
    // time has no catch-up sync to recover through.
    net_.SetFaultPlan(&plan_);
    bsim::FaultSpec lossy;
    lossy.loss = spec_.loss;
    sched_.After(4 * bsim::kSecond, [this, lossy]() { plan_.SetDefaultFaults(lossy); });
  }
  const bsim::SimTime dial_in = spec_.dial_in_seconds * bsim::kSecond;

  // Honest world: nodes in distinct /16s, ring mesh (each dials its two ring
  // successors), one designated miner on a 3 s cadence. The third outbound
  // slot stays empty until the victim's address arrives at dial_in: the
  // honest network "learning about" the victim, which is what gives the
  // eviction logic honest newcomers to admit.
  for (int i = 0; i < kHonestPeers; ++i) {
    NodeConfig hc;
    hc.chain = victim_config_.chain;
    hc.target_outbound = 3;
    hc.rng_seed = spec_.node_seed_base + static_cast<std::uint64_t>(i);
    auto node = std::make_unique<Node>(sched_, net_, HonestIp(i), hc);
    node->AddKnownAddress({HonestIp((i + 1) % kHonestPeers), hc.listen_port});
    node->AddKnownAddress({HonestIp((i + 2) % kHonestPeers), hc.listen_port});
    honest_.push_back(std::move(node));
  }
  for (int i = 0; i < kHonestPeers; ++i) {
    Node* node = honest_[static_cast<std::size_t>(i)].get();
    sched_.After(i * 50 * bsim::kMillisecond, [node]() { node->Start(); });
    sched_.After(dial_in + i * 1500 * bsim::kMillisecond,
                 [node]() { node->AddKnownAddress({kVictimIp, 8333}); });
    // Once connected, each honest peer relays real txs into the victim:
    // protocol-legal usefulness that the eviction protections and the
    // idle-session reaper both key on.
    sched_.After(dial_in + i * 1500 * bsim::kMillisecond + 200 * bsim::kMillisecond,
                 [this, node]() { RelayTxTick(node); });
  }
  sched_.After(2 * bsim::kSecond, [this]() { MineTick(); });

  // Attacker infrastructure: full protocol speakers on attacker IPs, so the
  // victim's poisoned refills look perfectly healthy.
  for (int i = 0; i < spec_.infra_nodes; ++i) {
    NodeConfig ic;
    ic.chain = victim_config_.chain;
    ic.target_outbound = 0;
    ic.rng_seed = spec_.node_seed_base + 1000 + static_cast<std::uint64_t>(i);
    auto node = std::make_unique<Node>(sched_, net_, InfraIp(i), ic);
    node->Start();
    infra_ptrs_.push_back(node.get());
    attacker_ips_.insert(node->Ip());
    infra_.push_back(std::move(node));
  }

  // The victim, seeded with every honest address (the config-file peers of
  // the paper's testbed).
  victim_ = SpawnVictim(/*seed_addresses=*/true);

  // The sustained eclipse: Sybil inbound occupation with re-occupation,
  // repeated ADDR poisoning, and one Defamation eviction per tick.
  attacker_ = std::make_unique<bsattack::AttackerNode>(sched_, net_, kAttackerIp,
                                                       victim_config_.chain.magic);
  attack_config_.inbound_sessions = kMaxInbound;
  attack_config_.addr_gossip_rounds = 4;
  attack_config_.addrs_per_message = 400;
  attack_config_.defame_interval = 2500 * bsim::kMillisecond;
  attack_config_.repoison_interval = 2 * bsim::kSecond;
  attack_config_.reoccupy_inbound = true;
  attack_ = std::make_unique<bsattack::EclipseAttack>(*attacker_, *victim_, infra_ptrs_,
                                                      attack_config_);
  sched_.After(kAttackStartSeconds * bsim::kSecond, [this]() { attack_->Start(); });
  sched_.After(spec_.attack_stop_seconds * bsim::kSecond, [this]() {
    attack_->Stop();
    if (attack2_ != nullptr) attack2_->Stop();
  });

  if (spec_.crash_restart) {
    sched_.After(kCrashAt, [this]() {
      attack_->Stop();
      victim_->Stop();
      graveyard_.push_back(std::move(victim_));
    });
    sched_.After(kRestartAt,
                 [this]() { victim_ = SpawnVictim(spec_.restart_reseeds); });
    // The attacker re-acquires its vantage on the reborn victim shortly after
    // it comes back up.
    sched_.After(kRestartAt + 500 * bsim::kMillisecond, [this]() {
      attack2_ = std::make_unique<bsattack::EclipseAttack>(*attacker_, *victim_,
                                                           infra_ptrs_, attack_config_);
      attack2_->Start();
    });
  }
}

EclipseWorld::~EclipseWorld() = default;

NodeConfig EclipseWorld::VictimConfig() {
  NodeConfig config;
  config.rng_seed = spec_.victim_seed;
  config.max_inbound = kMaxInbound;
  config.target_outbound = kTargetOutbound;
  // Short enough that Defamation bans cycle inside the run: the sustained
  // attacker must keep re-defaming, which is exactly the pressure the
  // self-healing loop has to out-pace.
  config.ban_duration = 60 * bsim::kSecond;
  if (spec_.hardened) {
    // The earlier hardening layers the eclipse defenses compose with:
    // inbound eviction admits honest newcomers, and idle-session reaping
    // ages out Sybil occupation sessions (they send nothing after the
    // handshake, while honest peers relay txs and blocks continuously).
    config.enable_eviction = true;
    config.inactivity_timeout = spec_.inactivity_timeout;
    config.enable_addrman_bucketing = true;
    config.enable_anchors = true;
    config.enable_feelers = true;
    config.feeler_interval = 5 * bsim::kSecond;
    config.feeler_timeout = 3 * bsim::kSecond;
    config.enable_outbound_diversity = true;
    config.enable_stale_tip_recovery = true;
    config.stale_tip_timeout = 10 * bsim::kSecond;
  }
  if (spec_.crash_restart) {
    config.enable_durable_store = true;
    config.store_dir = kStoreDir;
    config.store_fs = &fs_;
  }
  return config;
}

std::unique_ptr<Node> EclipseWorld::SpawnVictim(bool seed_addresses) {
  auto node = std::make_unique<Node>(sched_, net_, kVictimIp, victim_config_);
  if (seed_addresses) {
    for (int i = 0; i < kHonestPeers; ++i) node->AddKnownAddress({HonestIp(i), 8333});
  }
  node->Start();
  return node;
}

void EclipseWorld::MineTick() {
  honest_[0]->MineAndRelay();
  sched_.After(3 * bsim::kSecond, [this]() { MineTick(); });
}

void EclipseWorld::RelayTxTick(Node* node) {
  node->SendToRemoteIp(kVictimIp, crafter_.ValidTx());
  sched_.After(2 * bsim::kSecond, [this, node]() { RelayTxTick(node); });
}

// Measured from the outside (the experimenter's view, not EclipseAttack's):
// the share of the victim's handshake-complete sessions that terminate at
// attacker IPs. A crashed victim counts as fully controlled: it has no
// honest view of the network at all.
double EclipseWorld::ControlFraction() const {
  if (victim_ == nullptr) return 1.0;
  std::size_t total = 0;
  std::size_t controlled = 0;
  for (const bsnet::Peer* peer : victim_->Peers()) {
    if (!peer->HandshakeComplete()) continue;
    ++total;
    controlled += attacker_ips_.contains(peer->remote.ip) ? 1 : 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(controlled) / static_cast<double>(total);
}

EclipseOutcome EclipseWorld::Run() {
  EclipseOutcome out;
  out.series.reserve(static_cast<std::size_t>(spec_.run_seconds));
  for (int s = 1; s <= spec_.run_seconds; ++s) {
    sched_.RunUntil(s * bsim::kSecond);
    out.series.push_back(ControlFraction());
  }
  attack_->Stop();
  if (attack2_ != nullptr) attack2_->Stop();

  out.peak = *std::max_element(out.series.begin(), out.series.end());
  double tail = 0.0;
  for (std::size_t i = out.series.size() - 5; i < out.series.size(); ++i) {
    tail += out.series[i];
  }
  out.final_fraction = tail / 5.0;

  // Time-to-heal: seconds from attack start until the last sample at or
  // above heal_fraction; after that instant the fraction never recovers.
  int last_bad = -1;
  for (std::size_t i = 0; i < out.series.size(); ++i) {
    const double t = static_cast<double>(i + 1);
    if (t >= kAttackStartSeconds && out.series[i] >= spec_.heal_fraction) {
      last_bad = static_cast<int>(i);
    }
  }
  if (last_bad == -1) {
    out.heal_seconds = 0.0;  // never eclipsed past the threshold
  } else if (last_bad + 1 != static_cast<int>(out.series.size())) {
    out.heal_seconds = static_cast<double>(last_bad + 2 - kAttackStartSeconds);
  }

  for (const bsnet::Peer* peer : victim_->Peers()) {
    if (!peer->HandshakeComplete()) continue;
    const bool attacker = attacker_ips_.contains(peer->remote.ip);
    if (peer->inbound && !attacker) ++out.honest_inbound;
    if (!peer->inbound && attacker) ++out.attacker_outbound;
  }
  return out;
}

}  // namespace bsscenario
