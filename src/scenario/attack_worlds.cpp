#include "scenario/attack_worlds.hpp"

#include <algorithm>
#include <utility>

namespace bsscenario {

using bsnet::Node;
using bsnet::NodeConfig;

BmDosWorld::BmDosWorld(BmDosSpec spec)
    : spec_(std::move(spec)), crafter_(bschain::ChainParams{}) {
  if (spec_.cpu) cpu.emplace(*spec_.cpu);
  if (spec_.metrics != nullptr) {
    sched.AttachMetrics(*spec_.metrics);
    if (spec_.net_metrics) net.AttachMetrics(*spec_.metrics);
  }
  NodeConfig config;
  config.rng_seed = spec_.seed;
  config.ban_policy = spec_.policy;
  config.metrics = spec_.metrics;
  config.profiler = spec_.profiler;
  target = std::make_unique<Node>(sched, net, kTargetIp, config, cpu ? &*cpu : nullptr);
  target->Start();
  attacker = std::make_unique<bsattack::AttackerNode>(sched, net, kAttackerIp,
                                                      config.chain.magic);
  if (cpu) cpu->SetActiveConnections(kNormalConnections + spec_.flood.sybil_connections);
}

void BmDosWorld::StartFlood(const bsattack::BmDosConfig& flood) {
  floods_.push_back(std::make_unique<bsattack::BmDosAttack>(
      *attacker, bsproto::Endpoint{kTargetIp, 8333}, crafter_, flood));
  floods_.back()->Start();
}

bsim::MiningSample BmDosWorld::MiningWindow(double seconds) {
  cpu->BeginWindow(sched.Now());
  RunFor(seconds);
  return cpu->EndWindow(sched.Now());
}

SybilWorld::SybilWorld(SybilSpec spec) : spec_(std::move(spec)) {
  if (spec_.metrics != nullptr) {
    sched.AttachMetrics(*spec_.metrics);
    net.AttachMetrics(*spec_.metrics);
  }
  NodeConfig config;
  config.rng_seed = spec_.seed;
  config.core_version = spec_.version;
  config.ban_threshold = spec_.threshold;
  config.metrics = spec_.metrics;
  config.span_tracer = spec_.tracer;
  target = std::make_unique<Node>(sched, net, kTargetIp, config);
  target->Start();
  attacker = std::make_unique<bsattack::AttackerNode>(sched, net, spec_.attacker_ip,
                                                      config.chain.magic);
  attacker->SetSpanTracer(spec_.tracer);
  attack = std::make_unique<bsattack::SerialSybilAttack>(
      *attacker, bsproto::Endpoint{kTargetIp, 8333}, spec_.attack);
}

SybilOutcome SybilWorld::Run(double seconds) {
  attack->Start();
  RunFor(seconds);

  SybilOutcome out;
  out.banned = attack->IdentifiersBanned();
  out.mean_time_to_ban = attack->MeanTimeToBan();
  for (const bsattack::SybilIdentifierRecord& rec : attack->Records()) {
    if (rec.banned_at != 0) out.time_to_ban.push_back(rec.TimeToBanSeconds());
    out.mean_messages += static_cast<double>(rec.messages_sent);
  }
  out.mean_messages /= static_cast<double>(std::max<std::size_t>(1, attack->Records().size()));
  return out;
}

DefameWorld::DefameWorld(DefameSpec spec)
    : crafter(bschain::ChainParams{}), spec_(std::move(spec)) {
  NodeConfig tc;
  tc.rng_seed = spec_.seed;
  tc.ban_policy = spec_.policy;
  tc.target_outbound = spec_.outbound;
  tc.span_tracer = spec_.tracer;
  target = std::make_unique<Node>(sched, net, kTargetIp, tc);
  NodeConfig pc;
  pc.rng_seed = spec_.seed;
  pc.target_outbound = 0;
  pc.span_tracer = spec_.tracer;
  innocent = std::make_unique<Node>(sched, net, kInnocentIp, pc);
  if (spec_.outbound >= 2) bystander = std::make_unique<Node>(sched, net, kBystanderIp, pc);
  innocent->Start();
  if (bystander) bystander->Start();
  if (spec_.outbound >= 1) target->AddKnownAddress({kInnocentIp, 8333});
  if (bystander) target->AddKnownAddress({kBystanderIp, 8333});
  target->Start();
  sched.RunUntil(5 * bsim::kSecond);

  attacker = std::make_unique<bsattack::AttackerNode>(sched, net, kAttackerIp, tc.chain.magic);
  attacker->SetSpanTracer(spec_.tracer);
}

DefameOutcome DefameWorld::DefamePre(std::uint16_t port, double settle_seconds) {
  DefameOutcome out;
  out.identifier = {kInnocentIp, port};
  pre_.push_back(std::make_unique<bsattack::PreConnectionDefamation>(
      *attacker, bsnet::Endpoint{kTargetIp, 8333}, out.identifier,
      bsattack::PreConnectionDefamation::InstantBanFrames(crafter.Params().magic)));
  pre_.back()->SetSpanTracer(spec_.tracer);
  pre_.back()->Run();
  RunFor(settle_seconds);
  out.banned = target->Bans().IsBanned(out.identifier, sched.Now());
  return out;
}

DefameOutcome DefameWorld::DefamePost() {
  innocent->MineAndRelay();
  RunFor(5);
  DefameOutcome out;
  const bsnet::Peer* outbound = nullptr;
  for (const bsnet::Peer* p : target->Peers()) {
    if (!p->inbound && p->remote.ip == kInnocentIp) outbound = p;
  }
  out.session_found = outbound != nullptr;
  if (!out.session_found) return out;
  // Copy the identifier now: a ban destroys the Peer.
  out.identifier = outbound->remote;
  out.good_score = target->Tracker().GoodScore(outbound->id);
  post_ = std::make_unique<bsattack::PostConnectionDefamation>(
      *attacker, outbound->conn->Local(), outbound->remote);
  post_->SetSpanTracer(spec_.tracer);
  post_->Arm({bsproto::EncodeMessage(crafter.Params().magic, crafter.SegwitInvalidTx())});
  innocent->SendToRemoteIp(kTargetIp, bsproto::PingMsg{1});
  RunFor(5);
  out.injected = post_->Injected();
  out.banned = target->Bans().IsBanned(out.identifier, sched.Now());
  return out;
}

}  // namespace bsscenario
