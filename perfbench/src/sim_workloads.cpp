// The simulator workloads. Both run a victim Node among an honest 4-node
// mining mesh, plus a prober session that PINGs the victim every
// kProbeInterval of simulated time; the probe's PING->PONG time is taken on
// the wall clock, so it measures the work the simulator does for the victim
// between the two.
//
//   bigframe-sim     parallel BmDosAttack sessions flood large wrong-checksum
//                    BLOCK frames (1,460-byte MSS segments, hundreds per
//                    frame); a Sybil chain sends invalid-PoW blocks, each
//                    decoded, validated, scored +100 and banned.
//   sybil-churn-sim  the durable store is on; a serial Sybil chain (Fig. 8:
//                    duplicate VERSION) and parallel chains with other
//                    Table I rules are banned and return from a fresh
//                    [IP:Port], every score update and ban a WAL commit.
//
// Time is measured by wall clock over simulated-time slices: the run
// advances kSlice at a time until --seconds of wall time have passed.
#include <cstdio>
#include <functional>
#include <memory>

#include "attack/attacker.hpp"
#include "attack/bmdos.hpp"
#include "attack/crafter.hpp"
#include "attack/sybil.hpp"
#include "core/node.hpp"
#include "core/sim_transport.hpp"
#include "ledger.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bsproto::Endpoint;

enum class Kind { kBigframe, kSybilChurn };

constexpr std::uint32_t kVictimIp = 0x0a000001;
constexpr std::uint32_t kHonestIp = 0x0a000010;  // .. + kHonestPeers - 1
constexpr std::uint32_t kFloodIp = 0x0a0000f0;   // bogus frames / serial Sybil
constexpr std::uint32_t kChainIp = 0x0a0000f1;   // Sybil chains
constexpr std::uint32_t kProbeIp = 0x0a0000f2;
constexpr std::uint16_t kPort = 8333;
constexpr int kHonestPeers = 4;

constexpr bsim::SimTime kSlice = 100 * bsim::kMillisecond;
constexpr std::int64_t kWindowNs = 500'000'000;  // throughput sample, wall time
constexpr bsim::SimTime kWarmup = 2 * bsim::kSecond;  // handshakes, first block
constexpr bsim::SimTime kDrain = 3 * bsim::kSecond;   // in-flight frames land
constexpr bsim::SimTime kProbeInterval = 5 * bsim::kMillisecond;
constexpr bsim::SimTime kMineInterval = bsim::kSecond;
constexpr bsim::SimTime kSybilSetup = 200 * bsim::kMillisecond;  // §VI-D

// bigframe-sim load.
constexpr int kBogusAttacks = 3;
constexpr int kBogusSessionsEach = 2;
constexpr double kBogusRatePerAttack = 30.0;  // frames per simulated second
constexpr std::size_t kBogusPayload = 400'000;

/// One Sybil chain: a session floods `make()` every `interval` once its
/// handshake completes; when the victim bans (resets) it, a fresh identifier
/// connects after kSybilSetup.
class SybilChain {
 public:
  /// `per_identifier` > 0 caps the messages one identifier sends.
  SybilChain(bsattack::AttackerNode& attacker, std::function<bsproto::Message()> make,
             bsim::SimTime interval, std::uint64_t per_identifier = 0)
      : attacker_(attacker),
        make_(std::move(make)),
        interval_(interval),
        per_identifier_(per_identifier) {}

  void Start() {
    running_ = true;
    Next();
  }
  void Stop() { running_ = false; }

  std::uint64_t MessagesSent() const { return sent_; }
  /// Per identifier: messages sent, and whether the victim closed it.
  struct Identifier {
    std::uint64_t sent = 0;
    bool closed = false;
  };
  const std::vector<Identifier>& Identifiers() const { return ids_; }

 private:
  void Next() {
    if (!running_) return;
    const std::size_t index = ids_.size();
    ids_.push_back({});
    bsattack::AttackSession* s = attacker_.OpenSession({kVictimIp, kPort}, true);
    s->on_ready = [this, index](bsattack::AttackSession& session) {
      Tick(&session, index);
    };
    s->on_closed = [this, index](bsattack::AttackSession&) {
      ids_[index].closed = true;
      attacker_.Sched().After(kSybilSetup, [this]() { Next(); });
    };
  }

  void Tick(bsattack::AttackSession* s, std::size_t index) {
    if (!running_ || s->closed) return;
    if (per_identifier_ > 0 && ids_[index].sent >= per_identifier_) return;
    attacker_.Send(*s, make_());
    ++sent_;
    ++ids_[index].sent;
    attacker_.Sched().After(interval_, [this, s, index]() { Tick(s, index); });
  }

  bsattack::AttackerNode& attacker_;
  std::function<bsproto::Message()> make_;
  bsim::SimTime interval_;
  std::uint64_t per_identifier_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  std::vector<Identifier> ids_;
};

/// One simulated world. `ledger` non-null attaches every decorator.
class SimWorld {
 public:
  SimWorld(Kind kind, std::uint64_t seed, const std::string& store_dir, Ledger* ledger,
           bsobs::HotpathProfiler* profiler)
      : kind_(kind), ledger_(ledger), crafter_(bsnet::NodeConfig{}.chain, seed) {
    victim_transport_ = std::make_unique<bsnet::SimTransport>(sched_, net_, kVictimIp);
    bsnet::Transport* transport = victim_transport_.get();
    if (ledger != nullptr) {
      timed_transport_ = std::make_unique<TimedTransport>(*transport, *ledger);
      transport = timed_transport_.get();
    }
    config_.rng_seed = seed;
    config_.profiler = profiler;
    if (kind == Kind::kSybilChurn) {
      RemoveTree(store_dir);
      store_dir_ = store_dir;
      config_.enable_durable_store = true;
      config_.store_dir = store_dir;
      if (ledger != nullptr) {
        timed_fs_ = std::make_unique<TimedStoreFs>(bsstore::RealFs::Instance(), *ledger);
        config_.store_fs = timed_fs_.get();
      }
    }
    victim_ = std::make_unique<bsnet::Node>(sched_, *transport, config_);
    observer_.Attach(*victim_, ledger);
    victim_->Start();

    for (int i = 0; i < kHonestPeers; ++i) {
      bsnet::NodeConfig hc;
      hc.rng_seed = seed * 1000 + 1 + static_cast<std::uint64_t>(i);
      hc.target_outbound = 2;
      auto node = std::make_unique<bsnet::Node>(sched_, net_, kHonestIp + i, hc);
      node->AddKnownAddress({kVictimIp, kPort});
      node->AddKnownAddress({kHonestIp + (i + 1) % kHonestPeers, kPort});
      node->Start();
      honest_.push_back(std::move(node));
    }

    const std::uint32_t magic = config_.chain.magic;
    flood_attacker_ = std::make_unique<bsattack::AttackerNode>(sched_, net_, kFloodIp, magic);
    chain_attacker_ = std::make_unique<bsattack::AttackerNode>(sched_, net_, kChainIp, magic);
    prober_ = std::make_unique<bsattack::AttackerNode>(sched_, net_, kProbeIp, magic);
    probe_session_ = prober_->OpenSession({kVictimIp, kPort}, true);
    probe_session_->on_message = [this](bsattack::AttackSession&,
                                        const bsproto::Message& msg) {
      if (bsproto::MsgTypeOf(msg) != bsproto::MsgType::kPong) return;
      const std::uint64_t nonce = std::get<bsproto::PongMsg>(msg).nonce;
      const auto it = probes_out_.find(nonce);
      if (it == probes_out_.end()) {
        ++bad_nonces_;
        return;
      }
      if (measuring_) rtt_us_.push_back(static_cast<double>(NowNs() - it->second) / 1e3);
      probes_out_.erase(it);
      ++probes_answered_;
    };

    bsutil::Rng rng(seed);
    probe_rng_.Seed(rng.Next());
    probe_nonce_base_ = (rng.Next() | 1) << 20;
    attack_offset_ = static_cast<bsim::SimTime>(rng.Below(100)) * bsim::kMillisecond;
  }

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Runs the warm-up: handshakes everywhere, the mesh connected.
  bool Settle() {
    Advance(kWarmup);
    return probe_session_->SessionReady() && !probe_session_->closed &&
           victim_->InboundCount() >= static_cast<std::size_t>(kHonestPeers);
  }

  /// Starts the mining, probing and attack schedules.
  void StartLoad() {
    Every([]() { return kMineInterval; }, [this]() {
      if (loading_) honest_[0]->MineAndRelay();
      return loading_;
    });
    // Probes are jittered so they sample the attack schedule uniformly
    // instead of locking onto its phase.
    Every([this]() { return kProbeInterval / 2 + static_cast<bsim::SimTime>(
                                 probe_rng_.Below(kProbeInterval)); },
          [this]() {
      if (!loading_) return false;
      const std::uint64_t nonce = probe_nonce_base_ + probes_sent_++;
      probes_out_.emplace(nonce, NowNs());
      prober_->Send(*probe_session_, bsproto::PingMsg{nonce});
      return true;
    });
    loading_ = true;
    sched_.After(attack_offset_, [this]() { StartAttacks(); });
  }

  /// Stops every schedule and lets in-flight frames land.
  void StopAndDrain() {
    loading_ = false;
    for (auto& a : bogus_) a->Stop();
    for (auto& c : chains_) c->Stop();
    if (serial_) serial_->Stop();
    Advance(sched_.Now() + kDrain);
  }

  /// Advances simulated time to `t`, stepping the scheduler one event at a
  /// time (timed when traced).
  void Advance(bsim::SimTime t) {
    while (true) {
      const bsim::SimTime next = sched_.NextEventTime();
      if (next < 0 || next > t) break;
      if (ledger_ != nullptr) {
        const std::int64_t start = NowNs();
        sched_.Step();
        ledger_->sim_step_ns += static_cast<std::uint64_t>(NowNs() - start);
        ++ledger_->sim_steps;
      } else {
        sched_.Step();
      }
    }
    sched_.RunUntil(t);  // moves the clock; no event is left at or before t
  }

  bsim::Scheduler& Sched() { return sched_; }
  bsim::Network& Net() { return net_; }
  bsnet::Node& Victim() { return *victim_; }
  VictimObserver& Observer() { return observer_; }
  const bsnet::NodeConfig& Config() const { return config_; }
  const std::string& StoreDir() const { return store_dir_; }
  void SetMeasuring(bool on) { measuring_ = on; }
  const std::vector<double>& RttUs() const { return rtt_us_; }

  std::uint64_t AttackerFramesSent() const {
    return flood_attacker_->TotalMessagesSent() + chain_attacker_->TotalMessagesSent() +
           prober_->TotalMessagesSent();
  }

  /// Output checks after StopAndDrain. Adds attempted/failed counts.
  void Check(RunResult& r, const std::string& label);

 private:
  /// Runs `fn` after each `period()` while it returns true.
  void Every(std::function<bsim::SimTime()> period, std::function<bool()> fn) {
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [this, period, fn = std::move(fn), weak = std::weak_ptr(tick)]() {
      if (!fn()) return;
      if (auto self = weak.lock()) sched_.After(period(), [self]() { (*self)(); });
    };
    ticks_.push_back(tick);
    sched_.After(period(), [tick]() { (*tick)(); });
  }

  void StartAttacks() {
    if (!loading_) return;
    const Endpoint target{kVictimIp, kPort};
    if (kind_ == Kind::kBigframe) {
      for (int i = 0; i < kBogusAttacks; ++i) {
        bsattack::BmDosConfig bc;
        bc.payload = bsattack::BmDosConfig::Payload::kBogusBlock;
        bc.rate_msgs_per_sec = kBogusRatePerAttack;
        bc.sybil_connections = kBogusSessionsEach;
        bc.bogus_payload_bytes = kBogusPayload;
        bogus_.push_back(
            std::make_unique<bsattack::BmDosAttack>(*flood_attacker_, target, crafter_, bc));
        bogus_.back()->Start();
      }
      chains_.push_back(std::make_unique<SybilChain>(
          *chain_attacker_,
          [this]() {
            return bsproto::Message{
                crafter_.InvalidPowBlock(config_.chain.GenesisBlock().Hash())};
          },
          bsim::kMillisecond, /*per_identifier=*/1));
    } else {
      bsattack::SerialSybilConfig sc;
      sc.max_identifiers = 1'000'000;  // for the whole run
      serial_ = std::make_unique<bsattack::SerialSybilAttack>(*flood_attacker_, target, sc);
      serial_->Start();
      const bsproto::Message version = bsproto::VersionMsg{};
      const bsproto::Message headers = crafter_.NonContinuousHeaders();
      chains_.push_back(std::make_unique<SybilChain>(
          *chain_attacker_, [version]() { return version; }, bsim::kMillisecond));
      chains_.push_back(std::make_unique<SybilChain>(
          *chain_attacker_, [headers]() { return headers; }, bsim::kMillisecond));
      chains_.push_back(std::make_unique<SybilChain>(
          *chain_attacker_,
          [this]() { return bsproto::Message{crafter_.SegwitInvalidTx()}; },
          bsim::kMillisecond, /*per_identifier=*/1));
    }
    for (auto& c : chains_) c->Start();
  }

  Kind kind_;
  Ledger* ledger_;
  bsim::Scheduler sched_;
  bsim::Network net_{sched_};
  bsattack::Crafter crafter_;
  bsnet::NodeConfig config_;
  std::string store_dir_;
  std::unique_ptr<TimedStoreFs> timed_fs_;
  std::unique_ptr<bsnet::SimTransport> victim_transport_;
  std::unique_ptr<TimedTransport> timed_transport_;
  VictimObserver observer_;
  std::unique_ptr<bsnet::Node> victim_;
  std::vector<std::unique_ptr<bsnet::Node>> honest_;
  std::unique_ptr<bsattack::AttackerNode> flood_attacker_;
  std::unique_ptr<bsattack::AttackerNode> chain_attacker_;
  std::unique_ptr<bsattack::AttackerNode> prober_;
  std::vector<std::unique_ptr<bsattack::BmDosAttack>> bogus_;
  std::vector<std::unique_ptr<SybilChain>> chains_;
  std::unique_ptr<bsattack::SerialSybilAttack> serial_;
  std::vector<std::shared_ptr<std::function<void()>>> ticks_;
  bsattack::AttackSession* probe_session_ = nullptr;
  std::map<std::uint64_t, std::int64_t> probes_out_;  // nonce -> wall send time
  bsutil::Rng probe_rng_;
  std::uint64_t probe_nonce_base_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_answered_ = 0;
  std::uint64_t bad_nonces_ = 0;
  std::vector<double> rtt_us_;
  bsim::SimTime attack_offset_ = 0;
  bool loading_ = false;
  bool measuring_ = false;
};

void SimWorld::Check(RunResult& r, const std::string& label) {
  bsnet::Node& v = *victim_;
  const VictimObserver& obs = observer_;
  const auto fail = [&](bool ok, const std::string& what) { r.Check(ok, label + ": " + what); };

  // Honest peers: none banned, every honest block accepted.
  std::uint64_t honest_bans = 0;
  std::uint64_t honest_misbehavior = 0;
  for (const auto& [id, rec] : obs.peers) {
    (void)id;
    if (rec.ip >= kHonestIp && rec.ip < kHonestIp + kHonestPeers) {
      honest_misbehavior += static_cast<std::uint64_t>(rec.events);
      honest_bans += rec.banned ? 1 : 0;
    }
  }
  fail(honest_bans == 0 && honest_misbehavior == 0, "zero honest bans and penalties");
  const int honest_height = honest_[0]->Chain().TipHeight();
  const int victim_height = v.Chain().TipHeight();
  fail(victim_height == honest_height && v.Chain().TipHash() == honest_[0]->Chain().TipHash(),
       "the victim accepted every honest block (height " + std::to_string(victim_height) +
           " vs " + std::to_string(honest_height) + ")");
  fail(honest_height >= 1, "the honest mesh mined blocks");

  // Probes.
  fail(bad_nonces_ == 0 && probes_answered_ == probes_sent_,
       "every probe answered with its own nonce (" + std::to_string(probes_answered_) +
           "/" + std::to_string(probes_sent_) + ")");

  // Every banned attacker identifier took exactly the Table I arithmetic.
  std::uint64_t attacker_bans = 0;
  bool arithmetic_ok = true;
  for (const auto& [id, rec] : obs.peers) {
    (void)id;
    if (rec.ip != kFloodIp && rec.ip != kChainIp) continue;
    if (!rec.banned) continue;
    ++attacker_bans;
    if (rec.mixed_rules || rec.events != MessagesToBan(config_, rec.rule)) {
      arithmetic_ok = false;
      std::fprintf(stderr, "%s: identifier banned after %d x %s (want %d)\n",
                   label.c_str(), rec.events, bsnet::ToString(rec.rule),
                   MessagesToBan(config_, rec.rule));
    }
  }
  fail(arithmetic_ok, "every ban took the Table I number of messages");
  fail(attacker_bans == obs.bans, "only attacker identifiers were banned");

  // Every identifier that sent enough to be banned was banned.
  std::uint64_t identifiers = 0;
  std::uint64_t unbanned = 0;
  // The rule each chain's payload triggers, in StartAttacks order.
  static constexpr bsnet::Misbehavior kSybilRules[] = {
      bsnet::Misbehavior::kVersionDuplicate, bsnet::Misbehavior::kHeadersNonContinuous,
      bsnet::Misbehavior::kTxSegwitInvalid};
  for (std::size_t ci = 0; ci < chains_.size(); ++ci) {
    const int need = MessagesToBan(
        config_, kind_ == Kind::kBigframe ? bsnet::Misbehavior::kBlockOtherInvalid
                                          : kSybilRules[ci]);
    for (const auto& id : chains_[ci]->Identifiers()) {
      if (id.sent < static_cast<std::uint64_t>(need)) continue;
      ++identifiers;
      unbanned += id.closed ? 0 : 1;
    }
  }
  if (serial_) {
    // The serial chain's first VERSION is the handshake, not a duplicate.
    const int need = MessagesToBan(config_, bsnet::Misbehavior::kVersionDuplicate) + 1;
    for (const auto& rec : serial_->Records()) {
      if (rec.messages_sent < static_cast<std::uint64_t>(need)) continue;
      ++identifiers;
      unbanned += rec.banned_at != 0 ? 0 : 1;
    }
  }
  fail(unbanned == 0, "every Sybil identifier that sent enough was banned (" +
                          std::to_string(unbanned) + " left)");
  fail(identifiers > 0 && attacker_bans >= identifiers, "the Sybil identifiers were banned");

  if (kind_ == Kind::kBigframe) {
    std::uint64_t bogus_sent = 0;
    for (const auto& a : bogus_) bogus_sent += a->MessagesSent();
    fail(bogus_sent > 0 && v.FramesDroppedBadChecksum() == bogus_sent,
         "every bogus-checksum frame dropped (" + std::to_string(v.FramesDroppedBadChecksum()) +
             "/" + std::to_string(bogus_sent) + ")");
    std::uint64_t flood_events = 0;
    for (const auto& [id, rec] : obs.peers) {
      (void)id;
      if (rec.ip == kFloodIp) flood_events += static_cast<std::uint64_t>(rec.events);
    }
    fail(flood_events == 0, "no bogus-checksum frame was scored");
    const std::uint64_t pow_sent = chains_[0]->MessagesSent();
    fail(pow_sent > 0 && attacker_bans == pow_sent,
         "every invalid-PoW block scored and banned (" + std::to_string(attacker_bans) + "/" +
             std::to_string(pow_sent) + ")");
  }

  r.attempted += static_cast<std::uint64_t>(honest_height) + identifiers + kHonestPeers +
                 probes_sent_;
  r.failed += static_cast<std::uint64_t>(std::max(0, honest_height - victim_height)) +
              unbanned + honest_bans + (probes_sent_ - probes_answered_);
}

struct SimPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  bsim::SimTime end = 0;  // simulated time the measured window reached
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t bans = 0;
  std::uint64_t misbehavior = 0;
  std::uint64_t blocks = 0;
  std::uint64_t commits = 0;
  std::uint64_t gen_frames = 0;
  std::vector<double> rtt_us;
  /// Victim frames and MB per second, per kWindowNs of wall time.
  std::vector<double> window_fps;
  std::vector<double> window_mbps;
  double msgs_per_ban = 0.0;
  // Per-layer figures as of the end of the measured window (traced only).
  Ledger ledger;
  bsobs::StageStats decode;
  bsobs::StageStats tracker;
  // Whole-run deterministic totals, drain included, for the divergence check.
  std::uint64_t total_events = 0;
  std::uint64_t total_frames = 0;
  std::uint64_t total_bans = 0;
  std::uint64_t total_commits = 0;
};

/// Builds the world `setups` times (median set-up time), measures the last
/// one until `seconds` of wall time pass — or, when `until` > 0, exactly to
/// simulated time `until` — then drains and checks it.
SimPass RunSimPass(Kind kind, const Options& opt, double seconds, bsim::SimTime until,
                   int setups, Ledger* ledger, bsobs::HotpathProfiler* profiler,
                   const std::string& tag, RunResult& result) {
  SimPass pass;
  std::vector<double> setup_times;
  std::unique_ptr<SimWorld> world;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    const std::string dir = opt.work_dir + "/" + tag + "-" + std::to_string(i);
    const std::int64_t start = NowNs();
    world = std::make_unique<SimWorld>(kind, opt.seed, dir, ledger, profiler);
    const bool ok = world->Settle();
    setup_times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    result.Check(ok, tag + ": the mesh and the prober finished their handshakes");
    if (!ok) return pass;
  }
  pass.setup_s = Median(setup_times);

  SimWorld& w = *world;
  VictimObserver& obs = w.Observer();
  if (ledger != nullptr) ledger->Reset();
  if (profiler != nullptr) profiler->Reset();
  const std::uint64_t events0 = w.Sched().ExecutedEvents();
  const std::uint64_t frames0 = obs.frames.load();
  const std::uint64_t bytes0 = obs.frame_bytes.load();
  const std::uint64_t packets0 = w.Net().SegmentsSent();
  const std::uint64_t bans0 = obs.bans;
  const std::uint64_t mis0 = obs.misbehavior_events;
  const std::uint64_t blocks0 = obs.blocks;
  const std::uint64_t commits0 = CounterValue(w.Victim(), "bs_store_commits_total");
  const std::uint64_t gen0 = w.AttackerFramesSent();

  w.StartLoad();
  w.SetMeasuring(true);
  const std::int64_t start = NowNs();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_start = start;
  std::uint64_t window_frames = frames0;
  std::uint64_t window_bytes = bytes0;
  while (until > 0 ? w.Sched().Now() < until : NowNs() - start < budget) {
    w.Advance(w.Sched().Now() + kSlice);
    const std::int64_t now = NowNs();
    if (now - window_start >= kWindowNs) {
      const double s = static_cast<double>(now - window_start) / 1e9;
      pass.window_fps.push_back(static_cast<double>(obs.frames.load() - window_frames) / s);
      pass.window_mbps.push_back(static_cast<double>(obs.frame_bytes.load() - window_bytes) /
                                 s / 1e6);
      window_start = now;
      window_frames = obs.frames.load();
      window_bytes = obs.frame_bytes.load();
    }
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  w.SetMeasuring(false);
  pass.end = w.Sched().Now();

  pass.events = w.Sched().ExecutedEvents() - events0;
  pass.frames = obs.frames.load() - frames0;
  pass.frame_bytes = obs.frame_bytes.load() - bytes0;
  pass.packets = w.Net().SegmentsSent() - packets0;
  pass.bans = obs.bans - bans0;
  pass.misbehavior = obs.misbehavior_events - mis0;
  pass.blocks = obs.blocks - blocks0;
  pass.commits = CounterValue(w.Victim(), "bs_store_commits_total") - commits0;
  pass.gen_frames = w.AttackerFramesSent() - gen0;
  pass.rtt_us = w.RttUs();
  if (ledger != nullptr) pass.ledger = *ledger;
  if (profiler != nullptr) {
    pass.decode = profiler->Stats(bsobs::HotStage::kCodecDecode);
    pass.tracker = profiler->Stats(bsobs::HotStage::kTrackerUpdate);
  }
  std::uint64_t banned_events = 0;
  std::uint64_t banned = 0;
  for (const auto& [id, rec] : obs.peers) {
    (void)id;
    if (!rec.banned) continue;
    ++banned;
    banned_events += static_cast<std::uint64_t>(rec.events);
  }
  pass.msgs_per_ban = Ratio(static_cast<double>(banned_events), static_cast<double>(banned));

  w.StopAndDrain();
  pass.total_events = w.Sched().ExecutedEvents();
  pass.total_frames = obs.frames.load();
  pass.total_bans = obs.bans;
  pass.total_commits = CounterValue(w.Victim(), "bs_store_commits_total");
  w.Check(result, tag);

  std::printf(
      "%s [%s] setup %.4f s (median of %d), %.1f sim-s in %.3f wall-s: %llu events, "
      "%llu frames, %llu bytes, %llu bans, %llu store commits, %zu probes\n",
      kind == Kind::kBigframe ? "bigframe-sim" : "sybil-churn-sim", tag.c_str(),
      pass.setup_s, setups, bsim::ToSeconds(pass.end), pass.wall_s,
      static_cast<unsigned long long>(pass.events),
      static_cast<unsigned long long>(pass.frames),
      static_cast<unsigned long long>(pass.frame_bytes),
      static_cast<unsigned long long>(pass.bans),
      static_cast<unsigned long long>(pass.commits), pass.rtt_us.size());

  if (kind == Kind::kSybilChurn) {
    const bsim::SimTime now = w.Sched().Now();
    const std::vector<Endpoint> bans = w.Victim().Bans().Snapshot();
    w.Victim().Shutdown();
    const std::string dir = w.StoreDir();
    world.reset();
    CheckStoreReopens(result, dir, bans, now);
  }
  return pass;
}

RunResult RunSim(Kind kind, const Options& opt) {
  RunResult result;
  if (!opt.trace) {
    const SimPass pass = RunSimPass(kind, opt, opt.seconds, 0, kSetups, nullptr, nullptr, "sim",
                                    result);
    result.Add("setup_s", pass.setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    // Outside load on a shared machine only ever slows a window down, so
    // the rate is the upper decile of the per-window rates.
    result.Add("frames_per_s", Quantile(pass.window_fps, 0.9), "1/s");
    result.Add("wire_mb_per_s", Quantile(pass.window_mbps, 0.9), "MB/s");
    std::printf("window MB/s:");
    for (const double v : pass.window_mbps) std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("bans per second: %.1f; probe rtt p50 %.2f us, p99 %.1f us (n=%zu)\n",
                static_cast<double>(pass.bans) / pass.wall_s, Quantile(pass.rtt_us, 0.5),
                Quantile(pass.rtt_us, 0.99), pass.rtt_us.size());
    return result;
  }

  // Traced run: an untraced pass sets the simulated horizon; the traced pass
  // replays exactly that horizon and must agree on every deterministic count.
  const SimPass base =
      RunSimPass(kind, opt, opt.seconds / 2.0, 0, 1, nullptr, nullptr, "base", result);
  Ledger ledger;
  bsobs::HotpathProfiler profiler;
  const SimPass traced =
      RunSimPass(kind, opt, 0.0, base.end, 1, &ledger, &profiler, "traced", result);
  result.Check(traced.total_events == base.total_events &&
                   traced.total_frames == base.total_frames &&
                   traced.total_bans == base.total_bans &&
                   traced.total_commits == base.total_commits,
               "traced and untraced runs agree on events, frames, bans and store commits "
               "(events " + std::to_string(base.total_events) + " vs " +
                   std::to_string(traced.total_events) + ", frames " +
                   std::to_string(base.total_frames) + " vs " +
                   std::to_string(traced.total_frames) + ")");

  LayerInputs in;
  in.wall_s = traced.wall_s;
  in.ledger = &traced.ledger;
  in.decode = traced.decode;
  in.tracker = traced.tracker;
  in.frames = traced.frames;
  in.sim_events = traced.events;
  in.sim_ns_per_event = Ratio(static_cast<double>(traced.ledger.sim_step_ns),
                              static_cast<double>(traced.ledger.sim_steps));
  in.sim_packets = traced.packets;
  in.blocks = traced.blocks;
  in.misbehavior_events = traced.misbehavior;
  in.bans = traced.bans;
  in.msgs_per_ban = traced.msgs_per_ban;
  in.bans_per_s = static_cast<double>(base.bans) / base.wall_s;
  in.store_commits = traced.commits;
  in.gen_frames_sent = traced.gen_frames;
  in.trace_overhead_ratio = traced.wall_s / base.wall_s;
  AddLayerMetrics(result, in, opt.seed);
  return result;
}

}  // namespace

RunResult RunBigframeSim(const Options& opt) { return RunSim(Kind::kBigframe, opt); }
RunResult RunSybilChurnSim(const Options& opt) { return RunSim(Kind::kSybilChurn, opt); }

RunResult RunPassthroughCheck(const Options& opt) {
  // A short fixed horizon of each simulator workload, with and without the
  // decorators; every deterministic count must match.
  RunResult result;
  for (const Kind kind : {Kind::kBigframe, Kind::kSybilChurn}) {
    const std::string name = kind == Kind::kBigframe ? "bigframe" : "sybil";
    const bsim::SimTime horizon = kWarmup + static_cast<bsim::SimTime>(opt.seconds * 1e9);
    const SimPass plain =
        RunSimPass(kind, opt, 0.0, horizon, 1, nullptr, nullptr, name + "-plain", result);
    Ledger ledger;
    bsobs::HotpathProfiler profiler;
    const SimPass timed =
        RunSimPass(kind, opt, 0.0, horizon, 1, &ledger, &profiler, name + "-timed", result);
    result.Check(plain.total_events == timed.total_events &&
                     plain.total_frames == timed.total_frames &&
                     plain.total_bans == timed.total_bans &&
                     plain.total_commits == timed.total_commits &&
                     plain.packets == timed.packets && plain.blocks == timed.blocks &&
                     plain.misbehavior == timed.misbehavior,
                 name + ": decorators are pure pass-throughs");
    result.Check(ledger.rx_calls > 0 && ledger.tx_calls > 0 && ledger.sim_steps > 0 &&
                     (kind == Kind::kBigframe || ledger.fsync_ns.size() > 0),
                 name + ": every decorator saw traffic");
    result.attempted += 1;
  }
  return result;
}

}  // namespace perfbench
