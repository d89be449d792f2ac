#include "core/node.hpp"

#include <algorithm>
#include <ranges>
#include <unordered_map>

#include "core/durable.hpp"
#include "core/sim_transport.hpp"
#include "crypto/partial_merkle.hpp"
#include "store/fs.hpp"
#include "util/log.hpp"

namespace bsnet {

using bsproto::Message;
using bsproto::MsgType;

namespace {

/// Unhooks the node's data sink and close callback; on_connected has
/// already fired for every registered peer's connection.
void DetachConn(TransportConn& conn) {
  conn.SetDataSink(nullptr);
  conn.on_closed = nullptr;
}

}  // namespace

Node::Node(bsim::Scheduler& sched, bsim::Network& net, std::uint32_t ip,
           NodeConfig config, bsim::CpuModel* cpu)
    : Node(sched, std::make_unique<SimTransport>(sched, net, ip), nullptr,
           std::move(config), cpu) {}

Node::Node(bsim::Scheduler& sched, Transport& transport, NodeConfig config,
           bsim::CpuModel* cpu)
    : Node(sched, nullptr, &transport, std::move(config), cpu) {}

Node::Node(bsim::Scheduler& sched, std::unique_ptr<Transport> owned,
           Transport* external, NodeConfig config, bsim::CpuModel* cpu)
    : sched_(sched),
      owned_transport_(std::move(owned)),
      transport_(external != nullptr ? external : owned_transport_.get()),
      ip_(transport_->Ip()),
      config_(std::move(config)),
      cpu_(cpu),
      rng_(config_.rng_seed ^ ip_),
      chain_(config_.chain),
      tracker_(config_.core_version, config_.ban_policy, config_.ban_threshold,
               config_.good_score_exemption),
      partition_([this] {
        PartitionParams p;
        p.expected_block_interval = config_.partition_expected_block_interval;
        p.divergence_blocks = config_.partition_divergence_blocks;
        p.suspicion_high = config_.partition_suspicion_high;
        p.suspicion_low = config_.partition_suspicion_low;
        p.ladder_step = config_.partition_ladder_step;
        return p;
      }()),
      trace_(config_.trace_capacity),
      tracer_(config_.span_tracer),
      profiler_(config_.profiler) {
  tracker_.SetMaxEntries(config_.tracker_max_entries);
  if (config_.governor_cycles_per_sec > 0) {
    const double burst = config_.governor_burst_cycles > 0
                             ? config_.governor_burst_cycles
                             : config_.governor_cycles_per_sec;
    governor_.emplace(config_.governor_cycles_per_sec, burst,
                      config_.governor_low_priority_reserve, sched.Now());
  }
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<bsobs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  bsobs::MetricsRegistry& reg = *metrics_;
  m_messages_total_ =
      reg.GetCounter("bs_node_messages_total", "Typed messages accepted");
  m_rx_bytes_total_ =
      reg.GetCounter("bs_node_rx_bytes_total", "Bytes received from peers");
  m_frames_bad_checksum_ = reg.GetCounter("bs_node_frames_bad_checksum_total",
                                          "Frames dropped: checksum mismatch");
  m_frames_unknown_ = reg.GetCounter("bs_node_frames_unknown_total",
                                     "Frames ignored: unknown command");
  m_frames_malformed_ = reg.GetCounter("bs_node_frames_malformed_total",
                                       "Frames dropped: malformed/oversize/bad magic");
  m_codec_oversize_ = reg.GetCounter(
      "bs_codec_oversize_reject_total",
      "Frames rejected: declared length above kMaxFramePayload");
  m_peers_banned_ =
      reg.GetCounter("bs_node_peers_banned_total", "Peers banned or discouraged");
  m_reconnects_ = reg.GetCounter("bs_node_outbound_reconnects_total",
                                 "Outbound slots refilled after initial fill");
  m_icmp_packets_ =
      reg.GetCounter("bs_node_icmp_packets_total", "ICMP packets received");
  m_rx_shed_bytes_ = reg.GetCounter("bs_node_rx_shed_bytes_total",
                                    "Receive-buffer bytes shed at the per-peer cap");
  m_handshake_timeouts_ = reg.GetCounter("bs_node_handshake_timeouts_total",
                                         "Peers dropped: stalled version handshake");
  m_dead_peer_disconnects_ = reg.GetCounter("bs_node_dead_peer_disconnects_total",
                                            "Peers dropped: unanswered PING");
  m_dial_failures_ = reg.GetCounter("bs_node_outbound_dial_failures_total",
                                    "Outbound sessions that failed or were lost");
  m_evictions_ = reg.GetCounter("bs_node_evictions_total",
                                "Inbound peers evicted to admit a newcomer");
  m_inbound_full_rejects_ = reg.GetCounter(
      "bs_node_inbound_full_rejects_total",
      "Inbound connections refused with every slot full and none evictable");
  m_ratelimit_frames_ = reg.GetCounter("bs_node_ratelimit_frames_dropped_total",
                                       "Frames shed by the rx rate limiter");
  m_ratelimit_bytes_ = reg.GetCounter("bs_node_ratelimit_bytes_dropped_total",
                                      "Frame bytes shed by the rx rate limiter");
  m_governor_shed_frames_ =
      reg.GetCounter("bs_node_governor_shed_frames_total",
                     "Frames shed by the global CPU-budget governor");
  m_feeler_attempts_ =
      reg.GetCounter("bs_feeler_attempts_total", "Feeler probe connections opened");
  m_feeler_promotions_ = reg.GetCounter(
      "bs_feeler_promotions_total", "Feeler probes that promoted an address to tried");
  m_anchor_redials_ = reg.GetCounter("bs_anchor_redial_total",
                                     "Anchor endpoints re-dialed after a restart");
  m_stale_tip_events_ = reg.GetCounter("bs_stale_tip_events_total",
                                       "Stale-tip windows that opened an extra outbound");
  m_partition_probes_sent_ =
      reg.GetCounter("bs_partition_probes_sent_total", "Gossip tip-probes sent");
  m_partition_probe_replies_ = reg.GetCounter(
      "bs_partition_probe_replies_total", "Replies received to our tip-probes");
  m_partition_suspect_windows_ =
      reg.GetCounter("bs_partition_suspect_windows_total",
                     "High-suspicion windows the partition monitor entered");
  m_partition_recoveries_ =
      reg.GetCounter("bs_partition_recoveries_total",
                     "High-suspicion windows that de-escalated back to calm");
  m_partition_recovery_actions_ =
      reg.GetCounter("bs_partition_recovery_actions_total",
                     "Partition recovery-ladder stage actions executed");
  m_partition_deferred_penalties_ = reg.GetCounter(
      "bs_partition_deferred_penalties_total",
      "Misbehavior penalties deferred by partition-aware damping");
  m_partition_suspicion_ = reg.GetGauge(
      "bs_partition_suspicion", "Fused partition-suspicion score (0..1)");
  for (const MsgType type : bsproto::AllMsgTypes()) {
    m_msg_type_[static_cast<std::size_t>(type)] = reg.GetCounter(
        std::string("bs_node_messages_") + bsproto::CommandName(type) + "_total",
        "Typed messages of one wire command");
  }
  m_frame_process_seconds_ =
      reg.GetHistogram("bs_node_frame_process_seconds", bsobs::LatencyBucketsSeconds(),
                       "Wall time to process one complete frame");
  m_frame_bytes_ = reg.GetHistogram("bs_node_frame_bytes", bsobs::SizeBucketsBytes(),
                                    "Complete wire-frame sizes");
  m_peers_gauge_ = reg.GetGauge("bs_node_peers", "Connected peers");
  banman_.AttachMetrics(reg);
  tracker_.AttachMetrics(reg);
  if (config_.enable_addrman_bucketing) addrman_.EnableBucketing();
  addrman_.AttachMetrics(reg);

  if (config_.enable_durable_store) {
    bsstore::StoreFs& store_fs = config_.store_fs != nullptr
                                     ? *config_.store_fs
                                     : bsstore::RealFs::Instance();
    const std::string dir = config_.store_dir.empty()
                                ? "bsnode-store-" + std::to_string(ip_)
                                : config_.store_dir;
    durable_ = std::make_unique<DurableNodeState>(store_fs, dir, banman_, tracker_,
                                                  addrman_);
    durable_->SetCompactThreshold(config_.store_compact_threshold);
    durable_->AttachMetrics(reg);
    if (!durable_->Open(sched.Now())) durable_.reset();  // run volatile
  }
  if (durable_ != nullptr && config_.enable_anchors) {
    // Last run's anchors: re-dialed before any Select draw, so the node's
    // first outbound slots go to peers that were serving it valid blocks —
    // not to whatever a poisoned address table coughs up.
    anchor_targets_ = durable_->Anchors();
    anchors_ = durable_->Anchors();
  }
  if (auto* sim = dynamic_cast<SimTransport*>(transport_)) {
    // ICMP is out-of-band of any connection and only exists in the sim;
    // wire the flood accounting exactly as the Host overrides used to.
    sim->on_icmp = [this](const bsim::IcmpPacket& pkt) { OnIcmp(pkt); };
    sim->on_icmp_batch = [this](const bsim::IcmpPacket& pkt, std::uint64_t n) {
      OnIcmpBatch(pkt, n);
    };
  }
}

Node::~Node() = default;

void Node::Start() {
  transport_->Listen(config_.listen_port,
                     [this](TransportConn& conn) { AcceptInbound(conn); });
  maintenance_running_ = true;
  MaintainOutbound();
}

// ---------------------------------------------------------------------------
// Peer lifetime

auto Node::LivePeers() const {
  return peers_ | std::views::values |
         std::views::filter([](const std::unique_ptr<Peer>& p) { return !p->disconnect; }) |
         std::views::transform([](const std::unique_ptr<Peer>& p) -> Peer& { return *p; });
}

Peer* Node::LivePeer(std::uint64_t id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() || it->second->disconnect ? nullptr : it->second.get();
}

void Node::MarkDisconnect(Peer& peer, bool reset) {
  if (peer.disconnect) return;
  TransportConn* conn = peer.conn;
  // Detach callbacks before resetting so the close event does not re-enter.
  if (reset) DetachConn(*conn);
  const bool was_outbound = !peer.inbound;
  if (was_outbound) {
    outbound_targets_.erase(peer.remote);
    if (peer.feeler) {
      // A feeler closing is the probe's normal end, not a failed slot.
      feeler_targets_.erase(peer.remote);
    } else {
      NoteOutboundFailure(peer.remote);
    }
  }
  pending_compact_.erase(peer.id);
  tracker_.Forget(peer.id);
  partition_.ForgetPeer(peer.id);
  peer.disconnect = true;
  peer.conn = nullptr;
  reap_.push_back(peer.id);
  m_peers_gauge_->Set(static_cast<double>(peers_.size() - reap_.size()));
  trace_.Record(Sched().Now(), bsobs::EventType::kPeerDisconnected, peer.id,
                static_cast<std::int64_t>(peer.remote.ip), was_outbound ? 0 : 1);
  if (reset) conn->Reset();
}

void Node::EndTurn() {
  for (const std::uint64_t id : reap_) peers_.erase(id);
  reap_.clear();
}

void Node::Stop() {
  // A crash emits nothing on the wire and fires no close events; callbacks
  // are detached before Abandon destroys the connections peers_ points into.
  DropAllPeers(/*close=*/false);
  dial_backoff_.clear();
  stale_tip_extra_active_ = false;
  partition_.Reset();
  partition_probe_nonces_.clear();
  partition_stage_done_ = PartitionMonitor::Stage::kNone;
  last_partition_probe_ = 0;
  last_partition_rotate_ = 0;
  partition_extra_active_ = false;
  transport_->Abandon();
}

void Node::Shutdown() {
  // FIN each connection so the remote sees a clean goodbye instead of a
  // dead-peer timeout.
  DropAllPeers(/*close=*/true);
  if (durable_ != nullptr) {
    if (config_.enable_anchors) durable_->SetAnchors(anchors_);
    durable_->Flush();
  }
}

void Node::DropAllPeers(bool close) {
  maintenance_running_ = false;
  transport_->StopListening(config_.listen_port);
  // Detach first so the closes cannot re-enter the node while we iterate.
  for (const auto& [id, peer] : peers_) {
    if (peer->conn == nullptr) continue;
    DetachConn(*peer->conn);
    if (close) peer->conn->Close();
  }
  peers_.clear();
  reap_.clear();
  pending_compact_.clear();
  outbound_targets_.clear();
  feeler_targets_.clear();
  pending_outbound_ = 0;
  pending_feeler_ = 0;
  m_peers_gauge_->Set(0.0);
}

// ---------------------------------------------------------------------------
// Connection management

void Node::AcceptInbound(TransportConn& conn) {
  // The banning filter: a banned identifier cannot reconnect (Fig. 2).
  // Discouraged IPs (0.21+ mode) are refused wholesale.
  if (banman_.IsBanned(conn.Remote(), Sched().Now()) ||
      banman_.IsDiscouraged(conn.Remote().ip)) {
    conn.Reset();
    return;
  }
  if (InboundCount() >= static_cast<std::size_t>(config_.max_inbound)) {
    // Stock 0.20.0 refuses flatly; with eviction on, the newcomer gets the
    // slot of the least-protected existing peer (or is refused when every
    // candidate is protected, as in Core). One identifier-light guard on
    // top: a netgroup already holding a strict plurality of the inbound
    // slots cannot claim more through eviction. Without it, an evicted
    // Sybil reconnects within milliseconds, wins an eviction against its
    // own groupmate, and the resulting churn loop turns the handshake
    // processing itself into the flood. Eviction runs as its own turn, so
    // the loser is freed before the newcomer registers and peers_ sees
    // erase-then-insert (its iteration order, hence relay order, depends
    // on that sequence).
    if (!config_.enable_eviction ||
        NewcomerGroupHoldsPlurality(NetGroup(conn.Remote().ip)) ||
        !EvictInboundPeer()) {
      m_inbound_full_rejects_->Inc();
      conn.Reset();
      return;
    }
  }
  TurnScope turn(*this);
  RegisterPeer(conn, /*inbound=*/true);
}

bool Node::NewcomerGroupHoldsPlurality(std::uint32_t group) const {
  std::size_t own = 0, best_other = 0;
  std::unordered_map<std::uint32_t, std::size_t> counts;
  for (const Peer& peer : LivePeers()) {
    if (peer.inbound) ++counts[NetGroup(peer.remote.ip)];
  }
  for (const auto& [g, count] : counts) {
    if (g == group) {
      own = count;
    } else {
      best_other = std::max(best_other, count);
    }
  }
  return own > 0 && own > best_other;
}

bool Node::EvictInboundPeer() {
  TurnScope turn(*this);
  std::vector<EvictionCandidate> candidates;
  candidates.reserve(peers_.size());
  for (const Peer& peer : LivePeers()) {
    if (!peer.inbound) continue;
    candidates.push_back({peer.id, peer.remote.ip, peer.connected_at,
                          peer.min_ping_rtt, peer.last_block_time,
                          peer.last_tx_time, tracker_.GoodScore(peer.id)});
  }
  const auto victim_id = SelectInboundPeerToEvict(std::move(candidates));
  Peer* victim = victim_id ? LivePeer(*victim_id) : nullptr;
  if (victim == nullptr) return false;
  m_evictions_->Inc();
  trace_.Record(Sched().Now(), bsobs::EventType::kPeerEvicted, victim->id,
                static_cast<std::int64_t>(victim->remote.ip),
                static_cast<std::int64_t>(NetGroup(victim->remote.ip)));
  if (on_peer_evicted) on_peer_evicted(*victim);
  MarkDisconnect(*victim, /*reset=*/true);
  return true;
}

void Node::FlagPeer(std::uint64_t id, bool low_priority) {
  if (Peer* peer = LivePeer(id)) peer->detect_flagged = low_priority;
}

PeerPriority Node::PriorityOf(const Peer& peer) const {
  if (!config_.enable_priority) return PeerPriority::kNormal;
  const std::uint64_t droppable = peer.frames_bad_checksum +
                                  peer.frames_unknown_command +
                                  peer.frames_malformed;
  // Demotion outranks good-score promotion: one lucky valid block must not
  // buy an exemption from flood shedding.
  if (peer.detect_flagged ||
      (config_.demote_bad_frames_threshold > 0 &&
       droppable >=
           static_cast<std::uint64_t>(config_.demote_bad_frames_threshold))) {
    return PeerPriority::kLow;
  }
  if (tracker_.GoodScore(peer.id) > 0) return PeerPriority::kHigh;
  return PeerPriority::kNormal;
}

bool Node::ConnectTo(const Endpoint& remote, bool feeler) {
  if (banman_.IsBanned(remote, Sched().Now())) return false;
  if (banman_.IsDiscouraged(remote.ip)) return false;
  if (outbound_targets_.contains(remote)) return false;
  if (transport_->IsSelf(remote)) return false;

  outbound_targets_.insert(remote);
  if (feeler) feeler_targets_.insert(remote);
  ++pending_outbound_;
  if (feeler) ++pending_feeler_;
  // Core semantics: the attempt is recorded at dial time and cleared by
  // Good() when the handshake completes (no-op in flat mode).
  addrman_.Attempt(remote, Sched().Now());
  TransportConn* conn = transport_->Connect(remote);
  if (conn == nullptr) {
    --pending_outbound_;
    if (feeler) --pending_feeler_;
    outbound_targets_.erase(remote);
    feeler_targets_.erase(remote);
    return false;
  }
  // Handshake completion is event-driven; the SYN cannot be answered before
  // we return, so wiring the callback after Connect() is race-free.
  conn->on_connected = [this, conn, remote, feeler](bool ok) {
    TurnScope turn(*this);
    --pending_outbound_;
    if (feeler) --pending_feeler_;
    if (!ok) {
      outbound_targets_.erase(remote);
      feeler_targets_.erase(remote);
      NoteOutboundFailure(remote);
      return;
    }
    Peer& peer = RegisterPeer(*conn, /*inbound=*/false, feeler);
    // Outbound side opens the version handshake.
    peer.sent_version = true;
    SendTo(peer, MakeVersionMsg(peer));
  };
  return true;
}

Peer& Node::RegisterPeer(TransportConn& conn, bool inbound, bool feeler) {
  auto peer = std::make_unique<Peer>();
  const std::uint64_t id = next_peer_id_++;
  peer->id = id;
  peer->remote = conn.Remote();
  peer->inbound = inbound;
  peer->feeler = feeler;
  peer->conn = &conn;
  peer->connected_at = Sched().Now();
  if (config_.enable_rate_limit) {
    // Newcomers open with one second of fill, not a full burst: eviction
    // churn must not mint fresh burst-sized credit for every Sybil rebirth.
    peer->rx_bytes_bucket =
        TokenBucket(config_.rx_bytes_burst, config_.rx_bytes_per_sec,
                    peer->connected_at, config_.rx_bytes_per_sec);
    peer->rx_cost_bucket =
        TokenBucket(config_.rx_cycles_burst, config_.rx_cycles_per_sec,
                    peer->connected_at, config_.rx_cycles_per_sec);
  }
  Peer* raw = peer.get();
  peers_.emplace(id, std::move(peer));
  m_peers_gauge_->Set(static_cast<double>(peers_.size() - reap_.size()));
  trace_.Record(Sched().Now(), bsobs::EventType::kPeerConnected, id,
                static_cast<std::int64_t>(raw->remote.ip), inbound ? 1 : 0);

  conn.SetDataSink([this, id](bsutil::ByteSpan data) { OnData(id, data); });
  conn.on_closed = [this, id]() {
    TurnScope turn(*this);
    if (Peer* peer = LivePeer(id)) MarkDisconnect(*peer, /*reset=*/false);
  };

  // Stalled-handshake watchdog: peer ids are never reused, so a timer whose
  // peer has already departed (or completed the handshake) is a no-op.
  if (config_.handshake_timeout > 0) {
    Sched().After(config_.handshake_timeout, [this, id]() {
      TurnScope turn(*this);
      Peer* peer = LivePeer(id);
      if (peer == nullptr || peer->HandshakeComplete()) return;
      m_handshake_timeouts_->Inc();
      MarkDisconnect(*peer, /*reset=*/true);
    });
  }
  return *raw;
}

void Node::DisconnectPeer(std::uint64_t id) {
  TurnScope turn(*this);
  if (Peer* peer = LivePeer(id)) MarkDisconnect(*peer, /*reset=*/true);
}

void Node::DropAndRebuildConnections() {
  TurnScope turn(*this);
  for (Peer& peer : LivePeers()) MarkDisconnect(peer, /*reset=*/true);
  // MaintainOutbound refills on its next tick.
}

void Node::MaintainOutbound() {
  if (!maintenance_running_) return;
  TurnScope turn(*this);
  const bsim::SimTime now = Sched().Now();
  banman_.SweepExpired(now);

  // Serial-Sybil outbound churn creates one backoff record per [IP:Port]
  // identifier ever dialed; entries far past their redial window are dead
  // weight (DialAllowed would pass them anyway), so sweep them once the map
  // is big enough to matter. An endpoint quiet for ten full backoff caps
  // restarting from failure #1 is the intended forgiveness.
  if (dial_backoff_.size() > 64) {
    const bsim::SimTime grace = 10 * config_.reconnect_backoff_cap;
    std::erase_if(dial_backoff_, [&](const auto& entry) {
      return now - entry.second.next_attempt > grace;
    });
  }

  // Keepalive and inactivity handling (all opt-in via config).
  if (config_.ping_interval > 0 || config_.inactivity_timeout > 0 ||
      config_.ping_timeout > 0) {
    const auto inactive = [&](const Peer& peer) {
      return config_.inactivity_timeout > 0 && peer.last_recv_time > 0 &&
             now - peer.last_recv_time >= config_.inactivity_timeout;
    };
    // Dead-peer detection: an outstanding PING unanswered past the timeout
    // means the far side is gone (crashed, partitioned) even if other
    // traffic kept inactivity_timeout from firing.
    const auto dead = [&](const Peer& peer) {
      return config_.ping_timeout > 0 && peer.outstanding_ping_nonce != 0 &&
             now - peer.last_ping_sent >= config_.ping_timeout;
    };
    // PINGs go out before any expired peer is dropped. A PING never expires
    // its target, so the second pass sees exactly the peers the first skipped.
    for (Peer& peer : LivePeers()) {
      if (!peer.HandshakeComplete() || inactive(peer) || dead(peer)) continue;
      if (config_.ping_interval > 0 &&
          now - peer.last_ping_sent >= config_.ping_interval) {
        peer.outstanding_ping_nonce = rng_.Next() | 1;  // never 0
        peer.last_ping_sent = now;
        SendTo(peer, bsproto::PingMsg{peer.outstanding_ping_nonce});
      }
    }
    for (Peer& peer : LivePeers()) {
      if (!peer.HandshakeComplete() || !(inactive(peer) || dead(peer))) continue;
      if (!inactive(peer)) m_dead_peer_disconnects_->Inc();
      MarkDisconnect(peer, /*reset=*/true);
    }
  }

  MaintainStaleTip(now);
  MaintainFeeler(now);
  MaintainPartition(now);

  // Feeler probes ride pending_outbound_ for dial bookkeeping but must not
  // count against the outbound slot budget.
  const auto live_outbound = [this] {
    return OutboundCount() +
           static_cast<std::size_t>(pending_outbound_ - pending_feeler_);
  };
  const std::size_t target = static_cast<std::size_t>(config_.target_outbound) +
                             (stale_tip_extra_active_ ? 1 : 0) +
                             (partition_extra_active_ ? 1 : 0);

  // Anchors first: restored last-known-good endpoints claim slots before any
  // address-table draw can hand them to a poisoned entry.
  while (!anchor_targets_.empty() && live_outbound() < target) {
    const Endpoint anchor = anchor_targets_.front();
    anchor_targets_.erase(anchor_targets_.begin());
    if (banman_.IsBanned(anchor, now) || outbound_targets_.contains(anchor) ||
        transport_->IsSelf(anchor)) {
      continue;
    }
    if (ConnectTo(anchor)) {
      m_anchor_redials_->Inc();
      trace_.Record(now, bsobs::EventType::kAnchorRedial, 0,
                    static_cast<std::int64_t>(anchor.ip), anchor.port);
    }
  }

  while (live_outbound() < target) {
    bsobs::ScopedProbe select_probe(profiler_, bsobs::HotStage::kAddrmanSelect);
    const auto candidate = addrman_.Select([this, now](const Endpoint& ep) {
      return !banman_.IsBanned(ep, Sched().Now()) && !outbound_targets_.contains(ep) &&
             !transport_->IsSelf(ep) && DialAllowed(ep, now) &&
             (!config_.enable_outbound_diversity ||
              !OutboundGroupTaken(NetGroup(ep.ip)));
    });
    select_probe.Stop();
    if (!candidate) break;  // peer-table diversity exhausted
    const bool counts_as_reconnect = initial_outbound_fill_done_;
    if (!ConnectTo(*candidate)) break;
    if (counts_as_reconnect) {
      m_reconnects_->Inc();
      trace_.Record(Sched().Now(), bsobs::EventType::kOutboundReconnect, 0,
                    static_cast<std::int64_t>(candidate->ip), candidate->port);
      if (on_outbound_reconnect) on_outbound_reconnect(*candidate);
    }
  }
  if (OutboundCount() >= static_cast<std::size_t>(config_.target_outbound)) {
    initial_outbound_fill_done_ = true;
  }
  Sched().After(config_.maintenance_interval, [this]() { MaintainOutbound(); });
}

void Node::MaintainStaleTip(bsim::SimTime now) {
  if (!config_.enable_stale_tip_recovery) return;
  const int tip = chain_.TipHeight();
  if (last_tip_advance_ == 0) {
    // First tick: arm the window without treating startup as a stall.
    tip_height_seen_ = tip;
    last_tip_advance_ = now > 0 ? now : 1;
    return;
  }
  if (tip > tip_height_seen_) {
    tip_height_seen_ = tip;
    last_tip_advance_ = now;
    if (stale_tip_extra_active_) {
      // The extra diversity-constrained outbound got the chain moving again;
      // keep it and retire the worst of the old set instead.
      stale_tip_extra_active_ = false;
      EvictWorstOutboundPeer();
    }
    return;
  }
  if (!stale_tip_extra_active_ && now - last_tip_advance_ >= config_.stale_tip_timeout) {
    stale_tip_extra_active_ = true;
    m_stale_tip_events_->Inc();
    trace_.Record(now, bsobs::EventType::kStaleTip, 0, tip);
  }
}

void Node::MaintainFeeler(bsim::SimTime now) {
  if (!config_.enable_feelers) return;
  if (now - last_feeler_time_ < config_.feeler_interval) return;
  bsobs::ScopedProbe select_probe(profiler_, bsobs::HotStage::kAddrmanSelect);
  const auto candidate = addrman_.SelectNew([this](const Endpoint& ep) {
    return !banman_.IsBanned(ep, Sched().Now()) && !outbound_targets_.contains(ep) &&
           !transport_->IsSelf(ep);
  });
  select_probe.Stop();
  if (!candidate) return;
  last_feeler_time_ = now;
  LaunchFeeler(*candidate, now);
}

bool Node::LaunchFeeler(const Endpoint& remote, bsim::SimTime now) {
  if (!ConnectTo(remote, /*feeler=*/true)) return false;
  m_feeler_attempts_->Inc();
  trace_.Record(now, bsobs::EventType::kFeelerProbe, 0,
                static_cast<std::int64_t>(remote.ip), remote.port);
  // Drop a probe that neither completed (OnOutboundHandshakeComplete closes
  // it) nor died on its own.
  Sched().After(config_.feeler_timeout, [this, remote]() {
    TurnScope turn(*this);
    Peer* peer = FindPeerByRemote(remote);
    if (peer != nullptr && peer->feeler) MarkDisconnect(*peer, /*reset=*/true);
  });
  return true;
}

void Node::MaintainPartition(bsim::SimTime now) {
  if (!config_.enable_partition_resilience) return;

  // Diversity census over the live outbound set (the monitor keeps the
  // watermark; a routing cut shears whole netgroups off at once).
  std::unordered_set<std::uint32_t> groups;
  for (const Peer& peer : LivePeers()) {
    if (peer.inbound || peer.feeler || !peer.HandshakeComplete()) continue;
    groups.insert(NetGroup(peer.remote.ip));
  }
  partition_.NoteNetgroupDiversity(groups.size());

  const int tip = chain_.TipHeight();
  const bool was_high = partition_.SuspicionHigh();
  const PartitionMonitor::Stage prev_stage = partition_.CurrentStage();
  bool recovered = false;
  const double suspicion = partition_.Update(now, tip, &recovered);
  m_partition_suspicion_->Set(suspicion);

  if (!was_high && partition_.SuspicionHigh()) {
    m_partition_suspect_windows_->Inc();
    trace_.Record(now, bsobs::EventType::kPartitionSuspected, 0,
                  static_cast<std::int64_t>(suspicion * 1000.0),
                  static_cast<std::int64_t>(partition_.CurrentStage()));
  }
  if (recovered) {
    m_partition_recoveries_->Inc();
    trace_.Record(now, bsobs::EventType::kPartitionRecovered, 0, 0,
                  static_cast<std::int64_t>(prev_stage));
    partition_stage_done_ = PartitionMonitor::Stage::kNone;
    if (partition_extra_active_) {
      // The emergency slot did its job; trim back to target, dropping the
      // worst of the old set (the peer that never delivered a block).
      partition_extra_active_ = false;
      EvictWorstOutboundPeer();
    }
  }

  if (partition_.SuspicionHigh()) {
    // Execute each newly reached ladder stage exactly once per window, in
    // escalation order; the rotation stage re-arms every ladder_step so a
    // long partition keeps cycling its most-divergent peer.
    const PartitionMonitor::Stage stage = partition_.CurrentStage();
    for (int s = static_cast<int>(partition_stage_done_) + 1;
         s <= static_cast<int>(stage); ++s) {
      RunPartitionStage(static_cast<PartitionMonitor::Stage>(s), now);
      partition_stage_done_ = static_cast<PartitionMonitor::Stage>(s);
    }
    if (stage == PartitionMonitor::Stage::kRotate &&
        now - last_partition_rotate_ >= config_.partition_ladder_step) {
      RunPartitionStage(stage, now);
    }
  }

  if (now - last_partition_probe_ >= config_.partition_probe_interval) {
    SendTipProbes(now);
  }
}

bsproto::TipProbeMsg Node::MakeTipProbe(std::uint64_t nonce) const {
  bsproto::TipProbeMsg msg;
  msg.nonce = nonce;
  msg.tips.push_back(
      {static_cast<std::int32_t>(chain_.TipHeight()), chain_.TipHash()});
  return msg;
}

void Node::SendTipProbes(bsim::SimTime now) {
  std::vector<Peer*> candidates;
  for (Peer& peer : LivePeers()) {
    if (peer.HandshakeComplete() && !peer.feeler) candidates.push_back(&peer);
  }
  if (candidates.empty()) return;
  last_partition_probe_ = now;
  // peers_ is an unordered_map: sort by id before the RNG draw so a probe
  // round samples the same peers on every run of the same seed.
  std::sort(candidates.begin(), candidates.end(),
            [](const Peer* a, const Peer* b) { return a->id < b->id; });
  const int fanout = std::max(config_.partition_probe_fanout, 1);
  for (int i = 0; i < fanout && !candidates.empty(); ++i) {
    const std::size_t pick =
        static_cast<std::size_t>(rng_.Below(candidates.size()));
    Peer* peer = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    // Bounded outstanding-nonce set: replies to long-forgotten probes are
    // simply treated as requests and answered, which is harmless.
    if (partition_probe_nonces_.size() > 256) partition_probe_nonces_.clear();
    const std::uint64_t nonce = rng_.Next() | 1;
    partition_probe_nonces_.insert(nonce);
    m_partition_probes_sent_->Inc();
    SendTo(*peer, MakeTipProbe(nonce));
  }
}

void Node::RunPartitionStage(PartitionMonitor::Stage stage, bsim::SimTime now) {
  if (stage == PartitionMonitor::Stage::kNone) return;
  m_partition_recovery_actions_->Inc();
  trace_.Record(now, bsobs::EventType::kPartitionSuspected, 0,
                static_cast<std::int64_t>(partition_.Suspicion() * 1000.0),
                static_cast<std::int64_t>(stage));
  switch (stage) {
    case PartitionMonitor::Stage::kNone:
      return;
    case PartitionMonitor::Stage::kFeelerBurst:
      for (int i = 0; i < config_.partition_feeler_burst; ++i) {
        if (!LaunchTargetedFeeler(now)) break;
      }
      return;
    case PartitionMonitor::Stage::kAnchorRedial:
      // Queue every idle anchor for the next MaintainOutbound drain — the
      // last peers known to serve valid blocks are the best bets to still
      // sit on the healthy side of the cut.
      for (const Endpoint& anchor : anchors_) {
        if (outbound_targets_.contains(anchor)) continue;
        if (std::find(anchor_targets_.begin(), anchor_targets_.end(), anchor) !=
            anchor_targets_.end()) {
          continue;
        }
        anchor_targets_.push_back(anchor);
      }
      return;
    case PartitionMonitor::Stage::kEmergencySlot:
      partition_extra_active_ = true;  // MaintainOutbound raises the target
      return;
    case PartitionMonitor::Stage::kRotate: {
      last_partition_rotate_ = now;
      // Rotate out the outbound peer whose probed tip trails ours the most:
      // it is the one most certainly stuck on our side of the cut, and its
      // slot is worth a fresh draw.
      const auto victim_id = partition_.MostDivergentPeer(chain_.TipHeight());
      Peer* victim = victim_id ? LivePeer(*victim_id) : nullptr;
      if (victim == nullptr || victim->inbound || victim->feeler) return;
      MarkDisconnect(*victim, /*reset=*/true);
      return;
    }
  }
}

bool Node::LaunchTargetedFeeler(bsim::SimTime now) {
  bsobs::ScopedProbe select_probe(profiler_, bsobs::HotStage::kAddrmanSelect);
  const auto candidate = addrman_.SelectNew([this](const Endpoint& ep) {
    return !banman_.IsBanned(ep, Sched().Now()) &&
           !outbound_targets_.contains(ep) && !transport_->IsSelf(ep) &&
           !OutboundGroupTaken(NetGroup(ep.ip));
  });
  select_probe.Stop();
  return candidate && LaunchFeeler(*candidate, now);
}

void Node::HandleTipProbe(Peer& peer, const bsproto::TipProbeMsg& msg) {
  const bool is_reply = partition_probe_nonces_.erase(msg.nonce) > 0;
  if (config_.enable_partition_resilience && !msg.tips.empty()) {
    std::int32_t best = msg.tips.front().height;
    for (const auto& tip : msg.tips) best = std::max(best, tip.height);
    partition_.OnProbeObservation(Sched().Now(), peer.id, best);
    trace_.Record(Sched().Now(), bsobs::EventType::kPartitionProbe, peer.id,
                  best, chain_.TipHeight());
    if (is_reply) m_partition_probe_replies_->Inc();
  }
  if (is_reply) return;
  // A request: answer with our own tip vector, echoing the nonce so the
  // prober can match the reply. Answering is stateless and costs one cheap
  // frame, so a node with the monitor switched off is still a useful probe
  // target for hardened neighbors.
  SendTo(peer, MakeTipProbe(msg.nonce));
}

void Node::OnOutboundHandshakeComplete(Peer& peer) {
  dial_backoff_.erase(peer.remote);
  const bool promoted = addrman_.Good(peer.remote, Sched().Now());
  if (!peer.feeler) return;
  if (promoted) m_feeler_promotions_->Inc();
  // Probe answered; the session has no other job.
  MarkDisconnect(peer, /*reset=*/true);
}

bool Node::OutboundGroupTaken(std::uint32_t group) const {
  for (const Peer& peer : LivePeers()) {
    if (!peer.inbound && !peer.feeler && NetGroup(peer.remote.ip) == group) return true;
  }
  // In-flight dials hold their group too, or two same-group dials could race
  // past the constraint in one tick.
  for (const Endpoint& ep : outbound_targets_) {
    if (!feeler_targets_.contains(ep) && NetGroup(ep.ip) == group) return true;
  }
  return false;
}

void Node::UpdateAnchors(const Endpoint& remote) {
  if (!config_.enable_anchors) return;
  if (!anchors_.empty() && anchors_.front() == remote) return;  // already newest
  const auto pos = std::find(anchors_.begin(), anchors_.end(), remote);
  if (pos != anchors_.end()) anchors_.erase(pos);
  anchors_.insert(anchors_.begin(), remote);
  if (anchors_.size() > static_cast<std::size_t>(std::max(config_.anchor_count, 0))) {
    anchors_.resize(static_cast<std::size_t>(std::max(config_.anchor_count, 0)));
  }
  if (durable_ != nullptr) durable_->SetAnchors(anchors_);
}

void Node::EvictWorstOutboundPeer() {
  if (OutboundCount() <= static_cast<std::size_t>(config_.target_outbound)) return;
  Peer* worst = nullptr;
  for (Peer& peer : LivePeers()) {
    if (peer.inbound || peer.feeler || !peer.HandshakeComplete()) continue;
    if (peer.last_block_time != 0) continue;  // it has delivered; keep it
    if (worst == nullptr || peer.connected_at < worst->connected_at) worst = &peer;
  }
  if (worst == nullptr) {
    // Every outbound peer has delivered at least one block. Without a
    // fallback the emergency slot would never be reclaimed here and each
    // stale-tip/partition episode would ratchet the outbound count up by
    // one for good; retire the least-recently-useful peer instead.
    for (Peer& peer : LivePeers()) {
      if (peer.inbound || peer.feeler || !peer.HandshakeComplete()) continue;
      if (worst == nullptr || peer.last_block_time < worst->last_block_time ||
          (peer.last_block_time == worst->last_block_time &&
           peer.connected_at < worst->connected_at)) {
        worst = &peer;
      }
    }
  }
  if (worst != nullptr) MarkDisconnect(*worst, /*reset=*/true);
}

// ---------------------------------------------------------------------------
// Outbound-reconnect backoff

void Node::NoteOutboundFailure(const Endpoint& remote) {
  m_dial_failures_->Inc();
  DialBackoff& backoff = dial_backoff_[remote];
  ++backoff.failures;
  backoff.next_attempt = Sched().Now() + RetryDelay(backoff.failures);
  // Hard bound (the grace sweep in MaintainOutbound only clears long-expired
  // entries): a churning dialer cycling fresh [IP:Port] identifiers would
  // otherwise grow the map one record per identifier forever. Evict the
  // entry closest to redial eligibility — it is the one whose loss costs the
  // least backoff protection.
  if (config_.dial_backoff_max_entries > 0 &&
      dial_backoff_.size() > config_.dial_backoff_max_entries) {
    auto victim = dial_backoff_.end();
    for (auto it = dial_backoff_.begin(); it != dial_backoff_.end(); ++it) {
      if (it->first == remote) continue;  // never evict the record just made
      if (victim == dial_backoff_.end() ||
          it->second.next_attempt < victim->second.next_attempt) {
        victim = it;
      }
    }
    if (victim != dial_backoff_.end()) {
      dial_backoff_.erase(victim);
      ++dial_backoff_pruned_;
    }
  }
}

bsim::SimTime Node::RetryDelay(int failures) {
  if (!config_.reconnect_backoff) return config_.reconnect_delay;
  // reconnect_delay · 2^(failures-1), capped; the shift itself is bounded so
  // the cap comparison never sees a wrapped value.
  const int shift = std::min(failures - 1, 20);
  const bsim::SimTime delay =
      std::min(config_.reconnect_delay << shift, config_.reconnect_backoff_cap);
  // ±jitter desynchronizes redial herds after a common-mode outage.
  const double factor =
      1.0 + config_.reconnect_backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
  return static_cast<bsim::SimTime>(static_cast<double>(delay) * factor);
}

bool Node::DialAllowed(const Endpoint& remote, bsim::SimTime now) const {
  if (!config_.reconnect_backoff) return true;  // stock node: redial instantly
  const auto it = dial_backoff_.find(remote);
  return it == dial_backoff_.end() || now >= it->second.next_attempt;
}

std::size_t Node::InboundCount() const {
  return static_cast<std::size_t>(
      std::ranges::count_if(LivePeers(), [](const Peer& p) { return p.inbound; }));
}

std::size_t Node::OutboundCount() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      LivePeers(), [](const Peer& p) { return !p.inbound && !p.feeler; }));
}

std::vector<const Peer*> Node::Peers() const {
  std::vector<const Peer*> out;
  out.reserve(peers_.size());
  for (const Peer& peer : LivePeers()) out.push_back(&peer);
  return out;
}

Peer* Node::FindPeerByRemote(const Endpoint& remote) {
  for (Peer& peer : LivePeers()) {
    if (peer.remote == remote) return &peer;
  }
  return nullptr;
}

const Peer* Node::FindPeerById(std::uint64_t id) const { return LivePeer(id); }

// ---------------------------------------------------------------------------
// Receive pipeline

void Node::OnData(std::uint64_t peer_id, bsutil::ByteSpan data) {
  TurnScope turn(*this);
  Peer* found = LivePeer(peer_id);
  if (found == nullptr) return;
  Peer& peer = *found;
  peer.rx_buffer.insert(peer.rx_buffer.end(), data.begin(), data.end());
  peer.bytes_received += data.size();
  m_rx_bytes_total_->Inc(data.size());

  // Overload shedding: a peer whose backlog outruns the decoder loses its
  // oldest bytes. DecodeMessage consumes at least a header's worth on every
  // header-complete outcome, so the stream resynchronizes (the sheared
  // frames surface as bad-magic/malformed drops) instead of wedging.
  if (config_.max_rx_buffer_bytes > 0 &&
      peer.rx_buffer.size() > config_.max_rx_buffer_bytes) {
    const std::size_t excess = peer.rx_buffer.size() - config_.max_rx_buffer_bytes;
    peer.rx_buffer.erase(peer.rx_buffer.begin(),
                         peer.rx_buffer.begin() + static_cast<std::ptrdiff_t>(excess));
    peer.rx_stream_base += excess;  // the decoder's stream position skips them
    m_rx_shed_bytes_->Inc(excess);
    trace_.Record(Sched().Now(), bsobs::EventType::kRxShed, peer_id,
                  static_cast<std::int64_t>(excess));
  }

  // `peer` outlives this call: a ban only marks it, and the turn opened
  // above frees it. A marked peer gets no further frames.
  std::size_t offset = 0;
  while (!peer.disconnect) {
    const bsutil::ByteSpan rest(peer.rx_buffer.data() + offset,
                                peer.rx_buffer.size() - offset);
    bsobs::ScopedProbe decode_probe(profiler_, bsobs::HotStage::kCodecDecode);
    const bsproto::DecodeResult frame =
        bsproto::DecodeMessage(config_.chain.magic, rest);
    decode_probe.Stop();
    if (frame.consumed == 0) break;  // incomplete frame
    const std::uint64_t frame_start = peer.rx_stream_base + offset;
    offset += frame.consumed;
    ProcessFrame(peer, frame, frame_start);
  }
  peer.rx_buffer.erase(peer.rx_buffer.begin(),
                       peer.rx_buffer.begin() + static_cast<std::ptrdiff_t>(offset));
  peer.rx_stream_base += offset;
}

void Node::ProcessFrame(Peer& peer, const bsproto::DecodeResult& frame,
                        std::uint64_t stream_offset) {
  using bsproto::DecodeStatus;

  // Checksum verification cost is paid for every complete frame, valid or
  // not: the victim hashes the payload before it can tell.
  const double checksum_cycles =
      static_cast<double>(frame.header.length) * kChecksumCyclesPerByte;

  const std::size_t frame_bytes = bsproto::kHeaderSize + frame.header.length;
  if (on_frame) on_frame(frame_bytes, frame.status);
  bsobs::ScopedTimer frame_timer(m_frame_process_seconds_);

  // Causal tracing: claim the context the sender registered for this stream
  // position and open the frame's own span. rx_ctx_ stays valid for the rest
  // of this frame — sends and misbehavior the handler triggers become its
  // children — and resets on every exit path.
  struct RxCtxReset {
    bsobs::TraceContext& ctx;
    ~RxCtxReset() { ctx = {}; }
  } rx_ctx_reset{rx_ctx_};
  bsobs::SpanClaim claim;
  if (tracer_ != nullptr && frame.status != DecodeStatus::kNeedMoreData &&
      peer.conn != nullptr) {
    const Endpoint remote = peer.conn->Remote();
    const Endpoint local = peer.conn->Local();
    claim = tracer_->ClaimFrame(
        bsobs::SpanStreamKey{bsobs::PackEndpoint(remote.ip, remote.port),
                             bsobs::PackEndpoint(local.ip, local.port)},
        stream_offset, static_cast<std::uint32_t>(frame_bytes));
    rx_ctx_ = claim.ctx.Valid() ? tracer_->Child(claim.ctx) : tracer_->Begin();
    bsobs::SpanRecord rec;
    rec.time = Sched().Now();
    rec.trace_id = rx_ctx_.trace_id;
    rec.span_id = rx_ctx_.span_id;
    rec.parent_span = claim.ctx.span_id;  // 0 when orphan
    rec.kind = frame.status == DecodeStatus::kOk ? bsobs::SpanKind::kReceive
                                                 : bsobs::SpanKind::kDrop;
    rec.flags = static_cast<std::uint8_t>(
        (claim.ctx.Valid() ? 0 : bsobs::kFlagOrphan) |
        (claim.resync ? bsobs::kFlagResync : 0));
    rec.msg_type = frame.status == DecodeStatus::kOk
                       ? static_cast<std::int16_t>(bsproto::MsgTypeOf(frame.message))
                       : -1;
    rec.node_ip = Ip();
    rec.peer_id = peer.id;
    rec.a = static_cast<std::int64_t>(frame.status);
    rec.b = static_cast<std::int64_t>(frame_bytes);
    tracer_->Log().Record(rec);
  }

  if (frame.status != DecodeStatus::kNeedMoreData) {
    m_frame_bytes_->Observe(static_cast<double>(frame_bytes));
    // Resource governance: the frame must fit the peer's token buckets and
    // the global CPU budget *before* the payload is checksummed — shedding
    // at the header peek is what keeps a flood off the CPU. The bytes stay
    // visible to on_frame above (they did arrive on the wire, and the
    // detect engine watches the wire).
    if (!AdmitFrame(peer, frame, frame_bytes)) {
      RecordSpan(bsobs::SpanKind::kShed, peer, -1, 0,
                 static_cast<std::int64_t>(frame_bytes), 0);
      return;
    }
  }

  switch (frame.status) {
    case DecodeStatus::kOk:
      break;
    case DecodeStatus::kBadChecksum:
      ++peer.frames_bad_checksum;
      m_frames_bad_checksum_->Inc();
      trace_.Record(Sched().Now(), bsobs::EventType::kFrameDropped, peer.id,
                    static_cast<std::int64_t>(frame.status),
                    static_cast<std::int64_t>(frame_bytes));
      if (cpu_) cpu_->ConsumeMessage(checksum_cycles);
      // The bogus-message loophole: dropped with no ban-score consequence —
      // unless the ablation flips the order and punishes it.
      if (!config_.checksum_before_misbehavior) {
        ApplyMisbehavior(peer, Misbehavior::kBadChecksumFrame);
      }
      return;
    case DecodeStatus::kUnknownCommand:
      ++peer.frames_unknown_command;
      m_frames_unknown_->Inc();
      trace_.Record(Sched().Now(), bsobs::EventType::kFrameDropped, peer.id,
                    static_cast<std::int64_t>(frame.status),
                    static_cast<std::int64_t>(frame_bytes));
      if (cpu_) cpu_->ConsumeMessage(checksum_cycles);
      return;  // ignored, never punished
    case DecodeStatus::kMalformed:
    case DecodeStatus::kOversize:
    case DecodeStatus::kBadMagic:
      ++peer.frames_malformed;
      m_frames_malformed_->Inc();
      if (frame.status == DecodeStatus::kOversize) m_codec_oversize_->Inc();
      trace_.Record(Sched().Now(), bsobs::EventType::kFrameDropped, peer.id,
                    static_cast<std::int64_t>(frame.status),
                    static_cast<std::int64_t>(frame_bytes));
      if (cpu_) cpu_->ConsumeMessage(checksum_cycles);
      return;  // dropped silently (no Table I rule)
    case DecodeStatus::kNeedMoreData:
      return;
  }

  const MsgType type = bsproto::MsgTypeOf(frame.message);
  if (cpu_) cpu_->ConsumeMessage(checksum_cycles + VictimProcessCycles(type));

  ++peer.messages_received;
  m_messages_total_->Inc();
  m_msg_type_[static_cast<std::size_t>(type)]->Inc();
  ++message_counts_[type];
  peer.last_recv_time = Sched().Now();
  trace_.Record(Sched().Now(), bsobs::EventType::kFrameDecoded, peer.id,
                static_cast<std::int64_t>(type),
                static_cast<std::int64_t>(frame_bytes));
  if (on_message) on_message(peer, type, frame.header.length);

  ProcessMessage(peer, frame.message);
}

bool Node::AdmitFrame(Peer& peer, const bsproto::DecodeResult& frame,
                      std::size_t frame_bytes) {
  if (!config_.enable_rate_limit && !governor_) return true;
  const bsim::SimTime now = Sched().Now();

  // What processing this frame would cost the shared CPU: checksum over the
  // payload, the type handler when it would actually run, and the fixed
  // stack overhead the CpuModel charges per admitted message.
  double cost = static_cast<double>(frame.header.length) * kChecksumCyclesPerByte;
  bool control_frame = false;
  if (frame.status == bsproto::DecodeStatus::kOk) {
    const bsproto::MsgType type = bsproto::MsgTypeOf(frame.message);
    cost += VictimProcessCycles(type);
    control_frame = type == bsproto::MsgType::kVersion ||
                    type == bsproto::MsgType::kVerack ||
                    type == bsproto::MsgType::kPing ||
                    type == bsproto::MsgType::kPong;
  }
  if (cpu_) cost += cpu_->Config().per_message_overhead_cycles;

  PeerPriority priority = PriorityOf(peer);
  // A frame that already failed decode has nothing left to offer but its
  // accounting; never let it compete with intact traffic for the reserve.
  if (config_.enable_priority && frame.status != bsproto::DecodeStatus::kOk) {
    priority = PeerPriority::kLow;
  }
  const double scale = priority == PeerPriority::kLow &&
                               config_.low_priority_cost_scale > 0
                           ? 1.0 / config_.low_priority_cost_scale
                           : 1.0;
  const double byte_cost = static_cast<double>(frame_bytes) * scale;
  const double cycle_cost = cost * scale;

  bool admitted = true;
  bool governor_shed = false;
  if (config_.enable_rate_limit &&
      (peer.rx_bytes_bucket.Available(now) < byte_cost ||
       peer.rx_cost_bucket.Available(now) < cycle_cost)) {
    admitted = false;
  }
  // The governor is only drawn on for frames the per-peer buckets accept,
  // so a bucket-refused flood cannot also drain the shared budget. Handshake
  // and keepalive control frames skip it entirely — shedding a PONG under
  // load would sever exactly the honest connections the governor protects,
  // and a control-frame flood is still throttled by the per-peer buckets.
  if (admitted && !control_frame && governor_ &&
      !governor_->TryConsume(cycle_cost, priority, now)) {
    admitted = false;
    governor_shed = true;
  }
  if (admitted) {
    if (config_.enable_rate_limit) {
      peer.rx_bytes_bucket.TryConsume(byte_cost, now);
      peer.rx_cost_bucket.TryConsume(cycle_cost, now);
    }
    return true;
  }

  m_ratelimit_frames_->Inc();
  m_ratelimit_bytes_->Inc(frame_bytes);
  if (governor_shed) m_governor_shed_frames_->Inc();
  if (cpu_) cpu_->ConsumeCycles(kRateLimitDropCycles);
  trace_.Record(now, bsobs::EventType::kRateLimited, peer.id,
                static_cast<std::int64_t>(frame_bytes), governor_shed ? 1 : 0);
  if (on_frame_shed) on_frame_shed(peer, frame_bytes, governor_shed);
  return false;
}

void Node::ApplyMisbehavior(Peer& peer, Misbehavior what) {
  // Partition-aware damping: while partition suspicion is high, behind/ahead
  // symptoms — a block whose parent we lack, a disordered header burst — from
  // a peer holding good-score credit are exactly what an honest peer across a
  // routing cut relays. Defer the penalty instead of marching a reconverging
  // peer toward a ban; true attackers without delivered-block credit keep
  // scoring normally.
  const bool partition_symptom = what == Misbehavior::kBlockPrevMissing ||
                                 what == Misbehavior::kHeadersNonConnecting ||
                                 what == Misbehavior::kHeadersNonContinuous;
  if (config_.enable_partition_resilience && config_.partition_damping &&
      partition_.SuspicionHigh() && partition_symptom) {
    // Divergence sync: the symptom itself says the sender knows chain we do
    // not. Ask it for headers (rate-limited per peer) so its follow-up blocks
    // connect instead of re-offending — a reconverged neighbor then pulls us
    // across the cut rather than marching toward our ban threshold.
    const bsim::SimTime now = Sched().Now();
    if (peer.last_divergence_sync == 0 ||
        now - peer.last_divergence_sync >= config_.partition_probe_interval) {
      peer.last_divergence_sync = now;
      bsproto::GetHeadersMsg gh;
      gh.locator = chain_.GetLocator();
      SendTo(peer, gh);
    }
    if (tracker_.GoodScore(peer.id) > 0) {
      m_partition_deferred_penalties_->Inc();
      trace_.Record(now, bsobs::EventType::kPenaltyDeferred, peer.id,
                    static_cast<std::int64_t>(what), tracker_.GoodScore(peer.id));
      return;
    }
  }
  bsobs::ScopedProbe tracker_probe(profiler_, bsobs::HotStage::kTrackerUpdate);
  const MisbehaviorOutcome outcome = tracker_.Misbehaving(peer.id, peer.inbound, what);
  tracker_probe.Stop();
  // The misbehavior point, and the ban it may trip, extend the causal chain
  // of the frame being processed: ban ← misbehavior ← receive ← send/inject.
  bsobs::TraceContext mis_ctx{};
  if (tracer_ != nullptr && outcome.rule_applied) {
    mis_ctx = rx_ctx_.Valid() ? tracer_->Child(rx_ctx_) : tracer_->Begin();
    bsobs::SpanRecord rec;
    rec.time = Sched().Now();
    rec.trace_id = mis_ctx.trace_id;
    rec.span_id = mis_ctx.span_id;
    rec.parent_span = rx_ctx_.span_id;
    rec.kind = bsobs::SpanKind::kMisbehavior;
    rec.node_ip = Ip();
    rec.peer_id = peer.id;
    rec.a = outcome.score_delta;
    rec.b = outcome.total_score;
    tracer_->Log().Record(rec);
  }
  if (outcome.rule_applied) {
    trace_.Record(Sched().Now(), bsobs::EventType::kMisbehavior, peer.id,
                  outcome.score_delta, outcome.total_score);
    if (on_misbehavior) on_misbehavior(peer, what, outcome);
  }
  if (!outcome.should_ban) return;

  m_peers_banned_->Inc();
  if (config_.use_discouragement) {
    banman_.Discourage(peer.remote.ip);
    trace_.Record(Sched().Now(), bsobs::EventType::kPeerDiscouraged, peer.id,
                  static_cast<std::int64_t>(peer.remote.ip), outcome.total_score);
  } else {
    banman_.Ban(peer.remote, Sched().Now() + config_.ban_duration);
    trace_.Record(Sched().Now(), bsobs::EventType::kPeerBanned, peer.id,
                  static_cast<std::int64_t>(peer.remote.ip), outcome.total_score);
  }
  if (tracer_ != nullptr) {
    const bsobs::TraceContext parent = mis_ctx.Valid() ? mis_ctx : rx_ctx_;
    const bsobs::TraceContext ban_ctx =
        parent.Valid() ? tracer_->Child(parent) : tracer_->Begin();
    bsobs::SpanRecord rec;
    rec.time = Sched().Now();
    rec.trace_id = ban_ctx.trace_id;
    rec.span_id = ban_ctx.span_id;
    rec.parent_span = parent.span_id;
    rec.kind = bsobs::SpanKind::kBan;
    rec.flags = config_.use_discouragement ? bsobs::kFlagDiscouraged : 0;
    rec.node_ip = Ip();
    rec.peer_id = peer.id;
    rec.a = static_cast<std::int64_t>(peer.remote.ip);
    rec.b = outcome.total_score;
    tracer_->Log().Record(rec);
  }
  if (on_peer_banned) on_peer_banned(peer);
  MarkDisconnect(peer, /*reset=*/true);
}

// ---------------------------------------------------------------------------
// Message dispatch

void Node::ProcessMessage(Peer& peer, const Message& msg) {
  const MsgType type = bsproto::MsgTypeOf(msg);

  // ---- Handshake-state rules (Table I VERSION/VERACK rows) ----
  if (!peer.got_version) {
    if (type != MsgType::kVersion) {
      // "Message before VERSION": +1 (inbound, ≤0.21); message ignored.
      ApplyMisbehavior(peer, Misbehavior::kMessageBeforeVersion);
      return;
    }
    HandleVersion(peer, std::get<bsproto::VersionMsg>(msg));
    return;
  }
  if (type == MsgType::kVersion) {
    // "Duplicate VERSION": +1 (inbound, ≤0.21); message ignored.
    ApplyMisbehavior(peer, Misbehavior::kVersionDuplicate);
    return;
  }
  if (!peer.got_verack) {
    if (type == MsgType::kVerack) {
      HandleVerack(peer);
      return;
    }
    // "Message (other than VERSION) before VERACK": +1 (inbound, 0.20 only).
    ApplyMisbehavior(peer, Misbehavior::kMessageBeforeVerack);
    return;
  }

  // ---- Established message handlers ----
  switch (type) {
    case MsgType::kVerack:
      return;  // redundant verack, ignored
    case MsgType::kPing:
      SendTo(peer, bsproto::PongMsg{std::get<bsproto::PingMsg>(msg).nonce});
      return;
    case MsgType::kPong: {
      const auto& pong = std::get<bsproto::PongMsg>(msg);
      if (peer.outstanding_ping_nonce != 0 &&
          pong.nonce == peer.outstanding_ping_nonce) {
        peer.last_pong_rtt = Sched().Now() - peer.last_ping_sent;
        if (peer.min_ping_rtt < 0 || peer.last_pong_rtt < peer.min_ping_rtt) {
          peer.min_ping_rtt = peer.last_pong_rtt;  // eviction protection tier 2
        }
        peer.outstanding_ping_nonce = 0;
      }
      return;
    }
    case MsgType::kAddr:
      HandleAddr(peer, std::get<bsproto::AddrMsg>(msg));
      return;
    case MsgType::kInv:
      HandleInv(peer, std::get<bsproto::InvMsg>(msg));
      return;
    case MsgType::kGetData:
      HandleGetData(peer, std::get<bsproto::GetDataMsg>(msg));
      return;
    case MsgType::kGetHeaders:
      HandleGetHeaders(peer, std::get<bsproto::GetHeadersMsg>(msg));
      return;
    case MsgType::kGetBlocks:
      HandleGetBlocks(peer, std::get<bsproto::GetBlocksMsg>(msg));
      return;
    case MsgType::kHeaders:
      HandleHeaders(peer, std::get<bsproto::HeadersMsg>(msg));
      return;
    case MsgType::kTx:
      HandleTx(peer, std::get<bsproto::TxMsg>(msg));
      return;
    case MsgType::kBlock:
      HandleBlock(peer, std::get<bsproto::BlockMsg>(msg));
      return;
    case MsgType::kCmpctBlock:
      HandleCmpctBlock(peer, std::get<bsproto::CmpctBlockMsg>(msg));
      return;
    case MsgType::kGetBlockTxn:
      HandleGetBlockTxn(peer, std::get<bsproto::GetBlockTxnMsg>(msg));
      return;
    case MsgType::kBlockTxn:
      HandleBlockTxn(peer, std::get<bsproto::BlockTxnMsg>(msg));
      return;
    case MsgType::kFilterLoad:
      HandleFilterLoad(peer, std::get<bsproto::FilterLoadMsg>(msg));
      return;
    case MsgType::kFilterAdd:
      HandleFilterAdd(peer, std::get<bsproto::FilterAddMsg>(msg));
      return;
    case MsgType::kFilterClear:
      peer.filter_loaded = false;
      peer.filter.reset();
      return;
    case MsgType::kGetAddr:
      HandleGetAddr(peer);
      return;
    case MsgType::kMempool:
      HandleMempool(peer);
      return;
    case MsgType::kTipProbe:
      HandleTipProbe(peer, std::get<bsproto::TipProbeMsg>(msg));
      return;
    // No ban-score rules and no state to update: accepted silently. These
    // (with PING/PONG above) are the "messages never getting banned" of
    // §III-B.
    case MsgType::kNotFound:
    case MsgType::kSendHeaders:
    case MsgType::kFeeFilter:
    case MsgType::kSendCmpct:
    case MsgType::kMerkleBlock:
    case MsgType::kReject:
      return;
    case MsgType::kVersion:
      return;  // handled above
  }
}

// ---------------------------------------------------------------------------
// Handshake

bsproto::VersionMsg Node::MakeVersionMsg(const Peer& peer) {
  bsproto::VersionMsg msg;
  msg.version = config_.protocol_version;
  msg.services = config_.services;
  msg.timestamp = static_cast<std::int64_t>(Sched().Now() / bsim::kSecond);
  msg.addr_recv.endpoint = peer.remote;
  msg.addr_from.endpoint = Endpoint{Ip(), config_.listen_port};
  msg.nonce = rng_.Next();
  msg.start_height = chain_.TipHeight();
  return msg;
}

void Node::HandleVersion(Peer& peer, const bsproto::VersionMsg& msg) {
  peer.got_version = true;
  peer.peer_protocol_version = msg.version;
  if (peer.inbound && !peer.sent_version) {
    peer.sent_version = true;
    SendTo(peer, MakeVersionMsg(peer));
  }
  SendTo(peer, bsproto::VerackMsg{});
}

void Node::HandleVerack(Peer& peer) {
  peer.got_verack = true;
  if (peer.inbound) return;
  // ProcessMessage only admits VERACK after VERSION, so this is where every
  // outbound handshake completes: proof the endpoint is healthy again (and,
  // for a feeler, the end of the probe).
  OnOutboundHandshakeComplete(peer);
  if (peer.disconnect) return;  // feeler probe finished
  // Outbound peers open header sync once the session is up.
  bsproto::GetHeadersMsg gh;
  gh.locator = chain_.GetLocator();
  SendTo(peer, gh);
}

// ---------------------------------------------------------------------------
// Gossip / inventory

void Node::HandleAddr(Peer& peer, const bsproto::AddrMsg& msg) {
  if (msg.addresses.size() > bsproto::kMaxAddrToSend) {
    ApplyMisbehavior(peer, Misbehavior::kAddrOversize);
    return;
  }
  for (const auto& rec : msg.addresses) addrman_.Add(rec.addr.endpoint, Sched().Now());
}

void Node::HandleInv(Peer& peer, const bsproto::InvMsg& msg) {
  if (msg.inventory.size() > bsproto::kMaxInvEntries) {
    ApplyMisbehavior(peer, Misbehavior::kInvOversize);
    return;
  }
  bsproto::GetDataMsg request;
  for (const auto& item : msg.inventory) {
    switch (item.type) {
      case bsproto::InvType::kBlock:
      case bsproto::InvType::kWitnessBlock:
        if (!chain_.HaveBlock(item.hash) && !chain_.IsKnownInvalid(item.hash)) {
          request.inventory.push_back(item);
        }
        break;
      case bsproto::InvType::kTx:
      case bsproto::InvType::kWitnessTx:
        if (!mempool_.Contains(item.hash)) request.inventory.push_back(item);
        break;
      default:
        break;
    }
  }
  if (!request.inventory.empty()) SendTo(peer, request);
}

void Node::HandleGetData(Peer& peer, const bsproto::GetDataMsg& msg) {
  if (msg.inventory.size() > bsproto::kMaxInvEntries) {
    ApplyMisbehavior(peer, Misbehavior::kGetDataOversize);
    return;
  }
  bsproto::NotFoundMsg misses;
  for (const auto& item : msg.inventory) {
    switch (item.type) {
      case bsproto::InvType::kBlock:
      case bsproto::InvType::kWitnessBlock: {
        if (const auto block = chain_.GetBlock(item.hash)) {
          SendTo(peer, bsproto::BlockMsg{*block});
        } else {
          misses.inventory.push_back(item);
        }
        break;
      }
      case bsproto::InvType::kCmpctBlock: {
        if (const auto block = chain_.GetBlock(item.hash)) {
          SendTo(peer, bsproto::BuildCompactBlock(*block, rng_.Next()));
        } else {
          misses.inventory.push_back(item);
        }
        break;
      }
      case bsproto::InvType::kFilteredBlock: {
        // BIP-37: a filtered block is a MERKLEBLOCK proof over the peer's
        // loaded bloom filter, followed by the matched transactions.
        const auto block = chain_.GetBlock(item.hash);
        if (!block || !peer.filter) {
          misses.inventory.push_back(item);
          break;
        }
        std::vector<bscrypto::Hash256> txids;
        std::vector<bool> matches;
        std::vector<const bschain::Transaction*> matched_txs;
        txids.reserve(block->txs.size());
        for (const auto& tx : block->txs) {
          txids.push_back(tx.Txid());
          const bool match = peer.filter->MatchesTx(tx);
          matches.push_back(match);
          if (match) matched_txs.push_back(&tx);
        }
        const bscrypto::PartialMerkleTree proof(txids, matches);
        bsproto::MerkleBlockMsg mb;
        mb.header = block->header;
        mb.total_txs = static_cast<std::uint32_t>(block->txs.size());
        mb.hashes = proof.Hashes();
        mb.flags = proof.FlagBytes();
        SendTo(peer, mb);
        for (const bschain::Transaction* tx : matched_txs) {
          SendTo(peer, bsproto::TxMsg{*tx});
        }
        break;
      }
      case bsproto::InvType::kTx:
      case bsproto::InvType::kWitnessTx: {
        if (const auto tx = mempool_.Get(item.hash)) {
          SendTo(peer, bsproto::TxMsg{*tx});
        } else {
          misses.inventory.push_back(item);
        }
        break;
      }
      default:
        misses.inventory.push_back(item);
        break;
    }
  }
  if (!misses.inventory.empty()) SendTo(peer, misses);
}

void Node::HandleGetHeaders(Peer& peer, const bsproto::GetHeadersMsg& msg) {
  bsproto::HeadersMsg reply;
  reply.headers = chain_.HeadersAfterLocator(msg.locator, bsproto::kMaxHeadersResults);
  SendTo(peer, reply);
}

void Node::HandleGetBlocks(Peer& peer, const bsproto::GetBlocksMsg& msg) {
  const auto headers = chain_.HeadersAfterLocator(msg.locator, 500);
  bsproto::InvMsg inv;
  for (const auto& h : headers) {
    inv.inventory.push_back({bsproto::InvType::kBlock, h.Hash()});
  }
  if (!inv.inventory.empty()) SendTo(peer, inv);
}

void Node::HandleHeaders(Peer& peer, const bsproto::HeadersMsg& msg) {
  if (msg.headers.size() > bsproto::kMaxHeadersResults) {
    ApplyMisbehavior(peer, Misbehavior::kHeadersOversize);
    return;
  }
  if (msg.headers.empty()) return;

  // Non-continuous sequence: each header must chain onto the previous one.
  for (std::size_t i = 1; i < msg.headers.size(); ++i) {
    if (msg.headers[i].prev != msg.headers[i - 1].Hash()) {
      ApplyMisbehavior(peer, Misbehavior::kHeadersNonContinuous);
      return;
    }
  }

  // Non-connecting: the first header must attach to our header tree. Core
  // tolerates kMaxUnconnectingHeaders of these, then misbehaves the peer.
  const bschain::BlockResult first = chain_.AcceptHeader(msg.headers[0]);
  if (first == bschain::BlockResult::kPrevMissing) {
    ++peer.unconnecting_headers;
    if (peer.unconnecting_headers % bsproto::kMaxUnconnectingHeaders == 0) {
      ApplyMisbehavior(peer, Misbehavior::kHeadersNonConnecting);
    }
    return;
  }
  if (first == bschain::BlockResult::kInvalidPow) {
    ApplyMisbehavior(peer, Misbehavior::kHeaderInvalidPow);
    return;
  }
  peer.unconnecting_headers = 0;

  for (std::size_t i = 1; i < msg.headers.size(); ++i) {
    const bschain::BlockResult r = chain_.AcceptHeader(msg.headers[i]);
    if (r == bschain::BlockResult::kInvalidPow) {
      ApplyMisbehavior(peer, Misbehavior::kHeaderInvalidPow);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Transactions and blocks

void Node::HandleTx(Peer& peer, const bsproto::TxMsg& msg) {
  const bschain::TxResult result = mempool_.AcceptTransaction(msg.tx);
  switch (result) {
    case bschain::TxResult::kOk:
      peer.last_tx_time = Sched().Now();  // eviction protection tier 3
      if (config_.relay) RelayInv(bsproto::InvType::kTx, msg.tx.Txid(), peer.id);
      return;
    case bschain::TxResult::kSegwitInvalid:
      ApplyMisbehavior(peer, Misbehavior::kTxSegwitInvalid);
      return;
    default:
      ApplyMisbehavior(peer, Misbehavior::kTxOtherConsensusInvalid);
      return;
  }
}

void Node::AcceptBlockFrom(Peer& peer, const bschain::Block& block) {
  const bschain::BlockResult result = chain_.AcceptBlock(block);
  switch (result) {
    case bschain::BlockResult::kOk:
      // Good-score credit: the peer delivered a valid block (§VIII).
      tracker_.AddGoodScore(peer.id);
      peer.last_block_time = Sched().Now();  // eviction protection tier 4
      if (!peer.inbound && !peer.feeler) UpdateAnchors(peer.remote);
      if (on_block_accepted) on_block_accepted(block);
      if (config_.relay) RelayInv(bsproto::InvType::kBlock, block.Hash(), peer.id);
      return;
    case bschain::BlockResult::kDuplicate:
      return;
    case bschain::BlockResult::kMutated:
      ApplyMisbehavior(peer, Misbehavior::kBlockMutated);
      return;
    case bschain::BlockResult::kCachedInvalid:
      ApplyMisbehavior(peer, Misbehavior::kBlockCachedInvalid);
      return;
    case bschain::BlockResult::kPrevInvalid:
      ApplyMisbehavior(peer, Misbehavior::kBlockPrevInvalid);
      return;
    case bschain::BlockResult::kPrevMissing:
      ApplyMisbehavior(peer, Misbehavior::kBlockPrevMissing);
      return;
    case bschain::BlockResult::kInvalidPow:
    case bschain::BlockResult::kOversize:
    case bschain::BlockResult::kBadCoinbase:
    case bschain::BlockResult::kConsensusInvalid:
      ApplyMisbehavior(peer, Misbehavior::kBlockOtherInvalid);
      return;
  }
}

void Node::HandleBlock(Peer& peer, const bsproto::BlockMsg& msg) {
  AcceptBlockFrom(peer, msg.block);
}

void Node::HandleCmpctBlock(Peer& peer, const bsproto::CmpctBlockMsg& msg) {
  if (!bschain::CheckProofOfWork(msg.header.Hash(), msg.header.bits, config_.chain) ||
      bsproto::CheckCompactBlock(msg) != bsproto::CompactBlockError::kOk) {
    ApplyMisbehavior(peer, Misbehavior::kCmpctBlockInvalid);
    return;
  }
  std::vector<std::uint64_t> missing;
  const auto block =
      bsproto::ReconstructBlock(msg, mempool_.CollectForBlock(mempool_.Size()), &missing);
  if (block) {
    AcceptBlockFrom(peer, *block);
    return;
  }
  pending_compact_[peer.id] = msg;
  bsproto::GetBlockTxnMsg request;
  request.block_hash = msg.header.Hash();
  request.indexes = std::move(missing);
  SendTo(peer, request);
}

void Node::HandleGetBlockTxn(Peer& peer, const bsproto::GetBlockTxnMsg& msg) {
  const auto block = chain_.GetBlock(msg.block_hash);
  if (!block) return;  // unknown block: ignored, as in Core
  bsproto::BlockTxnMsg reply;
  reply.block_hash = msg.block_hash;
  for (std::uint64_t idx : msg.indexes) {
    if (idx >= block->txs.size()) {
      ApplyMisbehavior(peer, Misbehavior::kGetBlockTxnOutOfBounds);
      return;
    }
    reply.txs.push_back(block->txs[static_cast<std::size_t>(idx)]);
  }
  SendTo(peer, reply);
}

void Node::HandleBlockTxn(Peer& peer, const bsproto::BlockTxnMsg& msg) {
  const auto it = pending_compact_.find(peer.id);
  if (it == pending_compact_.end()) return;
  const bsproto::CmpctBlockMsg pending = it->second;
  if (pending.header.Hash() != msg.block_hash) return;
  pending_compact_.erase(it);

  // Retry reconstruction with mempool plus the delivered transactions.
  std::vector<bschain::Transaction> candidates = mempool_.CollectForBlock(mempool_.Size());
  candidates.insert(candidates.end(), msg.txs.begin(), msg.txs.end());
  const auto block = bsproto::ReconstructBlock(pending, candidates, nullptr);
  if (!block) {
    // Peer answered our request with transactions that do not fill the
    // block: invalid compact block data.
    ApplyMisbehavior(peer, Misbehavior::kCmpctBlockInvalid);
    return;
  }
  AcceptBlockFrom(peer, *block);
}

// ---------------------------------------------------------------------------
// BIP-37 filters and address queries

void Node::HandleFilterLoad(Peer& peer, const bsproto::FilterLoadMsg& msg) {
  if (msg.filter.size() > bsproto::kMaxBloomFilterSize) {
    ApplyMisbehavior(peer, Misbehavior::kFilterLoadOversize);
    return;
  }
  peer.filter = bsproto::BloomFilter::FromMessage(msg);
  peer.filter_loaded = peer.filter.has_value();
}

void Node::HandleFilterAdd(Peer& peer, const bsproto::FilterAddMsg& msg) {
  if (msg.data.size() > bsproto::kMaxScriptElementSize) {
    ApplyMisbehavior(peer, Misbehavior::kFilterAddOversize);
    return;
  }
  if (peer.peer_protocol_version >= bsproto::kNoBloomVersion) {
    // Table I (0.20.0 only): FILTERADD from a protocol >= 70011 peer.
    ApplyMisbehavior(peer, Misbehavior::kFilterAddVersionGate);
    return;
  }
  if (peer.filter) peer.filter->Insert(msg.data);
}

void Node::HandleGetAddr(Peer& peer) {
  bsproto::AddrMsg reply;
  for (const Endpoint& ep : addrman_.Sample(bsproto::kMaxAddrToSend)) {
    bsproto::TimedNetAddr rec;
    rec.time = static_cast<std::uint32_t>(Sched().Now() / bsim::kSecond);
    rec.addr.services = bsproto::kNodeNetwork;
    rec.addr.endpoint = ep;
    reply.addresses.push_back(rec);
  }
  SendTo(peer, reply);
}

void Node::HandleMempool(Peer& peer) {
  bsproto::InvMsg inv;
  for (const auto& tx : mempool_.CollectForBlock(bsproto::kMaxInvEntries)) {
    inv.inventory.push_back({bsproto::InvType::kTx, tx.Txid()});
  }
  SendTo(peer, inv);
}

// ---------------------------------------------------------------------------
// Sending / relay / mining

void Node::SendTo(Peer& peer, const Message& msg) {
  TurnScope turn(*this);
  if (peer.conn == nullptr || !peer.conn->IsEstablished()) return;
  const bsutil::ByteVec bytes = bsproto::EncodeMessage(config_.chain.magic, msg);
  if (tracer_ != nullptr) {
    // Register the frame's stream position so the receiver can claim this
    // context when its decoder reaches the same offset. A send triggered by
    // an in-flight frame (PONG, INV relay, GETDATA, ...) continues that
    // frame's trace; anything else roots a new one.
    const bsobs::TraceContext ctx =
        rx_ctx_.Valid() ? tracer_->Child(rx_ctx_) : tracer_->Begin();
    const Endpoint local = peer.conn->Local();
    const Endpoint remote = peer.conn->Remote();
    tracer_->NoteFrameSent(
        bsobs::SpanStreamKey{bsobs::PackEndpoint(local.ip, local.port),
                             bsobs::PackEndpoint(remote.ip, remote.port)},
        peer.tx_stream_offset, static_cast<std::uint32_t>(bytes.size()), ctx);
    bsobs::SpanRecord rec;
    rec.time = Sched().Now();
    rec.trace_id = ctx.trace_id;
    rec.span_id = ctx.span_id;
    rec.parent_span = rx_ctx_.span_id;  // 0 when this send roots the trace
    rec.kind = bsobs::SpanKind::kSend;
    rec.msg_type = static_cast<std::int16_t>(bsproto::MsgTypeOf(msg));
    rec.node_ip = Ip();
    rec.peer_id = peer.id;
    rec.a = static_cast<std::int64_t>(bytes.size());
    tracer_->Log().Record(rec);
  }
  peer.tx_stream_offset += bytes.size();
  peer.conn->Send(bytes);
}

void Node::RecordSpan(bsobs::SpanKind kind, const Peer& peer,
                      std::int16_t msg_type, std::uint8_t flags, std::int64_t a,
                      std::int64_t b) {
  if (tracer_ == nullptr) return;
  const bsobs::TraceContext ctx =
      rx_ctx_.Valid() ? tracer_->Child(rx_ctx_) : tracer_->Begin();
  bsobs::SpanRecord rec;
  rec.time = Sched().Now();
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.parent_span = rx_ctx_.span_id;
  rec.kind = kind;
  rec.flags = flags;
  rec.msg_type = msg_type;
  rec.node_ip = Ip();
  rec.peer_id = peer.id;
  rec.a = a;
  rec.b = b;
  tracer_->Log().Record(rec);
}

bool Node::SendToRemoteIp(std::uint32_t ip, const Message& msg) {
  for (Peer& peer : LivePeers()) {
    if (peer.remote.ip == ip && peer.HandshakeComplete()) {
      SendTo(peer, msg);
      return true;
    }
  }
  return false;
}

void Node::RelayInv(bsproto::InvType type, const bscrypto::Hash256& hash,
                    std::uint64_t except_peer) {
  bsproto::InvMsg inv;
  inv.inventory.push_back({type, hash});
  for (Peer& peer : LivePeers()) {
    if (peer.id == except_peer || !peer.HandshakeComplete()) continue;
    // BIP-37: SPV peers only hear about transactions their filter matches.
    if (type == bsproto::InvType::kTx && peer.filter) {
      const auto tx = mempool_.Get(hash);
      if (!tx || !peer.filter->MatchesTx(*tx)) continue;
    }
    SendTo(peer, inv);
  }
}

std::optional<bschain::Block> Node::MineAndRelay() {
  TurnScope turn(*this);
  bschain::Block tmpl = bschain::BuildBlockTemplate(
      chain_.TipHash(), static_cast<std::uint32_t>(Sched().Now() / bsim::kSecond),
      mempool_.CollectForBlock(1000), config_.chain, mining_extra_nonce_++);
  auto block = bschain::MineBlock(std::move(tmpl), config_.chain);
  if (!block) return std::nullopt;
  if (chain_.AcceptBlock(*block) != bschain::BlockResult::kOk) return std::nullopt;
  if (on_block_accepted) on_block_accepted(*block);
  RelayInv(bsproto::InvType::kBlock, block->Hash(), /*except_peer=*/0);
  return block;
}

void Node::OnIcmp(const bsim::IcmpPacket& pkt) {
  (void)pkt;
  m_icmp_packets_->Inc();
  if (cpu_) cpu_->ConsumeIcmpPacket();
}

void Node::OnIcmpBatch(const bsim::IcmpPacket& pkt, std::uint64_t count) {
  (void)pkt;
  m_icmp_packets_->Inc(count);
  if (cpu_) cpu_->ConsumeIcmpPackets(count);
}

}  // namespace bsnet
