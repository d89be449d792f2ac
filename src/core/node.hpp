// The Bitcoin P2P node: version handshake, full message-processing pipeline,
// the ban-score mechanism wired in exactly as Fig. 2 describes, outbound
// connection maintenance, and observation hooks for the anomaly-detection
// Monitor.
//
// Processing pipeline per arriving frame (the ordering is load-bearing for
// the paper's attack vectors):
//
//   TCP checksum (sim layer) → Bitcoin message checksum → command lookup →
//   payload deserialization → handshake-state rules → type handler →
//   misbehavior tracking → threshold/ban
//
// A frame failing the message checksum is dropped before the misbehavior
// tracker ever sees it — the "forgoing ban score" BM-DoS vector. Unknown
// commands are ignored without punishment — the "messages never getting
// banned" vector (together with typed messages like PING that simply have no
// rule).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/chainstate.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "core/addrman.hpp"
#include "core/banman.hpp"
#include "core/costmodel.hpp"
#include "core/eviction.hpp"
#include "core/misbehavior.hpp"
#include "core/partition.hpp"
#include "core/ratelimit.hpp"
#include "core/rules.hpp"
#include "core/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "proto/bloom.hpp"
#include "proto/codec.hpp"
#include "proto/compact.hpp"
#include "proto/messages.hpp"
#include "sim/cpu.hpp"
#include "sim/tcp.hpp"
#include "util/rng.hpp"

namespace bsstore {
class StoreFs;
}

namespace bsnet {

class DurableNodeState;

struct NodeConfig {
  CoreVersion core_version = CoreVersion::kV0_20;
  BanPolicy ban_policy = BanPolicy::kBanScore;
  int ban_threshold = 100;
  bsim::SimTime ban_duration = 24 * bsim::kHour;
  /// Core 0.21+ semantics: on threshold, discourage the peer's IP (no
  /// expiry, whole IP) instead of banning the [IP:Port] identifier for 24 h.
  /// Off by default — the paper's experiments ran the 0.20.0 banning regime.
  bool use_discouragement = false;

  std::uint16_t listen_port = 8333;
  int max_inbound = 117;    // Core's 117-of-128 inbound slots
  int target_outbound = 8;  // outbound connections the node maintains
  /// Keepalive: PING handshake-complete peers this often (0 = disabled,
  /// the default — scenario benches drive their own traffic).
  bsim::SimTime ping_interval = 0;
  /// Disconnect peers silent for this long (0 = disabled).
  bsim::SimTime inactivity_timeout = 0;

  // ---- Robustness hardening (beyond-paper; every default preserves the
  // paper-faithful 0.20.0 behaviour the Fig. 8 serial-Sybil timing depends
  // on, so the benches keep measuring the stock node) ----
  /// Disconnect peers whose version handshake is still incomplete after this
  /// long (0 = disabled). Distinct from inactivity_timeout, which only
  /// watches handshake-complete peers.
  bsim::SimTime handshake_timeout = 0;
  /// Dead-peer detection: disconnect when an outstanding PING has gone
  /// unanswered for this long (0 = disabled; needs ping_interval to be on).
  bsim::SimTime ping_timeout = 0;
  /// Outbound-reconnect exponential backoff: after each consecutive failure
  /// to an endpoint the redial delay doubles from 500 ms up to
  /// `reconnect_backoff_cap`, with ±25 % randomization. Off by default — the
  /// stock node redials on the next maintenance tick, which is what makes
  /// serial-Sybil/Defamation churn cheap for attackers.
  bool reconnect_backoff = false;
  bsim::SimTime reconnect_backoff_cap = 60 * bsim::kSecond;
  /// Hard cap on tracked backoff endpoints (same LRU treatment as
  /// MisbehaviorTracker::SetMaxEntries): when a churning dialer pushes the
  /// map past this, the entry with the earliest redial time is evicted, so
  /// per-address backoff state cannot grow without bound. 0 = unbounded.
  std::size_t dial_backoff_max_entries = 65536;

  // ---- Overload resilience (beyond-paper; defaults keep every paper bench
  // on the stock 0.20.0 path — see README "Overload resilience") ----
  /// Inbound eviction: when every inbound slot is taken, run the Core-style
  /// eviction logic (core/eviction.hpp) and disconnect the loser to admit
  /// the newcomer. Off = the stock flat refusal, which lets a Sybil flood
  /// that fills the slots first lock honest newcomers out.
  bool enable_eviction = false;
  /// Per-peer token buckets over rx bytes/sec (2 MiB/s, 8 MiB burst) and
  /// costmodel-weighted cycles per second. A frame that would overdraw either
  /// bucket is shed, charging the modelled CPU kRateLimitDropCycles instead
  /// of its checksum cost.
  bool enable_rate_limit = false;
  double rx_cycles_per_sec = 5.0e7;
  double rx_cycles_burst = 2.0e8;
  /// Global CPU-budget governor over all peers' receive processing, in model
  /// cycles/sec (0 = no governor). Low-priority peers cannot draw the bucket
  /// below a fixed reserve of its burst capacity, so when the budget is
  /// exhausted the lowest-priority work is shed first.
  double governor_cycles_per_sec = 0.0;
  double governor_burst_cycles = 0.0;  // 0 = one second of budget
  /// Priority-aware rx processing: peers flagged by the detect engine
  /// (FlagPeer) or that keep sending droppable frames drain at low priority
  /// — their bucket/governor costs scale up and the governor sheds them
  /// first. Peers with good-score credit (valid blocks delivered, §VIII)
  /// drain at high priority.
  bool enable_priority = false;

  // ---- Crash-consistent state store (beyond-paper; off by default so the
  // legacy volatile paths — and the fig6/fig8 benches over them — stay
  // bit-identical) ----
  /// Persist BanMan / MisbehaviorTracker / AddrMan / the detect baseline in
  /// a WAL + atomic-snapshot store (src/store) and replay it at startup.
  bool enable_durable_store = false;
  /// Store directory. Empty = "bsnode-store-<ip>" under the working
  /// directory (tests always set it explicitly).
  std::string store_dir;
  /// Filesystem backend; null = the real POSIX filesystem. Tests inject a
  /// bsim::SimFs here to exercise crash points. Not owned.
  bsstore::StoreFs* store_fs = nullptr;

  // ---- Eclipse resilience (beyond-paper; every switch defaults off so the
  // stock node — and the fig6/fig8 benches over it — stays bit-identical.
  // See README "Eclipse resilience") ----
  /// Core-style tried/new bucketed AddrMan (AddrMan::EnableBucketing):
  /// netgroup-quota placement caps how much of the candidate table one /16
  /// can ever own, Good()/Attempt() track which addresses actually work.
  bool enable_addrman_bucketing = false;
  /// Remember the last two outbound peers that delivered a valid block and
  /// re-dial them first after a restart (persisted through the durable
  /// store, so this wants enable_durable_store for crash survival).
  bool enable_anchors = false;
  /// Periodic short-lived probe connections to `new`-table addresses: a
  /// completed handshake promotes the address to tried, then the connection
  /// closes. Feelers verify the table faster than organic dial churn, which
  /// is what lets a poisoned table wash out.
  bool enable_feelers = false;
  bsim::SimTime feeler_interval = 15 * bsim::kSecond;
  bsim::SimTime feeler_timeout = 5 * bsim::kSecond;
  /// At most one outbound slot per /16 netgroup, so even a fully poisoned
  /// address table cannot converge every outbound onto attacker infrastructure.
  bool enable_outbound_diversity = false;
  /// No tip advance for `stale_tip_timeout` → open one extra
  /// diversity-constrained outbound; when the tip moves again, drop the
  /// worst existing outbound (oldest peer that never delivered a block) if
  /// the extra slot is what helped.
  bool enable_stale_tip_recovery = false;
  bsim::SimTime stale_tip_timeout = 60 * bsim::kSecond;

  // ---- Partition resilience (beyond-paper; off by default so the stock
  // node — and the fig6/fig8 benches over it — stays bit-identical. See
  // README "Partition resilience") ----
  /// Master switch: run the PartitionMonitor (core/partition.hpp), exchange
  /// gossip tip-probes, walk the graduated recovery ladder when the fused
  /// partition-suspicion score stays high, and damp misbehavior while it is
  /// high: stale-block / disordered-header penalties against peers holding
  /// good-score credit are deferred instead of scored — an honest peer on
  /// the far side of a routing cut relays exactly that traffic, and banning
  /// it would turn a transient partition into a permanent eclipse.
  bool enable_partition_resilience = false;
  /// Send a tip-probe round (kTipProbe to two randomly sampled
  /// handshake-complete peers) this often.
  bsim::SimTime partition_probe_interval = 5 * bsim::kSecond;
  /// PartitionMonitor clock (copied into PartitionParams at construction):
  /// the inter-block prior before any arrival is seen, and the time at
  /// sustained high suspicion before each successive ladder stage.
  bsim::SimTime partition_expected_block_interval = 3 * bsim::kSecond;
  bsim::SimTime partition_ladder_step = 5 * bsim::kSecond;

  bschain::ChainParams chain;
  bool relay = true;  // announce accepted blocks/txs to peers

  /// Ablation flag: when false, the misbehavior check runs before the
  /// checksum verification, closing the bogus-payload loophole (used by
  /// bench_ablation_countermeasures to show why the vector exists).
  bool checksum_before_misbehavior = true;

  std::uint64_t rng_seed = 42;

  /// Observability. By default each node owns a private MetricsRegistry so
  /// per-node stats stay independent; experiments that want one scrapeable
  /// registry inject a shared one here (the node does not take ownership).
  bsobs::MetricsRegistry* metrics = nullptr;
  /// Capacity of the node's own event ring, used when no span_tracer is
  /// attached (0 records nothing).
  std::size_t trace_capacity = 1024;
  /// Causal span tracer (obs/span.hpp), usually one shared by every node in
  /// the simulation so cross-node chains land in one log; the node then
  /// writes its events there instead of to a ring of its own. Null (the
  /// default): the records carry no ids and nothing is registered per
  /// frame. Not owned.
  bsobs::SpanTracer* span_tracer = nullptr;
  /// Hot-path profiler (obs/profiler.hpp) timing codec decode, frame
  /// processing, tracker updates, and AddrMan select: the node's only clock
  /// reads per frame. Null (the default) disables profiling at the same
  /// one-pointer-test cost. Not owned.
  bsobs::HotpathProfiler* profiler = nullptr;
};

/// Connection-level peer state.
struct Peer {
  std::uint64_t id = 0;
  Endpoint remote;
  bool inbound = false;
  /// Short-lived probe session (does not fill an outbound slot): the
  /// handshake is the whole point, the connection closes right after.
  bool feeler = false;
  TransportConn* conn = nullptr;  // null once marked for disconnect
  bool disconnect = false;  // marked: hidden from peer queries, freed at turn end

  // Handshake state machine.
  bool got_version = false;
  bool got_verack = false;
  bool sent_version = false;
  std::int32_t peer_protocol_version = 0;

  // HEADERS disorder bookkeeping (Core's nUnconnectingHeaders).
  int unconnecting_headers = 0;

  // BIP-37 SPV filtering: when loaded, tx relay and filtered-block serving
  // go through the filter.
  bool filter_loaded = false;
  std::optional<bsproto::BloomFilter> filter;

  // Stats.
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_bad_checksum = 0;
  std::uint64_t frames_unknown_command = 0;
  std::uint64_t frames_malformed = 0;

  // Liveness bookkeeping (keepalive / inactivity handling).
  bsim::SimTime last_recv_time = 0;
  bsim::SimTime last_ping_sent = 0;
  std::uint64_t outstanding_ping_nonce = 0;  // 0 == none outstanding
  bsim::SimTime last_pong_rtt = -1;          // -1 == never measured

  // Overload-resilience bookkeeping (core/eviction.hpp, core/ratelimit.hpp).
  bsim::SimTime connected_at = 0;
  bsim::SimTime min_ping_rtt = -1;    // -1 == never measured
  bsim::SimTime last_block_time = 0;  // last valid block delivered
  bsim::SimTime last_tx_time = 0;     // last valid (novel) tx delivered
  /// Last time the partition-damping path asked this peer for headers
  /// (divergence sync); rate-limits the getheaders per peer. 0 == never.
  bsim::SimTime last_divergence_sync = 0;
  bool detect_flagged = false;        // demoted via Node::FlagPeer
  TokenBucket rx_bytes_bucket;        // live when enable_rate_limit
  TokenBucket rx_cost_bucket;

  /// Wire-stream reassembly, bounded by the node (Node::RegisterPeer). Its
  /// StreamPosition() is the receive-side stream offset span matching
  /// (obs/span.hpp) claims frames at.
  bsproto::StreamDecoder rx{0};
  /// Total bytes this node has written to the connection: the send-side
  /// stream offset for span matching. Maintained unconditionally; only
  /// consulted when a SpanTracer is attached.
  std::uint64_t tx_stream_offset = 0;

  bool HandshakeComplete() const { return got_version && got_verack; }
};

class Node {
 public:
  /// Simulator-backed node (the historical constructor): builds and owns a
  /// SimTransport attached to `net` at `ip`.
  Node(bsim::Scheduler& sched, bsim::Network& net, std::uint32_t ip, NodeConfig config,
       bsim::CpuModel* cpu = nullptr);
  /// Node over a caller-owned transport (real sockets, a test double, or a
  /// shared SimTransport). `transport` must outlive the node.
  Node(bsim::Scheduler& sched, Transport& transport, NodeConfig config,
       bsim::CpuModel* cpu = nullptr);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Begin listening and start the outbound-maintenance loop.
  void Start();

  /// Simulated crash: stop listening and maintenance, destroy every peer and
  /// connection silently (no FIN/RST — sudden silence on the wire), and
  /// detach from the network so a replacement Node can attach on the same
  /// IP. The object must stay alive until pending scheduler events drain;
  /// the chaos harness keeps crashed nodes allocated until the run ends.
  void Stop();

  /// Graceful shutdown (the daemon's SIGTERM path): stop listening and
  /// maintenance, close every peer politely, persist anchors, and flush the
  /// durable store so the WAL replays cleanly on the next start.
  void Shutdown();

  const NodeConfig& Config() const { return config_; }
  std::uint32_t Ip() const { return ip_; }
  bsim::Scheduler& Sched() const { return sched_; }

  // ---- Chain / pool / tracking state ----
  bschain::ChainState& Chain() { return chain_; }
  bschain::Mempool& Pool() { return mempool_; }
  BanMan& Bans() { return banman_; }
  MisbehaviorTracker& Tracker() { return tracker_; }
  AddrMan& Addrs() { return addrman_; }
  /// The durable-store bridge, or null when enable_durable_store is off (or
  /// the store failed to open and the node fell back to volatile state).
  DurableNodeState* Durable() { return durable_.get(); }

  // ---- Observability ----
  /// The metrics registry backing this node's counters (owned unless
  /// NodeConfig.metrics injected a shared one).
  bsobs::MetricsRegistry& Metrics() { return *metrics_; }
  const bsobs::MetricsRegistry& Metrics() const { return *metrics_; }
  /// The bounded ring this node writes its events to (frames, sends,
  /// misbehavior, bans, connections, ...): the attached SpanTracer's log,
  /// shared with every other node on it (filter by node_ip), or its own.
  bsobs::SpanLog& Trace() { return *log_; }
  const bsobs::SpanLog& Trace() const { return *log_; }

  // ---- Connections ----
  /// Seed the address table (the config-file peers of the paper's testbed).
  void AddKnownAddress(const Endpoint& addr) { addrman_.Add(addr); }
  /// Open an outbound connection now (returns false if banned/at capacity).
  /// `feeler` marks a short-lived probe session.
  bool ConnectTo(const Endpoint& remote, bool feeler = false);

  std::size_t InboundCount() const;
  /// Full outbound slots (feeler probes excluded).
  std::size_t OutboundCount() const;
  /// Peer queries see only live peers, never ones marked for disconnect.
  std::vector<const Peer*> Peers() const;
  Peer* FindPeerByRemote(const Endpoint& remote);
  const Peer* FindPeerById(std::uint64_t id) const;
  /// Disconnect (RST) a peer; does not ban. The Peer is freed at the end of
  /// the current turn (immediately when called from outside one).
  void DisconnectPeer(std::uint64_t id);
  /// Detection response: drop every connection and rebuild outbound slots.
  void DropAndRebuildConnections();

  // ---- Overload resilience ----
  /// Detect-engine hook: pin a peer to low rx priority (true) or clear the
  /// flag. No-op for unknown ids; the flag dies with the connection.
  void FlagPeer(std::uint64_t id, bool low_priority);
  /// The priority a peer's frames currently drain at (kNormal whenever
  /// enable_priority is off).
  PeerPriority PriorityOf(const Peer& peer) const;

  // ---- Sending ----
  /// Send to the first handshake-complete peer whose remote IP is `ip`
  /// (workload generators address counterpart nodes this way). Returns false
  /// when no such session exists.
  bool SendToRemoteIp(std::uint32_t ip, const bsproto::Message& msg);
  /// Mine one block on the current tip and relay it (regtest-grade PoW).
  std::optional<bschain::Block> MineAndRelay();

  // ---- Observation hooks (detection engine, experiments) ----
  std::function<void(const Peer&, bsproto::MsgType, std::size_t)> on_message;
  /// Every complete wire frame, including ones dropped before processing
  /// (bad checksum, unknown command, malformed). The byte-level detection
  /// feature needs this: a bogus-BLOCK flood never registers as a *message*
  /// but its frames and bytes are visible here.
  std::function<void(std::size_t frame_bytes, bsproto::DecodeStatus)> on_frame;
  std::function<void(const Peer&, Misbehavior, const MisbehaviorOutcome&)> on_misbehavior;
  std::function<void(const Peer&)> on_peer_banned;
  /// Fired just before an inbound peer is evicted to admit a newcomer.
  std::function<void(const Peer&)> on_peer_evicted;
  std::function<void(const Endpoint&)> on_outbound_reconnect;

  // ---- Aggregate stats ----
  // Thin wrappers over the registry-backed metrics: the historical getter API
  // survives while the registry becomes the single source of truth.
  std::uint64_t TotalMessagesReceived() const { return m_messages_total_->Value(); }
  const std::map<bsproto::MsgType, std::uint64_t>& MessageCounts() const {
    return message_counts_;
  }
  std::uint64_t OutboundReconnects() const { return m_reconnects_->Value(); }
  std::uint64_t FramesDroppedBadChecksum() const {
    return m_frames_bad_checksum_->Value();
  }
  std::uint64_t FramesIgnoredUnknownCommand() const {
    return m_frames_unknown_->Value();
  }
  std::uint64_t PeersBanned() const { return m_peers_banned_->Value(); }
  std::uint64_t IcmpPacketsReceived() const { return m_icmp_packets_->Value(); }
  std::uint64_t RxBytesShed() const { return m_rx_shed_bytes_->Value(); }
  std::uint64_t HandshakeTimeouts() const { return m_handshake_timeouts_->Value(); }
  std::uint64_t DeadPeerDisconnects() const {
    return m_dead_peer_disconnects_->Value();
  }
  std::uint64_t OutboundDialFailures() const { return m_dial_failures_->Value(); }
  std::uint64_t PeersEvicted() const { return m_evictions_->Value(); }
  std::uint64_t InboundFullRejects() const {
    return m_inbound_full_rejects_->Value();
  }
  std::uint64_t RateLimitedFrames() const {
    return m_ratelimit_frames_->Value();
  }
  std::uint64_t GovernorShedFrames() const {
    return m_governor_shed_frames_->Value();
  }
  std::uint64_t FeelerAttempts() const { return m_feeler_attempts_->Value(); }
  std::uint64_t FeelerPromotions() const { return m_feeler_promotions_->Value(); }
  std::uint64_t AnchorRedials() const { return m_anchor_redials_->Value(); }
  std::uint64_t StaleTipEvents() const { return m_stale_tip_events_->Value(); }
  std::uint64_t TipProbesSent() const { return m_partition_probes_sent_->Value(); }
  std::uint64_t TipProbeReplies() const {
    return m_partition_probe_replies_->Value();
  }
  std::uint64_t PartitionSuspectWindows() const {
    return m_partition_suspect_windows_->Value();
  }
  std::uint64_t PartitionRecoveries() const {
    return m_partition_recoveries_->Value();
  }
  std::uint64_t PartitionRecoveryActions() const {
    return m_partition_recovery_actions_->Value();
  }
  std::uint64_t DeferredPenalties() const {
    return m_partition_deferred_penalties_->Value();
  }
  /// The partition monitor's fused suspicion score as of the last
  /// maintenance tick (0 when partition resilience is off).
  double PartitionSuspicion() const { return partition_.Suspicion(); }
  const PartitionMonitor& Partition() const { return partition_; }
  /// Current anchor set, most recently useful first (empty unless
  /// enable_anchors).
  const std::vector<Endpoint>& Anchors() const { return anchors_; }

  /// ICMP flood accounting; wired to SimTransport's out-of-band sinks (real
  /// sockets never deliver ICMP to userspace, so RealTransport has none).
  void OnIcmp(const bsim::IcmpPacket& pkt);
  void OnIcmpBatch(const bsim::IcmpPacket& pkt, std::uint64_t count);

  // ---- Reconnect-backoff introspection (regression tests) ----
  std::size_t DialBackoffEntries() const { return dial_backoff_.size(); }
  std::uint64_t DialBackoffPruned() const { return dial_backoff_pruned_; }

 private:
  /// Both public constructors delegate here; exactly one of `owned` /
  /// `external` is set.
  Node(bsim::Scheduler& sched, std::unique_ptr<Transport> owned,
       Transport* external, NodeConfig config, bsim::CpuModel* cpu);

  // ---- Peer lifetime ----
  // A disconnect only marks the Peer; EndTurn frees it once the outermost
  // TurnScope exits. Every entry point into the node (transport callbacks,
  // scheduler timers, public mutators) opens a TurnScope, so no Peer& held
  // anywhere on the stack can dangle.
  struct TurnScope {
    explicit TurnScope(Node& n) : node(n) { ++node.turn_depth_; }
    TurnScope(const TurnScope&) = delete;
    ~TurnScope() { if (--node.turn_depth_ == 0) node.EndTurn(); }
    Node& node;
  };
  void EndTurn();
  /// A disconnect minus the free: slot/backoff accounting, tracker and
  /// partition state, the trace record. `reset`: the node initiated it
  /// (detach the callbacks, then RST); false: the transport reported it.
  void MarkDisconnect(Peer& peer, bool reset);
  /// Unmarked peers in peers_ order (defined in node.cpp), and by id.
  auto LivePeers() const;
  Peer* LivePeer(std::uint64_t id) const;

  void AcceptInbound(TransportConn& conn);
  Peer& RegisterPeer(TransportConn& conn, bool inbound, bool feeler = false);
  void MaintainOutbound();
  /// Stop()/Shutdown() common part; `close` FINs each connection.
  void DropAllPeers(bool close);

  // ---- Eclipse-resilience maintenance (all gated on their config switches) ----
  /// Track tip progress; flag a stale tip (extra outbound wanted) and, when
  /// the tip advances with the extra slot active, trim the worst peer.
  void MaintainStaleTip(bsim::SimTime now);
  /// Launch one feeler probe per feeler_interval against a `new`-table entry.
  void MaintainFeeler(bsim::SimTime now);
  /// Dial a feeler probe to `remote` and arm its timeout.
  bool LaunchFeeler(const Endpoint& remote);

  // ---- Partition-resilience maintenance (gated on
  // enable_partition_resilience) ----
  /// Per-tick driver: feed the PartitionMonitor (diversity census, tip
  /// advances), send scheduled tip-probe rounds, and execute newly reached
  /// recovery-ladder stages.
  void MaintainPartition(bsim::SimTime now);
  /// Send one tip-probe round to a few sampled peers.
  void SendTipProbes(bsim::SimTime now);
  /// Our current tip as a probe payload (`nonce` echoed by the responder).
  bsproto::TipProbeMsg MakeTipProbe(std::uint64_t nonce) const;
  /// Execute the ladder stage the monitor just escalated to.
  void RunPartitionStage(PartitionMonitor::Stage stage, bsim::SimTime now);
  /// Open a short-lived probe toward an address in an unrepresented
  /// netgroup (the feeler-burst stage). False when no candidate exists.
  bool LaunchTargetedFeeler();
  void HandleTipProbe(Peer& peer, const bsproto::TipProbeMsg& msg);
  /// Outbound handshake just completed: clear backoff, mark the address
  /// Good(). For a feeler the probe is finished — count the promotion and
  /// close the session.
  void OnOutboundHandshakeComplete(Peer& peer);
  /// True when an outbound slot (live or dialing, feelers excluded) already
  /// belongs to `group` — the netgroup-uniqueness constraint.
  bool OutboundGroupTaken(std::uint32_t group) const;
  /// Peer `remote` proved useful (delivered a valid block): move it to the
  /// front of the anchor list and persist the list.
  void UpdateAnchors(const Endpoint& remote);
  /// Drop the oldest handshake-complete outbound peer that never delivered a
  /// block (only while outbound is above target — the stale-tip trim).
  void EvictWorstOutboundPeer();

  /// Evict one inbound peer per the core/eviction.hpp protection rules to
  /// free a slot. False when every candidate is protected.
  bool EvictInboundPeer();
  /// True when `group` already holds strictly more inbound slots than any
  /// other netgroup — such a group is refused further eviction-backed
  /// admissions (anti-churn guard).
  bool NewcomerGroupHoldsPlurality(std::uint32_t group) const;
  /// Rate-limit/governor gate for one complete frame. True = process it;
  /// false = it was shed (metrics, trace, and the drop cost are recorded
  /// here). Always true when neither limiter is configured. It runs before
  /// the modelled CPU is charged for the checksum, but after the decoder
  /// has hashed the payload for real.
  bool AdmitFrame(Peer& peer, const bsproto::DecodeResult& frame,
                  std::size_t frame_bytes);

  // ---- Outbound-reconnect backoff bookkeeping ----
  /// Record a failed/lost outbound session toward `remote` and schedule its
  /// earliest redial time.
  void NoteOutboundFailure(const Endpoint& remote);
  /// Delay before the next dial after `failures` consecutive failures.
  bsim::SimTime RetryDelay(int failures);
  /// False while an endpoint is inside its backoff window (only consulted
  /// when reconnect_backoff is enabled; the stock node ignores it).
  bool DialAllowed(const Endpoint& remote, bsim::SimTime now) const;

  void OnData(std::uint64_t peer_id, bsutil::ByteSpan data);
  /// `stream_offset` is the app-stream position of the frame's first byte
  /// (Peer::rx's StreamPosition() before the frame), used to claim the
  /// sender's span registration when tracing is on.
  void ProcessFrame(Peer& peer, const bsproto::DecodeResult& frame,
                    std::uint64_t stream_offset);
  void ProcessMessage(Peer& peer, const bsproto::Message& msg);

  /// Write one record, stamped now, to the node's ring: the one place the
  /// node records an event. With a tracer attached, a causal kind opens a
  /// span under `parent` (a new trace when `parent` is invalid) and returns
  /// it; node events, and every record with no tracer, carry id 0.
  bsobs::TraceContext RecordSpan(bsobs::SpanKind kind, std::uint64_t peer_id,
                                 std::int64_t a, std::int64_t b,
                                 const bsobs::TraceContext& parent = {},
                                 std::uint8_t flags = 0, std::int16_t msg_type = -1);

  /// Apply a misbehavior; bans and disconnects on threshold per policy.
  void ApplyMisbehavior(Peer& peer, Misbehavior what);

  // Per-type handlers.
  void HandleVersion(Peer& peer, const bsproto::VersionMsg& msg);
  void HandleVerack(Peer& peer);
  void HandleAddr(Peer& peer, const bsproto::AddrMsg& msg);
  void HandleInv(Peer& peer, const bsproto::InvMsg& msg);
  void HandleGetData(Peer& peer, const bsproto::GetDataMsg& msg);
  void HandleGetHeaders(Peer& peer, const bsproto::GetHeadersMsg& msg);
  void HandleHeaders(Peer& peer, const bsproto::HeadersMsg& msg);
  void HandleTx(Peer& peer, const bsproto::TxMsg& msg);
  void HandleBlock(Peer& peer, const bsproto::BlockMsg& msg);
  void HandleCmpctBlock(Peer& peer, const bsproto::CmpctBlockMsg& msg);
  void HandleGetBlockTxn(Peer& peer, const bsproto::GetBlockTxnMsg& msg);
  void HandleBlockTxn(Peer& peer, const bsproto::BlockTxnMsg& msg);
  void HandleFilterLoad(Peer& peer, const bsproto::FilterLoadMsg& msg);
  void HandleFilterAdd(Peer& peer, const bsproto::FilterAddMsg& msg);
  void HandleGetAddr(Peer& peer);
  void HandleMempool(Peer& peer);
  void HandleGetBlocks(Peer& peer, const bsproto::GetBlocksMsg& msg);

  void AcceptBlockFrom(Peer& peer, const bschain::Block& block);
  void RelayInv(bsproto::InvType type, const bscrypto::Hash256& hash,
                std::uint64_t except_peer);
  bsproto::VersionMsg MakeVersionMsg(const Peer& peer);
  void SendTo(Peer& peer, const bsproto::Message& msg);

  bsim::Scheduler& sched_;
  std::unique_ptr<Transport> owned_transport_;  // null when injected
  Transport* transport_ = nullptr;              // never null after ctor
  std::uint32_t ip_ = 0;
  NodeConfig config_;
  bsim::CpuModel* cpu_;  // optional; shared with the experiment harness
  bsutil::Rng rng_;

  bschain::ChainState chain_;
  bschain::Mempool mempool_;
  BanMan banman_;
  MisbehaviorTracker tracker_;
  AddrMan addrman_;
  std::unique_ptr<DurableNodeState> durable_;  // null unless enable_durable_store

  std::uint64_t next_peer_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Peer>> peers_;
  /// Ids marked for disconnect this turn; EndTurn erases them from peers_.
  std::vector<std::uint64_t> reap_;
  int turn_depth_ = 0;
  std::unordered_map<std::uint64_t, bsproto::CmpctBlockMsg> pending_compact_;
  /// Endpoints with an outbound connection open or being opened (prevents
  /// duplicate dials while a handshake is in flight).
  std::unordered_set<Endpoint, bsproto::EndpointHasher> outbound_targets_;
  /// Consecutive-failure count and earliest-redial time per endpoint
  /// (cleared when a handshake completes).
  struct DialBackoff {
    int failures = 0;
    bsim::SimTime next_attempt = 0;
  };
  std::unordered_map<Endpoint, DialBackoff, bsproto::EndpointHasher> dial_backoff_;
  std::uint64_t dial_backoff_pruned_ = 0;
  std::optional<CpuBudgetGovernor> governor_;
  int pending_outbound_ = 0;
  int pending_feeler_ = 0;  // subset of pending_outbound_ that are probes
  std::uint64_t mining_extra_nonce_ = 0;
  bool initial_outbound_fill_done_ = false;
  bool maintenance_running_ = false;

  // ---- Eclipse-resilience state ----
  /// Anchors restored from the durable store, drained front-first by the
  /// next maintenance ticks (re-dialed before any Select draw).
  std::vector<Endpoint> anchor_targets_;
  /// Live anchor list, most recently useful first (mirrors the durable set).
  std::vector<Endpoint> anchors_;
  /// Feeler sessions among outbound_targets_ (excluded from slot accounting).
  std::unordered_set<Endpoint, bsproto::EndpointHasher> feeler_targets_;
  bsim::SimTime last_feeler_time_ = 0;
  int tip_height_seen_ = 0;
  bsim::SimTime last_tip_advance_ = 0;
  bool stale_tip_extra_active_ = false;

  // ---- Partition-resilience state ----
  PartitionMonitor partition_;
  bsim::SimTime last_partition_probe_ = 0;
  /// Nonces of tip-probes we sent whose reply is still outstanding (a
  /// received kTipProbe carrying one of these is a reply, not a request).
  std::unordered_set<std::uint64_t> partition_probe_nonces_;
  /// Highest ladder stage already executed in the current high-suspicion
  /// window (stages run once; kRotate re-arms every ladder_step).
  PartitionMonitor::Stage partition_stage_done_ = PartitionMonitor::Stage::kNone;
  bsim::SimTime last_partition_rotate_ = 0;
  bool partition_extra_active_ = false;

  std::map<bsproto::MsgType, std::uint64_t> message_counts_;

  // ---- Observability state ----
  std::unique_ptr<bsobs::MetricsRegistry> owned_metrics_;  // null when injected
  bsobs::MetricsRegistry* metrics_ = nullptr;              // never null after ctor
  bsobs::SpanTracer* tracer_ = nullptr;      // null = no span ids
  std::unique_ptr<bsobs::SpanLog> owned_log_;  // null when tracer_ is set
  bsobs::SpanLog* log_ = nullptr;              // never null after ctor
  bsobs::HotpathProfiler* profiler_ = nullptr;  // null = profiling off
  /// The receive span currently being processed (valid only inside
  /// ProcessFrame); sends and misbehavior triggered by a frame's handler
  /// become its children, which is what stitches the causal chain together.
  bsobs::TraceContext rx_ctx_{};

  // Pre-resolved handles: the hot path is a single relaxed atomic op.
  bsobs::Counter* m_messages_total_ = nullptr;
  bsobs::Counter* m_rx_bytes_total_ = nullptr;
  bsobs::Counter* m_frames_bad_checksum_ = nullptr;
  bsobs::Counter* m_frames_unknown_ = nullptr;
  bsobs::Counter* m_frames_malformed_ = nullptr;
  bsobs::Counter* m_codec_oversize_ = nullptr;
  bsobs::Counter* m_peers_banned_ = nullptr;
  bsobs::Counter* m_reconnects_ = nullptr;
  bsobs::Counter* m_icmp_packets_ = nullptr;
  bsobs::Counter* m_rx_shed_bytes_ = nullptr;
  bsobs::Counter* m_handshake_timeouts_ = nullptr;
  bsobs::Counter* m_dead_peer_disconnects_ = nullptr;
  bsobs::Counter* m_dial_failures_ = nullptr;
  bsobs::Counter* m_evictions_ = nullptr;
  bsobs::Counter* m_inbound_full_rejects_ = nullptr;
  bsobs::Counter* m_ratelimit_frames_ = nullptr;
  bsobs::Counter* m_ratelimit_bytes_ = nullptr;
  bsobs::Counter* m_governor_shed_frames_ = nullptr;
  bsobs::Counter* m_feeler_attempts_ = nullptr;
  bsobs::Counter* m_feeler_promotions_ = nullptr;
  bsobs::Counter* m_anchor_redials_ = nullptr;
  bsobs::Counter* m_stale_tip_events_ = nullptr;
  bsobs::Counter* m_partition_probes_sent_ = nullptr;
  bsobs::Counter* m_partition_probe_replies_ = nullptr;
  bsobs::Counter* m_partition_suspect_windows_ = nullptr;
  bsobs::Counter* m_partition_recoveries_ = nullptr;
  bsobs::Counter* m_partition_recovery_actions_ = nullptr;
  bsobs::Counter* m_partition_deferred_penalties_ = nullptr;
  bsobs::Gauge* m_partition_suspicion_ = nullptr;
  std::array<bsobs::Counter*, bsproto::kNumMsgTypes> m_msg_type_{};
  bsobs::Histogram* m_frame_bytes_ = nullptr;
  bsobs::Gauge* m_peers_gauge_ = nullptr;
};

}  // namespace bsnet
