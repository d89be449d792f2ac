// bsobs — the node event ring and causal message tracing.
//
// Every node writes what happens to it (frames received, sent and dropped,
// misbehavior points, bans, connections, ...) once, as a SpanRecord, into a
// bounded SpanLog: its own, or the log of an attached SpanTracer that every
// node in a simulation shares. The tracer adds a lightweight trace context
// (trace_id + span_id) stamped onto every simulated frame at send time and
// matched back to the frame when the receiving node decodes it, so the full
// cross-node lineage of an incident — attacker INV → victim misbehavior
// point → ban — is reconstructible from that one log after the run.
//
// Design rules:
//   * Zero wire impact. The trace context never touches the byte stream; the
//     wire stays bit-identical whether tracing is on or off. Frames are
//     matched out-of-band by their position in the TCP application stream
//     (the sender registers [offset, offset+len) per frame, the receiver
//     claims the entry covering the offset its decoder reached). Reliable
//     TCP delivers an exact in-order byte stream even under loss/dup/reorder
//     fault plans, so the match survives network weather.
//   * Spoofed injection is visible, not fatal. A frame injected into a
//     stream by a third party (the Defamation vector) has no registered
//     sender entry at that offset: the attacker registers it as a *foreign*
//     frame, the receiver matches it by length (kFlagResync), and honest
//     traffic that mismatches everything surfaces as an orphan span
//     (kFlagOrphan) — exactly the forensic signal a defamation
//     investigation needs.
//   * Bounded memory. The SpanLog is a wraparound ring; pending per-stream
//     frame registrations are capped per connection with drop-oldest.
//   * Ids are optional. A node with no SpanTracer attached records the same
//     events with id 0 and registers nothing per frame.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace bsobs {

/// The causal identity a frame carries (out of band). trace_id groups one
/// causal chain; span_id names one hop. trace_id 0 = "no context".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool Valid() const { return trace_id != 0; }
};

/// What a record says happened. kSend through kBan are causal spans: with a
/// tracer attached they carry trace/span ids and name their parent. The
/// kinds after kBan are node events outside any chain and always carry id 0.
enum class SpanKind : std::uint8_t {
  kSend = 0,     // a node put a frame on its own stream     a = frame bytes
  kInject,       // an attacker spoofed a frame into a
                 // stream that is not its own               a = frame bytes, b = spoofed ip
  kReceive,      // a frame decoded intact                   a = decode status (kOk), b = bytes
  kDrop,         // a frame failed decode                    a = decode status, b = bytes
  kShed,         // rate limit or governor shed a frame      a = frame bytes, b = 1 when the governor shed it
  kMisbehavior,  // a misbehavior point landed               a = score delta, b = total
  kBan,          // the threshold banned/discouraged a peer  a = peer ip, b = total score
  kConnected,           // a = peer ip, b = 1 when inbound
  kDisconnected,        // a = peer ip, b = 1 when inbound
  kReconnect,           // a = dialed ip, b = port
  kRxShed,              // a = bytes shed from a peer's receive buffer
  kEvicted,             // a = evicted peer's ip, b = its /16 netgroup
  kFeeler,              // a = probed ip, b = port
  kAnchor,              // a = anchor ip, b = port
  kStaleTip,            // a = stalled tip height
  kPartitionProbe,      // a = remote tip height, b = our tip height
  kPartitionSuspected,  // a = suspicion ×1000, b = ladder stage
  kPartitionRecovered,  // b = last ladder stage reached
  kPenaltyDeferred,     // a = misbehavior id, b = peer good score
};

/// True for the kinds that take part in causal chains (kSend..kBan).
constexpr bool IsCausal(SpanKind kind) { return kind <= SpanKind::kBan; }

const char* ToString(SpanKind kind);

/// Span record flags.
constexpr std::uint8_t kFlagOrphan = 1;       // no matching send entry found
constexpr std::uint8_t kFlagResync = 2;       // matched by length, not offset
constexpr std::uint8_t kFlagDiscouraged = 4;  // kBan used discouragement

/// One fixed-size record. `parent_span` is 0 at a trace root; all three ids
/// are 0 on node events and on records written with no tracer attached.
/// `node_ip` is the node that wrote it (with a tracer, every node in the sim
/// writes to one log, which is what makes cross-node chains walkable).
/// `peer_id` is 0 for node-global events.
struct SpanRecord {
  bsim::SimTime time = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  SpanKind kind = SpanKind::kSend;
  std::uint8_t flags = 0;
  std::int16_t msg_type = -1;  // bsproto::MsgType when known, -1 otherwise
  std::uint32_t node_ip = 0;
  std::uint64_t peer_id = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Bounded wraparound ring of SpanRecords: when full, the oldest record is
/// overwritten and counted as dropped, so a flooded node keeps the newest
/// window at fixed memory cost. Capacity 0 keeps nothing. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 16384);

  void Record(const SpanRecord& rec);

  std::size_t Capacity() const { return capacity_; }
  std::size_t Size() const;
  std::uint64_t Recorded() const;
  std::uint64_t Dropped() const;

  /// Retained records, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  void Clear();

  /// Human-readable dump of the retained records (one line each), the newest
  /// `max_records` when the ring holds more.
  std::string Render(std::size_t max_records = 32) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;        // write cursor once the ring is full
  std::uint64_t recorded_ = 0;  // total ever
};

/// One TCP application stream, as named by its *sender*: (src, dst) with
/// each endpoint packed as (ip << 16) | port. bsobs deliberately does not
/// depend on bsproto; callers pack their endpoints.
struct SpanStreamKey {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;

  bool operator==(const SpanStreamKey&) const = default;
};

inline std::uint64_t PackEndpoint(std::uint32_t ip, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip) << 16) | port;
}

struct SpanStreamKeyHasher {
  std::size_t operator()(const SpanStreamKey& k) const {
    return std::hash<std::uint64_t>{}(k.src * 1000003 ^ k.dst);
  }
};

/// What ClaimFrame matched.
struct SpanClaim {
  TraceContext ctx;        // invalid when no entry matched (orphan frame)
  bool resync = false;     // matched by length after an offset skew
  std::uint64_t lost = 0;  // entries wholly before the claim, dropped as lost
};

/// The sim-wide tracer: allocates trace/span ids, owns the SpanLog, and
/// keeps the per-stream registry of in-flight frame→context mappings.
/// One tracer serves every node in a simulation. Thread-safe.
class SpanTracer {
 public:
  explicit SpanTracer(std::size_t log_capacity = 16384);

  /// Start a new causal chain (fresh trace_id, root span_id).
  TraceContext Begin();
  /// A new span in the same trace (the caller records `parent.span_id` as
  /// the new record's parent_span).
  TraceContext Child(const TraceContext& parent);

  /// Sender side: the frame occupying [offset, offset+len) of `stream`
  /// carries `ctx`.
  void NoteFrameSent(const SpanStreamKey& stream, std::uint64_t offset,
                     std::uint32_t len, const TraceContext& ctx);
  /// Injector side: a spoofed frame of `len` bytes was pushed into `stream`
  /// at an app-stream offset the injector cannot know. Matched by length.
  void NoteForeignFrame(const SpanStreamKey& stream, std::uint32_t len,
                        const TraceContext& ctx);
  /// Receiver side: the decoder produced a frame of `len` bytes starting at
  /// app-stream `offset`. Consumes the matched entry.
  SpanClaim ClaimFrame(const SpanStreamKey& stream, std::uint64_t offset,
                       std::uint32_t len);

  SpanLog& Log() { return log_; }
  const SpanLog& Log() const { return log_; }

  /// Pending (sent, unclaimed) frame registrations across all streams.
  std::size_t PendingFrames() const;
  /// Registrations evicted by the per-stream cap or dropped as lost.
  std::uint64_t PendingDropped() const;

 private:
  struct PendingFrame {
    std::uint64_t start = 0;  // kForeignOffset for injected frames
    std::uint32_t len = 0;
    TraceContext ctx;
  };
  static constexpr std::uint64_t kForeignOffset = ~0ull;
  static constexpr std::size_t kMaxPendingPerStream = 4096;

  mutable std::mutex mu_;
  SpanLog log_;
  std::uint64_t next_trace_ = 1;
  std::uint64_t next_span_ = 1;
  std::unordered_map<SpanStreamKey, std::deque<PendingFrame>, SpanStreamKeyHasher>
      pending_;
  std::size_t pending_count_ = 0;
  std::uint64_t pending_dropped_ = 0;
};

}  // namespace bsobs
