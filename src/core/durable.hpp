// DurableNodeState — the bridge between the node's volatile security state
// (BanMan, MisbehaviorTracker, AddrMan, the detect engine's learned baseline)
// and the crash-consistent StateStore.
//
// Lifecycle: construct over the live components, Open(now) once. Open replays
// the newest durable generation into the components (snapshot records restore
// whole tables; WAL records re-apply individual mutations via the components'
// silent Restore* paths), then wires the components' on_* hooks so every
// subsequent mutation journals itself as one committed transaction. Replay
// never fires hooks, so recovery cannot re-journal what it reads.
//
// The detect baseline crosses this layer as an opaque byte payload
// (StatEngine::SerializeProfile / LoadProfile) — bsnet cannot depend on
// bsdetect without a cycle, and the store does not need to understand the
// profile to keep it durable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/addrman.hpp"
#include "core/banman.hpp"
#include "core/misbehavior.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"

namespace bsnet {

class DurableNodeState {
 public:
  // Record types in the store. Snapshot records carry a whole serialized
  // table; WAL records carry one mutation.
  static constexpr std::uint8_t kBanSnapshot = 1;    // BanMan::Serialize
  static constexpr std::uint8_t kScoreSnapshot = 2;  // MisbehaviorTracker::Serialize
  static constexpr std::uint8_t kAddrSnapshot = 3;   // AddrMan::Serialize
  static constexpr std::uint8_t kDetectBaseline = 4; // opaque StatEngine profile
  static constexpr std::uint8_t kBanUpsert = 5;      // ip u32 | port u16 | until i64
  static constexpr std::uint8_t kBanRemove = 6;      // ip u32 | port u16
  static constexpr std::uint8_t kScoreUpsert = 7;    // id u64 | mis i64 | good i64
  static constexpr std::uint8_t kScoreForget = 8;    // id u64
  static constexpr std::uint8_t kAddrAdd = 9;        // ip u32 | port u16
  static constexpr std::uint8_t kAddrRemove = 10;    // ip u32 | port u16
  static constexpr std::uint8_t kAddrGood = 11;      // ip u32 | port u16 | at i64
  static constexpr std::uint8_t kAnchors = 12;       // count | (ip u32 | port u16)*

  /// `fs` and the components must outlive this object.
  DurableNodeState(bsstore::StoreFs& fs, std::string dir, BanMan& bans,
                   MisbehaviorTracker& tracker, AddrMan& addrs);
  ~DurableNodeState();
  DurableNodeState(const DurableNodeState&) = delete;
  DurableNodeState& operator=(const DurableNodeState&) = delete;

  /// Forwarded to the store; attach before Open to capture replay counts.
  void AttachMetrics(bsobs::MetricsRegistry& registry);

  /// Replay durable state into the components (bans already expired at `now`
  /// are dropped and counted), then wire the live hooks. False when the
  /// store cannot come up; the components then run volatile, as before.
  bool Open(bsim::SimTime now);
  bool IsOpen() const { return store_.IsOpen(); }

  /// Persist the detect engine's serialized profile (one transaction); an
  /// empty payload clears it. The latest payload rides every snapshot.
  bool SetDetectBaseline(bsutil::ByteSpan payload);
  /// The replayed/last-set baseline payload (empty when none).
  const bsutil::ByteVec& DetectBaseline() const { return baseline_; }

  /// Persist the node's anchor peers — the last-known-good outbound
  /// endpoints re-dialed first after a restart. Overwrites the previous set.
  bool SetAnchors(const std::vector<Endpoint>& anchors);
  /// The replayed/last-set anchor list (empty when none).
  const std::vector<Endpoint>& Anchors() const { return anchors_; }

  /// Force a snapshot + new generation now (e.g. on clean shutdown).
  bool Flush() { return store_.IsOpen() && store_.CompactNow(); }

  bsstore::StateStore& Store() { return store_; }
  const bsstore::StateStore& Store() const { return store_; }

 private:
  void ReplayRecord(std::uint8_t type, bsutil::ByteSpan payload,
                    bsim::SimTime now);
  void EmitSnapshot(const bsstore::StateStore::SnapshotSink& sink) const;
  void WireHooks();

  bsstore::StateStore store_;
  BanMan& bans_;
  MisbehaviorTracker& tracker_;
  AddrMan& addrs_;
  bsutil::ByteVec baseline_;
  std::vector<Endpoint> anchors_;
};

}  // namespace bsnet
