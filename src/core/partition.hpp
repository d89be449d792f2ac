// Routing-partition detection — the PartitionMonitor behind
// NodeConfig::enable_partition_resilience.
//
// A BGP-level routing adversary (Hijacking Bitcoin, arXiv:1605.07524) does
// not sever links; it detours them, so a partitioned node still completes
// handshakes and still exchanges traffic — everything merely crawls, and the
// node quietly falls behind the global tip while each individual signal
// (a slow peer here, a late block there) looks like ordinary jitter. The
// monitor fuses three weak signals into one partition-suspicion score:
//
//   1. Block-arrival staleness — time since the tip last advanced, measured
//      against an EWMA of observed inter-block intervals (so a chain that
//      naturally mines every 3 s and one that mines every 10 min are judged
//      on their own cadence).
//   2. Netgroup-diversity drawdown — distinct /16 groups across the live
//      outbound set against the high-watermark the node has ever held; a
//      routing cut shears off whole netgroups at once, organic churn does not.
//   3. Tip-probe disagreement — cross-peer divergence of the best tip height
//      reported in gossip tip-probe replies (proto kTipProbe, a compact
//      height/hash vector per arXiv:2007.02287). A reachable peer reporting a
//      tip several blocks ahead is direct evidence the node is on the losing
//      side of a partition.
//
// The monitor is a pure state machine: the Node feeds it observations and
// polls Update() on its maintenance tick; it owns no connections, draws no
// randomness, and is unit-testable in isolation. Sustained high suspicion
// walks a graduated recovery ladder (feeler burst → anchor re-dial →
// emergency outbound slot → divergent-peer rotation) with hysteresis, so a
// single late block cannot trigger connection churn.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "sim/time.hpp"

namespace bsnet {

/// The PartitionMonitor's clock. Its defaults live in NodeConfig
/// (partition_expected_block_interval, partition_ladder_step), which the
/// node copies in here.
struct PartitionParams {
  /// Prior for the inter-block EWMA before any arrival is observed.
  bsim::SimTime expected_block_interval;
  /// Time at sustained high suspicion before each successive ladder stage.
  bsim::SimTime ladder_step;
};

class PartitionMonitor {
 public:
  /// Recovery-ladder stages, in escalation order. Each stage implies the ones
  /// before it stayed insufficient for another ladder_step.
  enum class Stage : int {
    kNone = 0,
    kFeelerBurst = 1,    // probe unrepresented netgroups
    kAnchorRedial = 2,   // re-dial last-known-good anchors
    kEmergencySlot = 3,  // open one extra diversity-constrained outbound
    kRotate = 4,         // drop the most tip-divergent outbound peer
  };

  /// Probe observations older than this are dropped from the divergence set.
  static constexpr bsim::SimTime kProbeFreshness = 30 * bsim::kSecond;

  explicit PartitionMonitor(PartitionParams params) : params_(params) {}

  const PartitionParams& Params() const { return params_; }

  /// The chain tip advanced to `height` at `now`: feeds the inter-block EWMA
  /// and resets the staleness clock.
  void OnTipAdvance(bsim::SimTime now, int height);

  /// A tip-probe exchange reported `remote_height` as `peer_id`'s best tip.
  void OnProbeObservation(bsim::SimTime now, std::uint64_t peer_id,
                          std::int32_t remote_height);

  /// The peer disconnected; its divergence observation must not linger.
  void ForgetPeer(std::uint64_t peer_id);

  /// Current distinct /16 count across live outbound slots. The watermark
  /// (the most diversity ever held) only ratchets up.
  void NoteNetgroupDiversity(std::size_t distinct_groups);

  /// Recompute the fused suspicion at `now` with our tip at `our_height`,
  /// advance/retreat the hysteresis state and the ladder clock. Returns the
  /// new suspicion. `recovered` (optional out) is set true on the tick the
  /// monitor de-escalates from high back to calm.
  double Update(bsim::SimTime now, int our_height, bool* recovered = nullptr);

  double Suspicion() const { return suspicion_; }
  bool SuspicionHigh() const { return high_; }
  /// Time the current high-suspicion window opened (0 when calm).
  bsim::SimTime HighSince() const { return high_ ? high_since_ : 0; }
  Stage CurrentStage() const { return stage_; }

  /// Individual signal components of the last Update (for metrics/tests).
  double StaleSignal() const { return stale_signal_; }
  double DiversitySignal() const { return diversity_signal_; }
  double DivergenceSignal() const { return divergence_signal_; }
  bsim::SimTime InterBlockEwma() const { return ewma_interval_; }

  /// Best tip height reported by any fresh probe observation, or nullopt.
  std::optional<std::int32_t> BestRemoteHeight() const;
  /// The peer with the lowest fresh reported tip — the rotation candidate
  /// most likely stuck on our side of the cut (nullopt when no fresh
  /// observation trails `our_height`).
  std::optional<std::uint64_t> MostDivergentPeer(int our_height) const;

  /// Drop all transient state (crash/stop path).
  void Reset();

 private:
  void PruneStale(bsim::SimTime now);

  struct Observation {
    bsim::SimTime time = 0;
    std::int32_t height = 0;
  };

  PartitionParams params_;
  bsim::SimTime ewma_interval_ = 0;  // 0 until armed by OnTipAdvance/Update
  bsim::SimTime last_tip_advance_ = 0;
  int tip_height_ = 0;
  std::size_t diversity_watermark_ = 0;
  std::size_t diversity_current_ = 0;
  std::unordered_map<std::uint64_t, Observation> observations_;

  double suspicion_ = 0.0;
  double stale_signal_ = 0.0;
  double diversity_signal_ = 0.0;
  double divergence_signal_ = 0.0;
  bool high_ = false;
  bsim::SimTime high_since_ = 0;
  bsim::SimTime last_update_ = 0;
  Stage stage_ = Stage::kNone;
};

const char* ToString(PartitionMonitor::Stage stage);

}  // namespace bsnet
