#include "fuzz/harness.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/addrman.hpp"
#include "core/banman.hpp"
#include "core/misbehavior.hpp"
#include "crypto/sha256.hpp"
#include "fuzz/reference_decoder.hpp"
#include "proto/codec.hpp"
#include "sim/simfs.hpp"
#include "store/fsck.hpp"
#include "store/store.hpp"

namespace bsfuzz {

namespace {

std::string DescribeBytes(bsutil::ByteSpan a, bsutil::ByteSpan b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return "sizes " + std::to_string(a.size()) + "/" + std::to_string(b.size()) +
         ", first difference at byte " + std::to_string(i);
}

// ---- codec -----------------------------------------------------------------

// What the library decoder must agree with the reference decoder on: the
// status, the bytes consumed, the header fields, and the message on kOk.
// Empty when they agree.
std::string CompareToReference(const bsproto::DecodeResult& got,
                               const bsproto::DecodeResult& want) {
  if (got.status != want.status || got.consumed != want.consumed) {
    return std::string(bsproto::ToString(got.status)) + "/" + std::to_string(got.consumed) +
           " vs reference " + bsproto::ToString(want.status) + "/" +
           std::to_string(want.consumed);
  }
  // The reference fills the header of a frame still waiting for payload.
  if (got.status == bsproto::DecodeStatus::kNeedMoreData) return {};
  if (got.header.magic != want.header.magic || got.header.command != want.header.command ||
      got.header.length != want.header.length ||
      got.header.checksum != want.header.checksum) {
    return "header \"" + got.header.command + "\"/" + std::to_string(got.header.length) +
           " vs reference \"" + want.header.command + "\"/" +
           std::to_string(want.header.length);
  }
  if (got.status == bsproto::DecodeStatus::kOk && !(got.message == want.message)) {
    return "message differs from the reference";
  }
  return {};
}

HarnessResult CodecBody(bsutil::ByteSpan input) {
  bsutil::ByteSpan stream = input;
  std::size_t guard = 0;
  // Reference outcome sequence for the streaming differential below.
  std::vector<bsproto::DecodeResult> reference;
  while (!stream.empty()) {
    if (++guard > input.size() + 16) {
      return HarnessResult::Fail("decoder-progress",
                                 "decode loop exceeded input-size bound");
    }
    const bsproto::DecodeResult r = bsproto::DecodeMessage(kFuzzMagic, stream);
    const bsproto::DecodeResult ref = ReferenceDecodeMessage(kFuzzMagic, stream);
    if (const std::string why = CompareToReference(r, ref); !why.empty()) {
      return HarnessResult::Fail("reference-differential",
                                 "frame " + std::to_string(reference.size()) + ": " + why);
    }
    if (r.consumed > stream.size()) {
      return HarnessResult::Fail(
          "consumed-overrun", "consumed " + std::to_string(r.consumed) +
                                  " of " + std::to_string(stream.size()));
    }
    if (r.status == bsproto::DecodeStatus::kNeedMoreData) {
      if (r.consumed != 0) {
        return HarnessResult::Fail("need-more-data-consumed",
                                   "partial frame consumed bytes");
      }
      break;  // waiting for bytes that will never come — done
    }
    if (r.consumed < bsproto::kHeaderSize) {
      return HarnessResult::Fail(
          "decoder-progress",
          "header-complete status consumed < header size (" +
              std::to_string(r.consumed) + ")");
    }
    reference.push_back(ref);
    if (r.status == bsproto::DecodeStatus::kOk) {
      // Round-trip idempotence. A first re-encode may legally differ from
      // the wire bytes (optional fields like VERSION's relay flag get
      // materialized), but it must itself decode to an equal message and
      // re-encode byte-identically — and when the lengths DO match, the
      // re-encode must equal the original frame exactly.
      const bsutil::ByteVec e1 = bsproto::EncodeMessage(kFuzzMagic, r.message);
      const bsproto::DecodeResult second = bsproto::DecodeMessage(kFuzzMagic, e1);
      if (second.status != bsproto::DecodeStatus::kOk ||
          second.consumed != e1.size()) {
        return HarnessResult::Fail(
            "reencode-undecodable",
            std::string("re-encoded frame decoded as ") +
                bsproto::ToString(second.status));
      }
      if (!(second.message == r.message)) {
        return HarnessResult::Fail("roundtrip-inequality",
                                   "decode(encode(m)) != m");
      }
      const bsutil::ByteVec e2 = bsproto::EncodeMessage(kFuzzMagic, second.message);
      if (e2 != e1) {
        return HarnessResult::Fail("roundtrip-idempotence",
                                   DescribeBytes(e1, e2));
      }
      if (e1.size() == r.consumed &&
          !std::equal(e1.begin(), e1.end(), stream.begin())) {
        return HarnessResult::Fail(
            "reencode-differs",
            "accepted frame re-encodes to different bytes of equal length");
      }
    }
    stream = stream.subspan(r.consumed);
  }

  // Streaming differential: feed the same bytes through the incremental
  // decoder in input-derived chunk sizes, decoding every frame into one
  // reused result as Node::OnData does. Any chunking must reproduce the
  // reference sequence exactly — same statuses, consumed counts, headers and
  // messages, nothing extra and nothing missing — so a field the in-place
  // decode forgets to rewrite shows up as a stale value.
  bsproto::StreamDecoder decoder(kFuzzMagic);
  bsproto::DecodeResult r;
  std::size_t fed = 0;
  std::size_t seen = 0;
  for (;;) {
    while (decoder.Next(r)) {
      if (seen >= reference.size()) {
        return HarnessResult::Fail(
            "stream-differential",
            "incremental decoder produced an extra frame (" +
                std::string(bsproto::ToString(r.status)) + ")");
      }
      if (const std::string why = CompareToReference(r, reference[seen]); !why.empty()) {
        return HarnessResult::Fail("stream-differential",
                                   "frame " + std::to_string(seen) + ": incremental " + why);
      }
      ++seen;
    }
    if (fed >= input.size()) break;
    // Chunk size derived from the input itself so the splits are as
    // adversarial as the corpus: 1..64 bytes, biased tiny.
    const std::size_t chunk = std::min<std::size_t>(
        input.size() - fed, 1 + (input[fed] & (input[fed] % 3 == 0 ? 0x3f : 0x03)));
    decoder.Feed(input.subspan(fed, chunk));
    fed += chunk;
  }
  if (seen != reference.size()) {
    return HarnessResult::Fail(
        "stream-differential",
        "incremental decoder stopped at frame " + std::to_string(seen) +
            " of " + std::to_string(reference.size()));
  }
  return {};
}

// ---- tracker ---------------------------------------------------------------

/// Byte-oriented cursor; every byte string is a valid op stream.
class OpReader {
 public:
  explicit OpReader(bsutil::ByteSpan data) : data_(data) {}
  bool Done() const { return pos_ >= data_.size(); }
  std::uint8_t Byte() { return Done() ? 0 : data_[pos_++]; }
  bsutil::ByteSpan Chunk(std::size_t max) {
    const std::size_t n = std::min(max, data_.size() - std::min(pos_, data_.size()));
    const bsutil::ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  bsutil::ByteSpan data_;
  std::size_t pos_ = 0;
};

HarnessResult TrackerBody(bsutil::ByteSpan input) {
  constexpr int kThreshold = 100;
  constexpr std::uint64_t kPeers = 8;
  OpReader ops(input);
  const bsnet::CoreVersion version =
      std::array{bsnet::CoreVersion::kV0_20, bsnet::CoreVersion::kV0_21,
                 bsnet::CoreVersion::kV0_22}[ops.Byte() % 3];
  bsnet::MisbehaviorTracker tracker(version, bsnet::BanPolicy::kBanScore,
                                    kThreshold);
  bsnet::BanMan banman;
  // Independent shadow model: plain per-peer accumulators driven from the
  // published rule table. Divergence means the tracker's bookkeeping broke.
  std::array<int, kPeers> shadow_score{};
  std::array<bool, kPeers> shadow_known{};
  const auto& all = bsnet::AllMisbehaviors();

  while (!ops.Done()) {
    const std::uint8_t op = ops.Byte() % 7;
    const std::uint64_t peer = ops.Byte() % kPeers;
    switch (op) {
      case 0: {  // Misbehaving, cross-checked against the shadow model
        const bool inbound = (ops.Byte() & 1) != 0;
        const bsnet::Misbehavior what = all[ops.Byte() % all.size()];
        const auto outcome = tracker.Misbehaving(peer, inbound, what);
        const auto rule = bsnet::GetRule(version, what);
        const bool applies =
            rule.has_value() &&
            (rule->scope == bsnet::PeerScope::kAny ||
             (rule->scope == bsnet::PeerScope::kInbound && inbound) ||
             (rule->scope == bsnet::PeerScope::kOutbound && !inbound));
        const int want_delta = applies ? rule->score : 0;
        if (outcome.rule_applied != applies || outcome.score_delta != want_delta) {
          return HarnessResult::Fail(
              "tracker-shadow-divergence",
              std::string("rule ") + bsnet::ToString(what) + ": delta " +
                  std::to_string(outcome.score_delta) + " want " +
                  std::to_string(want_delta));
        }
        if (applies) {
          shadow_score[peer] += want_delta;
          if (shadow_known[peer] && outcome.total_score != shadow_score[peer]) {
            return HarnessResult::Fail(
                "tracker-shadow-divergence",
                "peer total " + std::to_string(outcome.total_score) + " want " +
                    std::to_string(shadow_score[peer]));
          }
          shadow_score[peer] = outcome.total_score;
          shadow_known[peer] = true;
        }
        if (outcome.should_ban != (applies && outcome.total_score >= kThreshold)) {
          return HarnessResult::Fail("tracker-ban-threshold",
                                     "should_ban inconsistent with threshold");
        }
        break;
      }
      case 1:  // good-score credit (does not change misbehavior totals)
        tracker.AddGoodScore(peer, static_cast<int>(ops.Byte() % 16));
        break;
      case 2:  // forget resets the shadow too
        tracker.Forget(peer);
        shadow_score[peer] = 0;
        shadow_known[peer] = false;
        break;
      case 3: {  // serialize must round-trip byte-stably
        const bsutil::ByteVec s1 = tracker.Serialize();
        if (!tracker.Deserialize(s1)) {
          return HarnessResult::Fail("tracker-self-reload",
                                     "own serialization rejected");
        }
        const bsutil::ByteVec s2 = tracker.Serialize();
        if (s2 != s1) {
          return HarnessResult::Fail("tracker-serialize-idempotence",
                                     DescribeBytes(s1, s2));
        }
        break;
      }
      case 4: {  // rejected garbage must leave state byte-identical
        const bsutil::ByteVec before = tracker.Serialize();
        const bsutil::ByteSpan garbage = ops.Chunk(64);
        if (tracker.Deserialize(garbage)) {
          // Accepted: the blob was a valid score table; rebuild the shadow
          // from the tracker's own view of our peer window.
          for (std::uint64_t p = 0; p < kPeers; ++p) {
            shadow_score[p] = tracker.Score(p);
            shadow_known[p] = true;
          }
        } else if (tracker.Serialize() != before) {
          return HarnessResult::Fail(
              "tracker-reject-mutates",
              "rejected Deserialize changed serialized state");
        }
        break;
      }
      case 5: {  // banman ops + serialize round-trip
        bsnet::Endpoint who;
        who.ip = 0x0a000000u + static_cast<std::uint32_t>(peer);
        who.port = 8333;
        banman.Ban(who, /*until=*/1000 + ops.Byte());
        const bsutil::ByteVec s1 = banman.Serialize();
        bsnet::BanMan reloaded;
        if (!reloaded.Deserialize(s1, /*now=*/0)) {
          return HarnessResult::Fail("banman-self-reload",
                                     "own serialization rejected");
        }
        if (reloaded.Serialize() != s1) {
          return HarnessResult::Fail("banman-serialize-idempotence",
                                     "reload changed serialized state");
        }
        break;
      }
      case 6: {  // banman rejected garbage must leave state byte-identical
        const bsutil::ByteVec before = banman.Serialize();
        const bsutil::ByteSpan garbage = ops.Chunk(64);
        if (!banman.Deserialize(garbage, /*now=*/0) &&
            banman.Serialize() != before) {
          return HarnessResult::Fail(
              "banman-reject-mutates",
              "rejected Deserialize changed serialized state");
        }
        break;
      }
    }
  }
  return {};
}

// ---- store -----------------------------------------------------------------

HarnessResult StoreBody(bsutil::ByteSpan input) {
  bsim::SimFs fs;
  const std::string dir = "fuzz-store";
  fs.MkDir(dir);

  // A known-good generation-1 snapshot, so recovery always has solid ground.
  bsutil::ByteVec snap;
  bsstore::AppendHeader(snap, {bsstore::FileKind::kSnapshot, 1});
  const bsutil::ByteVec seed_payload = {1, 2, 3};
  bsstore::AppendFrame(snap, 7, seed_payload);
  bsstore::AppendFrame(snap, bsstore::kCommitRecord, {});

  // The journal's frame region IS the fuzz input.
  bsutil::ByteVec wal;
  bsstore::AppendHeader(wal, {bsstore::FileKind::kJournal, 1});
  wal.insert(wal.end(), input.begin(), input.end());

  for (const auto& [name, contents] :
       {std::pair{std::string("snap-1.dat"), snap},
        std::pair{std::string("wal-1.log"), wal}}) {
    const int fd = fs.OpenWrite(bsstore::JoinPath(dir, name), true);
    if (fd < 0 || !fs.Write(fd, contents) || !fs.Fsync(fd)) {
      return HarnessResult::Fail("simfs-setup", "could not stage store files");
    }
    fs.Close(fd);
  }

  const bsstore::FsckReport before = bsstore::RunFsck(fs, dir, /*repair=*/false);
  if (!before.store_found) {
    return HarnessResult::Fail("fsck-blind", "fsck did not see staged store");
  }

  using Replayed = std::vector<std::pair<std::uint8_t, bsutil::ByteVec>>;
  const auto open_once = [&fs, &dir](Replayed& out, bsstore::StoreStats& stats,
                                     bool& ok) {
    bsstore::StateStore store(fs, dir);
    ok = store.Open([&out](std::uint8_t type, bsutil::ByteSpan payload) {
      out.emplace_back(type, bsutil::ByteVec(payload.begin(), payload.end()));
    });
    stats = store.OpenStats();
  };

  Replayed first, second;
  bsstore::StoreStats stats1{}, stats2{};
  bool ok1 = false, ok2 = false;
  open_once(first, stats1, ok1);
  // Recover-or-fail-closed: with an intact snapshot present, open must
  // succeed no matter what the journal region held.
  if (!ok1) {
    return HarnessResult::Fail("store-open-failed",
                               "open failed despite intact snapshot");
  }
  if (first.empty() || first[0].second != seed_payload) {
    return HarnessResult::Fail("store-snapshot-lost",
                               "snapshot record missing from replay");
  }
  // fsck and open must agree about whether the journal needed truncation.
  if (before.healthy && stats1.journal_was_dirty) {
    return HarnessResult::Fail("fsck-open-disagree",
                               "fsck healthy but open truncated the journal");
  }
  if (!before.healthy && before.truncated_frames > 0 && !stats1.journal_was_dirty) {
    return HarnessResult::Fail("fsck-open-disagree",
                               "fsck saw damage but open replayed clean");
  }

  // After the first open repaired the tail, the store must verify healthy
  // and a second open must replay the identical record sequence cleanly.
  const bsstore::FsckReport after = bsstore::RunFsck(fs, dir, /*repair=*/false);
  if (!after.healthy) {
    return HarnessResult::Fail("store-not-failclosed",
                               "store still unhealthy after recovery open");
  }
  open_once(second, stats2, ok2);
  if (!ok2 || second != first) {
    return HarnessResult::Fail("store-recovery-idempotence",
                               "second open replayed a different sequence");
  }
  if (stats2.journal_was_dirty) {
    return HarnessResult::Fail("store-recovery-idempotence",
                               "second open still found a dirty journal");
  }
  return {};
}

// ---- addrman ---------------------------------------------------------------

HarnessResult AddrManBody(bsutil::ByteSpan input) {
  for (const bool bucketed : {false, true}) {
    bsnet::AddrMan am(/*seed=*/1);
    if (bucketed) am.EnableBucketing();
    // Pre-seed a couple of entries so "reject must not mutate" is tested
    // against non-trivial state.
    for (std::uint32_t i = 0; i < 3; ++i) {
      am.Add(bsnet::Endpoint{0x7f000001u + i, static_cast<std::uint16_t>(8333 + i)});
    }
    const bsutil::ByteVec before = am.Serialize();
    const std::string mode = bucketed ? "bucketed" : "flat";
    if (!am.Deserialize(input)) {
      if (am.Serialize() != before) {
        return HarnessResult::Fail(
            "addrman-reject-mutates",
            mode + ": rejected Deserialize changed serialized state");
      }
      continue;
    }
    if (am.Size() > 16384) {
      return HarnessResult::Fail("addrman-size-bound",
                                 mode + ": table exceeded kMaxSize");
    }
    const bsutil::ByteVec s1 = am.Serialize();
    bsnet::AddrMan reload(/*seed=*/1);
    if (bucketed) reload.EnableBucketing();
    if (!reload.Deserialize(s1)) {
      return HarnessResult::Fail("addrman-self-reload",
                                 mode + ": accepted table fails to reload");
    }
    if (reload.Serialize() != s1) {
      return HarnessResult::Fail("addrman-serialize-idempotence",
                                 mode + ": reload changed serialized bytes");
    }
  }
  return {};
}

// ---- sha256 ----------------------------------------------------------------

HarnessResult Sha256Body(bsutil::ByteSpan input) {
  namespace detail = bscrypto::detail;
  const std::string len = "length " + std::to_string(input.size());
  const bscrypto::Sha256::Digest reference = detail::Hash(detail::TransformScalar, input);
  if (bscrypto::Sha256::Hash(input) != reference) {
    return HarnessResult::Fail("sha256-kernel-differential",
                               len + ": Hash differs from the scalar reference");
  }
  if (bscrypto::Sha256::HashD(input) != detail::Hash(detail::TransformScalar, reference)) {
    return HarnessResult::Fail("sha256d-kernel-differential",
                               len + ": HashD differs from the scalar reference");
  }
  // The incremental hasher, cut where the input's first three bytes say, so
  // mutations steer the split points across block and padding edges.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < std::min<std::size_t>(input.size(), 3); ++i) {
    cuts.push_back(input[i] * input.size() / 256);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(input.size());
  bscrypto::Sha256 hasher;
  std::size_t offset = 0;
  for (const std::size_t cut : cuts) {
    hasher.Update(input.subspan(offset, cut - offset));
    offset = cut;
  }
  bscrypto::Sha256::Digest incremental;
  hasher.Finalize(incremental);
  if (incremental != reference) {
    return HarnessResult::Fail("sha256-incremental-differential",
                               len + ": incremental digest differs from the scalar reference");
  }
  return {};
}

HarnessResult Guarded(HarnessResult (*body)(bsutil::ByteSpan),
                      bsutil::ByteSpan input) {
  try {
    return body(input);
  } catch (const std::exception& e) {
    return HarnessResult::Fail("unexpected-exception", e.what());
  }
}

}  // namespace

HarnessResult RunCodecInput(bsutil::ByteSpan input) {
  return Guarded(CodecBody, input);
}
HarnessResult RunTrackerInput(bsutil::ByteSpan input) {
  return Guarded(TrackerBody, input);
}
HarnessResult RunStoreInput(bsutil::ByteSpan input) {
  return Guarded(StoreBody, input);
}
HarnessResult RunAddrManInput(bsutil::ByteSpan input) {
  return Guarded(AddrManBody, input);
}

HarnessResult RunSha256Input(bsutil::ByteSpan input) {
  return Guarded(Sha256Body, input);
}

HarnessResult RunHarness(const std::string& harness, bsutil::ByteSpan input) {
  if (harness == "codec") return RunCodecInput(input);
  if (harness == "tracker") return RunTrackerInput(input);
  if (harness == "store") return RunStoreInput(input);
  if (harness == "addrman") return RunAddrManInput(input);
  if (harness == "sha256") return RunSha256Input(input);
  throw std::invalid_argument("unknown fuzz harness: " + harness);
}

const std::vector<std::string>& AllHarnesses() {
  static const std::vector<std::string> kAll = {"codec", "tracker", "store",
                                                "addrman", "sha256"};
  return kAll;
}

}  // namespace bsfuzz
