#include "proto/constants.hpp"

namespace bsproto {

namespace {

/// Wire commands in MsgType order.
constexpr std::array<const char*, kNumMsgTypes> kCommandNames = {
    "version",    "verack",     "addr",        "inv",        "getdata",
    "notfound",   "getblocks",  "getheaders",  "headers",    "tx",
    "block",      "ping",       "pong",        "getaddr",    "mempool",
    "sendheaders", "feefilter", "sendcmpct",   "cmpctblock", "getblocktxn",
    "blocktxn",   "filterload", "filteradd",   "filterclear", "merkleblock",
    "reject",     "tipprobe",
};

/// A command field as two little-endian words: bytes 0-7 and 8-11.
struct CommandKey {
  std::uint64_t lo = 0;
  std::uint32_t hi = 0;
};

constexpr std::uint64_t LoadLe(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr CommandKey KeyOfName(const char* name) {
  std::array<std::uint8_t, kCommandSize> field{};
  for (std::size_t i = 0; name[i] != '\0'; ++i) field[i] = static_cast<std::uint8_t>(name[i]);
  return {LoadLe(field.data(), 8), static_cast<std::uint32_t>(LoadLe(field.data() + 8, 4))};
}

/// Open-addressing table with linear probing: 27 commands in 64 slots, so a
/// lookup, known command or not, usually ends at its first or second slot.
constexpr std::size_t kCommandSlots = 64;

constexpr std::size_t SlotOf(const CommandKey& key) {
  const std::uint64_t mixed = (key.lo ^ (static_cast<std::uint64_t>(key.hi) << 21)) *
                              0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(mixed >> 58);  // top 6 bits: 0..63
}

struct CommandTable {
  std::array<CommandKey, kCommandSlots> keys{};
  std::array<std::int8_t, kCommandSlots> types{};  // -1 marks an empty slot
};

constexpr CommandTable BuildCommandTable() {
  CommandTable table;
  for (auto& t : table.types) t = -1;
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    const CommandKey key = KeyOfName(kCommandNames[i]);
    std::size_t slot = SlotOf(key);
    while (table.types[slot] >= 0) slot = (slot + 1) % kCommandSlots;
    table.keys[slot] = key;
    table.types[slot] = static_cast<std::int8_t>(i);
  }
  return table;
}

constexpr CommandTable kCommandTable = BuildCommandTable();

constexpr std::optional<MsgType> Lookup(const CommandKey& key) {
  for (std::size_t slot = SlotOf(key);; slot = (slot + 1) % kCommandSlots) {
    const std::int8_t type = kCommandTable.types[slot];
    if (type < 0) return std::nullopt;
    if (kCommandTable.keys[slot].lo == key.lo && kCommandTable.keys[slot].hi == key.hi) {
      return static_cast<MsgType>(type);
    }
  }
}

constexpr bool EveryCommandResolves() {
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    const auto type = Lookup(KeyOfName(kCommandNames[i]));
    if (!type || static_cast<std::size_t>(*type) != i) return false;
  }
  return !Lookup(CommandKey{}).has_value();
}
static_assert(EveryCommandResolves(), "command table must resolve every wire command");

}  // namespace

const std::array<MsgType, kNumMsgTypes>& AllMsgTypes() {
  static const std::array<MsgType, kNumMsgTypes> kAll = {
      MsgType::kVersion,    MsgType::kVerack,     MsgType::kAddr,
      MsgType::kInv,        MsgType::kGetData,    MsgType::kNotFound,
      MsgType::kGetBlocks,  MsgType::kGetHeaders, MsgType::kHeaders,
      MsgType::kTx,         MsgType::kBlock,      MsgType::kPing,
      MsgType::kPong,       MsgType::kGetAddr,    MsgType::kMempool,
      MsgType::kSendHeaders, MsgType::kFeeFilter, MsgType::kSendCmpct,
      MsgType::kCmpctBlock, MsgType::kGetBlockTxn, MsgType::kBlockTxn,
      MsgType::kFilterLoad, MsgType::kFilterAdd,  MsgType::kFilterClear,
      MsgType::kMerkleBlock, MsgType::kReject,  MsgType::kTipProbe,
  };
  return kAll;
}

const char* CommandName(MsgType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kNumMsgTypes ? kCommandNames[i] : "?";
}

std::optional<MsgType> MsgTypeFromCommandField(const std::uint8_t* field) {
  return Lookup({LoadLe(field, 8), static_cast<std::uint32_t>(LoadLe(field + 8, 4))});
}

std::optional<MsgType> MsgTypeFromCommand(const std::string& command) {
  if (command.size() > kCommandSize) return std::nullopt;
  std::array<std::uint8_t, kCommandSize> field{};
  for (std::size_t i = 0; i < command.size(); ++i) {
    // "ping\0" would pad to the same field as "ping".
    if (command[i] == '\0') return std::nullopt;
    field[i] = static_cast<std::uint8_t>(command[i]);
  }
  return MsgTypeFromCommandField(field.data());
}

}  // namespace bsproto
