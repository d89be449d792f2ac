// The reference frame decoder for the codec harness's differential: the
// throwing decoder the library shipped before StreamDecoder decoded in place.
// It parses the header through a bsutil::Reader into fresh vectors, resolves
// the command through a string-keyed map and returns a fresh result per
// frame. It shares only PayloadChecksum and DeserializePayload with the
// library decoder, so a framing or header fault in either shows up as a
// disagreement.
#pragma once

#include "proto/codec.hpp"

namespace bsfuzz {

/// Decodes the frame at the front of `stream` with the reference rules. On a
/// complete header followed by a partial payload it returns kNeedMoreData
/// with the header fields filled in; the library decoder leaves them empty.
bsproto::DecodeResult ReferenceDecodeMessage(std::uint32_t magic, bsutil::ByteSpan stream);

}  // namespace bsfuzz
