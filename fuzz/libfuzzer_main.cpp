// libFuzzer entry point sharing the in-repo harness bodies. Built only
// under -DBS_LIBFUZZER=ON with clang (fuzz/CMakeLists.txt gates this); the
// harness is selected at compile time via -DBS_FUZZ_HARNESS=<name>.
//
//   cmake -B build-fuzz -S . -DBS_LIBFUZZER=ON \
//         -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz --target fuzz_codec_libfuzzer
//   ./build-fuzz/fuzz/fuzz_codec_libfuzzer fuzz/corpus/codec
//
// Oracle violations abort() so libFuzzer treats them exactly like crashes
// and minimizes them natively; the resulting input also replays through
// `banscore-lab fuzz --harness <name> --replay <file>`.
#include <cstdio>
#include <cstdlib>

#include "fuzz/harness.hpp"

#ifndef BS_FUZZ_HARNESS
#error "define BS_FUZZ_HARNESS (codec|tracker|store|addrman|sha256)"
#endif

#define BS_STRINGIFY2(x) #x
#define BS_STRINGIFY(x) BS_STRINGIFY2(x)

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  static const char* kHarness = BS_STRINGIFY(BS_FUZZ_HARNESS);
  const bsfuzz::HarnessResult result =
      bsfuzz::RunHarness(kHarness, bsutil::ByteSpan(data, size));
  if (!result.ok) {
    std::fprintf(stderr, "oracle violated: %s (%s)\n", result.oracle.c_str(),
                 result.detail.c_str());
    std::abort();
  }
  return 0;
}
