/// \file micro_spi.cpp
/// google-benchmark microbenchmarks of the SPI library primitives (host
/// wall-clock): wire-format encode/decode (static, dynamic, delimited)
/// and VTS packing. The execution engine's own benchmarks are in
/// micro_channel.cpp.
#include <benchmark/benchmark.h>

#include "core/message.hpp"
#include "core/packing.hpp"
#include "dsp/rng.hpp"

namespace {

using namespace spi;
using core::Bytes;

Bytes random_payload(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return b;
}

void BM_EncodeStatic(benchmark::State& state) {
  const Bytes payload = random_payload(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(core::encode_static(3, payload));
}
BENCHMARK(BM_EncodeStatic)->Arg(16)->Arg(256)->Arg(4096);

void BM_EncodeDynamic(benchmark::State& state) {
  const Bytes payload = random_payload(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(core::encode_dynamic(3, payload));
}
BENCHMARK(BM_EncodeDynamic)->Arg(16)->Arg(256)->Arg(4096);

void BM_DecodeDynamic(benchmark::State& state) {
  const Bytes wire = core::encode_dynamic(3, random_payload(static_cast<std::size_t>(state.range(0)), 3));
  for (auto _ : state) benchmark::DoNotOptimize(core::decode_dynamic(wire));
}
BENCHMARK(BM_DecodeDynamic)->Arg(16)->Arg(256)->Arg(4096);

void BM_DecodeDelimited(benchmark::State& state) {
  const Bytes wire =
      core::encode_delimited(3, random_payload(static_cast<std::size_t>(state.range(0)), 4));
  for (auto _ : state) {
    std::int64_t scanned = 0;
    benchmark::DoNotOptimize(core::decode_delimited(wire, &scanned));
  }
}
BENCHMARK(BM_DecodeDelimited)->Arg(16)->Arg(256)->Arg(4096);

void BM_PackUnpack(benchmark::State& state) {
  const auto count = static_cast<std::int64_t>(state.range(0));
  const core::TokenPacker packer(8, count);
  const Bytes raw = random_payload(static_cast<std::size_t>(count * 8), 5);
  for (auto _ : state) {
    const Bytes packed = packer.pack(raw, count);
    benchmark::DoNotOptimize(packer.unpack(packed));
  }
}
BENCHMARK(BM_PackUnpack)->Arg(8)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
