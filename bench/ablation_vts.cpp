/// \file ablation_vts.cpp
/// Ablations for the two VTS design choices of Section 3:
///   (a) size-header vs. delimiter framing for variable-size packed
///       tokens — the paper argues a header field is cheaper on an FPGA
///       because a delimiter forces the receiver to scan every byte (and
///       byte-stuffing inflates the wire);
///   (b) VTS buffer memory (equation 1) vs. the naive alternative of
///       statically sizing every dynamic edge for its worst-case raw
///       rates.
#include <chrono>
#include <cstdio>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/message.hpp"
#include "dataflow/vts.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;

  // --- (a) header vs delimiter -------------------------------------------
  std::printf("(a) VTS transport: size header vs delimiter framing\n");
  std::printf("%12s %14s %14s %16s %16s\n", "payload B", "header wire B", "delim wire B",
              "recv scan bytes", "decode ns/msg");
  dsp::Rng rng(77);
  for (std::size_t payload : {16u, 64u, 256u, 1024u, 4096u}) {
    core::Bytes data(payload);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const core::Bytes header_wire = core::encode_dynamic(1, data);
    const core::Bytes delim_wire = core::encode_delimited(1, data);

    std::int64_t scanned = 0;
    constexpr int kReps = 2000;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) (void)core::decode_delimited(delim_wire, &scanned);
    const auto mid = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) (void)core::decode_dynamic(header_wire);
    const auto end = std::chrono::steady_clock::now();
    const double delim_ns =
        std::chrono::duration<double, std::nano>(mid - start).count() / kReps;
    const double header_ns =
        std::chrono::duration<double, std::nano>(end - mid).count() / kReps;
    std::printf("%12zu %14zu %14zu %16lld %8.0f vs %-6.0f\n", payload, header_wire.size(),
                delim_wire.size(), static_cast<long long>(scanned), header_ns, delim_ns);
  }
  std::printf("expected: delimiter wire size >= header wire size (stuffing), receiver\n"
              "scan cost grows linearly, header decode O(1) — the paper's FPGA argument.\n\n");

  // --- (b) buffer memory: VTS vs worst-case static sizing -----------------
  std::printf("(b) buffer memory of the applications' graphs (bytes)\n");
  std::printf("%-40s %14s %20s\n", "graph", "VTS (eq. 1)", "worst-case static");
  {
    const apps::ErrorGenApp app(4, apps::SpeechParams{});
    const df::VtsMemoryComparison cmp =
        df::compare_vts_memory(app.system().application(), app.system().plan().vts);
    std::printf("%-40s %14lld %20lld\n", "speech error-gen, 4 PE",
                static_cast<long long>(cmp.vts_bytes),
                static_cast<long long>(cmp.worst_case_static_bytes));
  }
  {
    apps::ParticleParams params;
    params.particles = 200;
    const apps::ParticleFilterApp app(2, params);
    const df::VtsMemoryComparison cmp =
        df::compare_vts_memory(app.system().application(), app.system().plan().vts);
    std::printf("%-40s %14lld %20lld\n", "particle filter, 2 PE",
                static_cast<long long>(cmp.vts_bytes),
                static_cast<long long>(cmp.worst_case_static_bytes));
  }
  {
    // The paper's figure-1 graph (prod <= 10, cons <= 8): mismatched
    // bounds force the static design to buffer many raw tokens.
    df::Graph g("fig1");
    const df::ActorId a = g.add_actor("A");
    const df::ActorId b = g.add_actor("B");
    g.connect(a, df::Rate::dynamic(10), b, df::Rate::dynamic(8), 0, 2);
    const df::VtsResult vts = df::vts_convert(g);
    const df::VtsMemoryComparison cmp = df::compare_vts_memory(g, vts);
    std::printf("%-40s %14lld %20lld\n", "paper figure-1 example",
                static_cast<long long>(cmp.vts_bytes),
                static_cast<long long>(cmp.worst_case_static_bytes));
  }
  return 0;
}
