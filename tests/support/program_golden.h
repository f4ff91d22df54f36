// Scalar program replays and the golden-model prefix harness: the
// references the differential tests hold fabrics, passes and the
// packed engine to.  No binary runs them — production replays programs
// through run_program_simd and run_program_packed.
//
//   * run_program / run_program_wide replay one window on any fabric
//     and read its result register(s), booking program.* telemetry;
//   * run_program_prefix returns the whole register file after the
//     first `length` instructions;
//   * minimal_failing_prefix shrinks a divergence between two fabrics
//     to the first instruction that matters;
//   * diff_program_run classifies one golden-vs-subject run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fault/golden.h"
#include "logic/fabric.h"
#include "logic/program.h"

namespace memcim {

/// Replay a program on `fabric` with the given operand bits; registers
/// are allocated at a fresh window.  Returns the output bit.
[[nodiscard]] bool run_program(const CimProgram& program, Fabric& fabric,
                               const std::vector<bool>& inputs);

/// Replay a program and read every result register (see
/// `result_registers`).  Multi-output analogue of `run_program`.
[[nodiscard]] std::vector<bool> run_program_wide(
    const CimProgram& program, Fabric& fabric,
    const std::vector<bool>& inputs);

/// Replay the first `length` instructions of `program` on `fabric`
/// (fresh register window, inputs loaded first) and return the full
/// register-file state — the observable the shrinker compares.
[[nodiscard]] std::vector<bool> run_program_prefix(
    const CimProgram& program, Fabric& fabric,
    const std::vector<bool>& inputs, std::size_t length);

/// Factory for a fabric under test; called once per prefix replay so
/// each run starts from power-on state.
using FabricFactory = std::function<std::unique_ptr<Fabric>()>;

/// Divergence shrinking: the smallest prefix length L (0 ≤ L ≤
/// program length, L = 0 meaning the input load alone) after which the
/// reference and subject register files already differ — i.e. the
/// first instruction that matters to the failure.  nullopt when the
/// full program agrees.  Linear scan from the shortest prefix, so the
/// result is exactly the minimal failing prefix even when later
/// instructions would re-mask the divergence.
[[nodiscard]] std::optional<std::size_t> minimal_failing_prefix(
    const CimProgram& program, const std::vector<bool>& inputs,
    const FabricFactory& make_reference, const FabricFactory& make_subject);

/// One differential program run: golden fabric vs subject fabric,
/// classified on the final output bit (kClean / kSilent — raw fabrics
/// have no detection channel).
[[nodiscard]] DiffOutcome diff_program_run(const CimProgram& program,
                                           const std::vector<bool>& inputs,
                                           Fabric& reference, Fabric& subject);

}  // namespace memcim
