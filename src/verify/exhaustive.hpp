// The exhaustive model check: explore every state reachable from the seeds
// (by default every state of the codec's depth box — Theorem 1's
// arbitrary-start premise), label it, and decide
//
//   closure      no legitimate state steps outside I;
//   convergence  every weakly fair run reaches I;
//   progress     no hungry process stays hungry forever on a fair run
//                (crash-free instances only);
//   locality     failure locality 2 (Theorems 2/3): against the instance's
//                own dead set, and for each live process crashed as a
//                demonic victim (one re-exploration per orbit of the
//                symmetry group), no far eating violation persists and no
//                far hungry process starves.
//
// Properties are decided in that order and the first violation ends the
// check with a shortest replayable counterexample. `diners_mc --exhaustive`
// is this function plus flag parsing and printing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "core/diners_system.hpp"
#include "verify/canonical.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"

namespace diners::verify {

struct ExhaustiveOptions {
  /// Settings of every exploration. expected_states and demon_victim are
  /// set per exploration and ignored here.
  Explorer::Options explore;
  /// Seed with every key of the codec's depth box; false seeds with the
  /// prototype's own state alone.
  bool box_seeds = true;
  bool closure = true;
  bool convergence = true;
  bool progress = true;
  bool locality = true;
  /// Under locality: re-explore with each live process as a demonic crash
  /// victim. The prototype's own dead set is checked either way.
  bool victims = true;
};

struct ExhaustiveResult {
  enum class Verdict { kVerified, kCounterexample, kInconclusive };
  Verdict verdict = Verdict::kVerified;
  /// The first violation found, lifted to a replayable trace.
  std::optional<Counterexample> cex;

  std::uint64_t healthy_states = 0;
  std::uint64_t healthy_arcs = 0;
  std::uint32_t layers = 0;
  std::uint64_t legitimate = 0;
  /// Totals over the healthy exploration and every demonic-victim
  /// re-exploration.
  std::uint64_t explored_states_total = 0;
  double explore_seconds = 0;
  StateGraph::ReductionStats reduction;
  /// Property-check phases, in seconds. locality sums the labelling and
  /// checks of every victim and of the prototype's own dead set.
  struct Phases {
    double label = 0;
    double closure = 0;
    double convergence = 0;
    double progress = 0;
    double locality = 0;
  } phases;
};

/// Runs the check on `prototype` (topology, config, needs, alive set and,
/// without box seeds, start state) over `codec`'s depth box. Progress
/// lines — exploration sizes, each property's OK, why a run is
/// inconclusive — go to `log` as they happen. A box whose seeds exceed the
/// state cap or physical memory is refused as inconclusive before anything
/// is allocated.
[[nodiscard]] ExhaustiveResult check_exhaustive(
    const core::DinersSystem& prototype, const StateCodec& codec,
    const ExhaustiveOptions& options, std::ostream& log);

}  // namespace diners::verify
