// Package degrade implements graceful degradation for two-phase max-finding
// runs: a fixed quality ladder plus a supervisor (Controller) that walks a
// run down the ladder when worker classes fail, budgets drain, or the
// deadline passes — and back up when a quarantined pool heals.
//
// The paper's guarantees are tiered: phase 2 with experts yields
// d(M, e) ≤ 2δe (2-MaxFind, Theorem 1) or ≤ 3δe w.h.p. (the randomized
// Algorithm 5), while naïve-only answers can only be trusted to δn. A
// production run should therefore not die when the expert backend goes
// away mid-phase-2: it should fall to the strongest rung whose
// preconditions still hold, keep serving, and report the guarantee it
// actually achieved. Each Rung is one policy of the fixed ladder, with
// machine-checkable preconditions (active experts, budget headroom against
// the rung's cost estimate, a deadline not yet passed) and the Guarantee
// label its policy delivers. The Controller makes deterministic, seeded
// decisions at phase boundaries and on mid-phase failures, records every
// decision in an append-only log whose FNV hash is checkpointed, and never
// reports a label stronger than the rung that produced the answer. The same
// cost estimates size the service's admission reservation (WorstCase).
//
// Decisions are pure functions of the live Signals sample and the
// controller's accumulated failure state — no wall clock, no unseeded
// randomness — so a resumed run replaying the same comparison stream lands
// on the same rung with the same decision log.
package degrade

import (
	"fmt"
	"math"

	"crowdmax/internal/core"
)

// Guarantee is a machine-checkable quality label: the distance bound that
// holds between the returned element and the true maximum.
type Guarantee string

// The guarantee labels of the ladder, strongest first.
const (
	// Guarantee2DeltaE is Theorem 1's deterministic bound d(M, e) ≤ 2δe
	// (2-MaxFind or all-play-all over the full candidate set).
	Guarantee2DeltaE Guarantee = "2δe"
	// Guarantee3DeltaEWHP is the randomized phase 2's bound d(M, e) ≤ 3δe
	// with high probability (Lemma 4).
	Guarantee3DeltaEWHP Guarantee = "3δe-whp"
	// Guarantee2DeltaESubset is 2δe relative to a shrunk candidate subset:
	// the expert tournament was exact, but over a budget-sized sample of S
	// that may have dropped the true maximum.
	Guarantee2DeltaESubset Guarantee = "2δe@subset"
	// GuaranteeDeltaN is the naïve-only bound δn: the answer is a
	// majority-vote winner among the candidates using naïve workers.
	GuaranteeDeltaN Guarantee = "δn"
	// GuaranteeNone marks a best-so-far answer with no distance bound.
	GuaranteeNone Guarantee = "best-so-far"
)

// Strength totally orders guarantees; higher is stronger. Unknown labels
// rank 0, alongside GuaranteeNone.
func (g Guarantee) Strength() int {
	switch g {
	case Guarantee2DeltaE:
		return 4
	case Guarantee3DeltaEWHP:
		return 3
	case Guarantee2DeltaESubset:
		return 2
	case GuaranteeDeltaN:
		return 1
	default:
		return 0
	}
}

// Rung is one policy on the quality ladder. The ladder is fixed, and a
// rung's value is its position on it, strongest first:
//
//	expert-2maxfind   (2δe)         2-MaxFind over S
//	expert-randomized (3δe-whp)     Algorithm 5 over S
//	expert-shrunk     (2δe@subset)  2-MaxFind over a budget-sized sample of S
//	naive-majority    (δn)          all-play-all over S with naïve workers
//	best-so-far       (no bound)    return the current leader, spend nothing
//
// The controller always picks the first eligible rung, so the order encodes
// preference. A rung's label is a function of the rung, so no rung can
// claim more than its policy delivers.
type Rung int

const (
	// RungExpert2MaxFind runs 2-MaxFind over the full candidate set.
	RungExpert2MaxFind Rung = iota
	// RungExpertRandomized runs the randomized Algorithm 5 over the full
	// candidate set.
	RungExpertRandomized
	// RungExpertShrunk runs 2-MaxFind over a seeded random subset of the
	// candidates sized to the remaining expert budget.
	RungExpertShrunk
	// RungNaiveMajority runs an all-play-all tournament over the
	// candidates with naïve workers and returns the win-count leader.
	RungNaiveMajority
	// RungBestSoFar returns the best answer established so far without
	// spending another comparison. Always eligible; the ladder ends here.
	RungBestSoFar

	numRungs = RungBestSoFar + 1
)

var (
	rungNames = [numRungs]string{
		"expert-2maxfind", "expert-randomized", "expert-shrunk", "naive-majority", "best-so-far",
	}
	rungGuarantees = [numRungs]Guarantee{
		Guarantee2DeltaE, Guarantee3DeltaEWHP, Guarantee2DeltaESubset, GuaranteeDeltaN, GuaranteeNone,
	}
)

func (r Rung) valid() bool { return r >= 0 && r < numRungs }

// String returns the rung's name, as decisions, results and checkpoints
// record it.
func (r Rung) String() string {
	if !r.valid() {
		return fmt.Sprintf("rung(%d)", int(r))
	}
	return rungNames[r]
}

// Guarantee returns the label an answer produced by the rung carries.
func (r Rung) Guarantee() Guarantee {
	if !r.valid() {
		return GuaranteeNone
	}
	return rungGuarantees[r]
}

// expert reports whether the rung spends expert comparisons.
func (r Rung) expert() bool { return r >= RungExpert2MaxFind && r <= RungExpertShrunk }

// CostEstimate returns the rung's worst-case comparison count over s
// candidates in its worker class — the number the controller holds against
// remaining budget. Estimates lean pessimistic: refusing a rung the budget
// could just barely afford only costs quality, while committing to one it
// cannot afford wastes the comparisons already spent when the refusal lands.
func (r Rung) CostEstimate(s int) int64 {
	s = max(s, 0)
	switch r {
	case RungExpert2MaxFind:
		return int64(math.Ceil(core.TwoMaxFindUpperBound(s)))
	case RungExpertRandomized:
		// Algorithm 5's Θ(un) hides large constants; 160·s tracks the
		// measured constant of this implementation's repetition counts.
		return 160 * int64(s)
	case RungExpertShrunk:
		// The shrunk rung sizes its subset to the budget, so its minimum
		// viable spend is a 2-element tournament.
		return RungExpert2MaxFind.CostEstimate(2)
	case RungNaiveMajority:
		return int64(s) * int64(s-1) / 2
	}
	return 0
}

// WorstCase returns the most any rung may spend over s candidates, per
// worker class: the envelope an admission reservation must cover so that
// every walk down the ladder stays within it.
func WorstCase(s int) (naive, expert int64) {
	for r := Rung(0); r < numRungs; r++ {
		if r.expert() {
			expert = max(expert, r.CostEstimate(s))
		} else {
			naive = max(naive, r.CostEstimate(s))
		}
	}
	return naive, expert
}

// StrongestLabel returns the strongest guarantee the named quality rung may
// honestly attach to an answer, over the standard rung names — the ladder's
// rungs, the undegraded "expert-all-play-all" natural rung, and the
// crowd-scoring rungs ("score-expert": experts extracted the answer from a
// score-derived shortlist, so the bound is 2δe relative to that subset;
// "score-naive": the answer is only the aggregated-score leader). ok is
// false for names outside that set; harnesses and services use the pair to
// reject results that claim an unknown rung or a label stronger than the
// rung can deliver.
func StrongestLabel(rung string) (g Guarantee, ok bool) {
	for r := Rung(0); r < numRungs; r++ {
		if rung == rungNames[r] {
			return rungGuarantees[r], true
		}
	}
	switch rung {
	case "expert-all-play-all":
		return Guarantee2DeltaE, true
	case "score-expert":
		return Guarantee2DeltaESubset, true
	case "score-naive":
		return GuaranteeDeltaN, true
	}
	return GuaranteeNone, false
}
