// Package degrade implements graceful degradation for two-phase max-finding
// runs: an explicit quality ladder plus a supervisor (Controller) that walks
// a run down the ladder when worker classes fail, budgets drain, or
// deadlines close in — and back up when a quarantined pool heals.
//
// The paper's guarantees are tiered: phase 2 with experts yields
// d(M, e) ≤ 2δe (2-MaxFind, Theorem 1) or ≤ 3δe w.h.p. (the randomized
// Algorithm 5), while naïve-only answers can only be trusted to δn. A
// production run should therefore not die when the expert backend goes
// away mid-phase-2: it should fall to the strongest rung whose
// preconditions still hold, keep serving, and report the guarantee it
// actually achieved. Each Rung is a named policy with machine-checkable
// preconditions (minimum budget headroom, minimum active experts, remaining
// deadline vs. a cost estimate) and a Guarantee label; the Controller makes
// deterministic, seeded decisions at phase boundaries and on mid-phase
// failures, records every decision in an append-only log whose FNV hash is
// checkpointed, and never reports a label stronger than the rung that
// produced the answer.
//
// Decisions are pure functions of the ladder, the live Signals sample, and
// the controller's accumulated failure state — no wall clock, no unseeded
// randomness — so a resumed run replaying the same comparison stream lands
// on the same rung with the same decision log.
package degrade

import (
	"fmt"
	"math"
)

// Guarantee is a machine-checkable quality label: the distance bound that
// holds between the returned element and the true maximum.
type Guarantee string

// The guarantee labels of the default ladder, strongest first.
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

// RungKind selects the policy a ladder rung executes.
type RungKind int

const (
	// RungExpert2MaxFind runs 2-MaxFind over the full candidate set.
	RungExpert2MaxFind RungKind = iota
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
	// spending another comparison. Always eligible; every ladder ends here.
	RungBestSoFar
)

// String returns the kind's policy name.
func (k RungKind) String() string {
	switch k {
	case RungExpert2MaxFind:
		return "expert-2maxfind"
	case RungExpertRandomized:
		return "expert-randomized"
	case RungExpertShrunk:
		return "expert-shrunk"
	case RungNaiveMajority:
		return "naive-majority"
	case RungBestSoFar:
		return "best-so-far"
	default:
		return fmt.Sprintf("rung(%d)", int(k))
	}
}

// Rung is one named policy on the quality ladder.
type Rung struct {
	// Name identifies the rung in decisions, results, and checkpoints.
	Name string
	// Kind selects the policy the rung executes.
	Kind RungKind
	// Guarantee is the label an answer produced by this rung may carry.
	Guarantee Guarantee
	// MinExperts is the minimum number of active expert workers required
	// (checked against Signals.ActiveExperts when the pool exposes it);
	// 0 = no requirement.
	MinExperts int
	// MinBudget is an explicit floor on remaining comparisons for the
	// rung's worker class, checked in addition to the cost estimate;
	// 0 = no floor.
	MinBudget int64
	// MinTrust is the minimum agreement-graph extraction confidence
	// (Signals.TrustConfidence) the rung requires; checked only when a
	// graph scorer exposes the signal. 0 = no requirement.
	MinTrust float64
}

// expert reports whether the rung spends expert comparisons.
func (r Rung) expert() bool {
	switch r.Kind {
	case RungExpert2MaxFind, RungExpertRandomized, RungExpertShrunk:
		return true
	}
	return false
}

// CostEstimate returns the rung's worst-case comparison count over s
// candidates in its worker class — the number the controller holds against
// remaining budget and deadline. Estimates lean pessimistic: refusing a
// rung the budget could just barely afford only costs quality, while
// committing to one it cannot afford wastes the comparisons already spent
// when the refusal lands.
func (r Rung) CostEstimate(s int) int64 {
	if s < 0 {
		s = 0
	}
	switch r.Kind {
	case RungExpert2MaxFind:
		return int64(math.Ceil(2 * math.Pow(float64(s), 1.5)))
	case RungExpertRandomized:
		// Algorithm 5's Θ(un) hides large constants; 160·s tracks the
		// measured constant of this implementation's repetition counts.
		return 160 * int64(s)
	case RungExpertShrunk:
		// The shrunk rung sizes its subset to the budget, so its minimum
		// viable spend is a 2-element tournament.
		return shrunkCost(2)
	case RungNaiveMajority:
		return int64(s) * int64(s-1) / 2
	default:
		return 0
	}
}

// shrunkCost is 2-MaxFind's worst case over k elements — what the shrunk
// rung pays for a subset of size k.
func shrunkCost(k int) int64 {
	return int64(math.Ceil(2 * math.Pow(float64(k), 1.5)))
}

// Ladder is an ordered quality ladder, strongest rung first. The controller
// always picks the first eligible rung, so order encodes preference.
type Ladder []Rung

// DefaultLadder returns the standard five-rung ladder, strongest first:
//
//	expert-2maxfind   (2δe)         2-MaxFind over S
//	expert-randomized (3δe-whp)     Algorithm 5 over S
//	expert-shrunk     (2δe@subset)  2-MaxFind over a budget-sized sample of S
//	naive-majority    (δn)          all-play-all over S with naïve workers
//	best-so-far       (no bound)    return the current leader, spend nothing
func DefaultLadder() Ladder {
	return Ladder{
		{Name: "expert-2maxfind", Kind: RungExpert2MaxFind, Guarantee: Guarantee2DeltaE, MinExperts: 1},
		{Name: "expert-randomized", Kind: RungExpertRandomized, Guarantee: Guarantee3DeltaEWHP, MinExperts: 1},
		{Name: "expert-shrunk", Kind: RungExpertShrunk, Guarantee: Guarantee2DeltaESubset, MinExperts: 1},
		{Name: "naive-majority", Kind: RungNaiveMajority, Guarantee: GuaranteeDeltaN},
		{Name: "best-so-far", Kind: RungBestSoFar, Guarantee: GuaranteeNone},
	}
}

// Validate checks structural invariants: at least one rung, unique names, a
// terminal RungBestSoFar (so the controller always has an eligible rung),
// and no rung claiming a label stronger than its kind can honestly produce.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("degrade: empty ladder")
	}
	seen := make(map[string]bool, len(l))
	for i, r := range l {
		if r.Name == "" {
			return fmt.Errorf("degrade: rung %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("degrade: duplicate rung name %q", r.Name)
		}
		seen[r.Name] = true
		if max := maxGuarantee(r.Kind); r.Guarantee.Strength() > max.Strength() {
			return fmt.Errorf("degrade: rung %q claims %q, stronger than its policy %s can deliver (%q)",
				r.Name, r.Guarantee, r.Kind, max)
		}
	}
	if last := l[len(l)-1]; last.Kind != RungBestSoFar {
		return fmt.Errorf("degrade: ladder must end in a best-so-far rung, ends in %q", last.Name)
	}
	return nil
}

// maxGuarantee is the strongest label each policy kind can honestly carry.
func maxGuarantee(k RungKind) Guarantee {
	switch k {
	case RungExpert2MaxFind:
		return Guarantee2DeltaE
	case RungExpertRandomized:
		return Guarantee3DeltaEWHP
	case RungExpertShrunk:
		return Guarantee2DeltaESubset
	case RungNaiveMajority:
		return GuaranteeDeltaN
	default:
		return GuaranteeNone
	}
}

// StrongestLabel returns the strongest guarantee the named quality rung may
// honestly attach to an answer, over the standard rung names — the
// DefaultLadder rungs, the undegraded "expert-all-play-all" natural rung,
// and the crowd-scoring rungs ("score-expert": experts extracted the answer
// from a score-derived shortlist, so the bound is 2δe relative to that
// subset; "score-naive": the answer is only the aggregated-score leader).
// ok is false for names outside that set; harnesses and services use the
// pair to reject results that claim an unknown rung or a label stronger than
// the rung can deliver.
func StrongestLabel(rung string) (g Guarantee, ok bool) {
	switch rung {
	case "expert-2maxfind", "expert-all-play-all":
		return Guarantee2DeltaE, true
	case "expert-randomized":
		return Guarantee3DeltaEWHP, true
	case "expert-shrunk", "score-expert":
		return Guarantee2DeltaESubset, true
	case "naive-majority", "score-naive":
		return GuaranteeDeltaN, true
	case "best-so-far":
		return GuaranteeNone, true
	}
	return GuaranteeNone, false
}
