package crowdmax

import "crowdmax/internal/degrade"

// Guarantee is the machine-checkable quality label attached to a Result: the
// distance bound that holds between the returned element and the true
// maximum. Labels order by Strength; a degraded run reports the label of the
// rung that actually produced its answer, never a stronger one.
type Guarantee = degrade.Guarantee

// The guarantee labels of the default quality ladder, strongest first.
const (
	// Guarantee2DeltaE is Theorem 1's deterministic bound d(M, e) ≤ 2δe.
	Guarantee2DeltaE = degrade.Guarantee2DeltaE
	// Guarantee3DeltaEWHP is the randomized bound d(M, e) ≤ 3δe w.h.p.
	Guarantee3DeltaEWHP = degrade.Guarantee3DeltaEWHP
	// Guarantee2DeltaESubset is 2δe over a budget-shrunk candidate subset.
	Guarantee2DeltaESubset = degrade.Guarantee2DeltaESubset
	// GuaranteeDeltaN is the naïve-only majority-vote bound δn.
	GuaranteeDeltaN = degrade.GuaranteeDeltaN
	// GuaranteeNone marks a best-so-far answer with no distance bound.
	GuaranteeNone = degrade.GuaranteeNone
)

// DegradeDecision is one entry of the degradation controller's append-only
// decision log: which rung was chosen at which decision point, and why every
// stronger rung was skipped.
type DegradeDecision = degrade.Decision

// StrongestGuaranteeFor returns the strongest guarantee label the named
// quality rung may honestly attach to an answer, over the standard rung
// names (the degradation ladder's rungs plus the undegraded
// "expert-all-play-all" natural rung). ok is false for unknown names.
// Harnesses and services use it to validate label honesty: a Result whose
// Guarantee is stronger than StrongestGuaranteeFor(Result.Rung) is lying.
func StrongestGuaranteeFor(rung string) (g Guarantee, ok bool) {
	return degrade.StrongestLabel(rung)
}

// DegradeConfig enables graceful degradation: instead of failing a run when
// the expert backend dies or the budget drains, the session walks down the
// quality ladder — and back up when a quarantined pool heals — and reports
// the guarantee the answer actually achieved in Result.Guarantee. The ladder
// is fixed, strongest first:
//
//	expert-2maxfind   (2δe)         2-MaxFind over the candidate set S
//	expert-randomized (3δe-whp)     randomized Algorithm 5 over S
//	expert-shrunk     (2δe@subset)  2-MaxFind over a budget-sized sample of S
//	naive-majority    (δn)          all-play-all over S with naïve workers
//	best-so-far       (no bound)    return the current leader, spend nothing
//
// Each rung may fail twice before the controller stops retrying it. A
// deadline that has already passed blocks every paying rung; the controller
// does not estimate whether a rung would finish before the deadline.
// Injected crashes (ErrInjectedCrash) and context cancellation stay fatal:
// crash recovery is Session.ResumeWorkload's job.
//
// Ladder decisions are deterministic in the session seed and the observed
// comparison stream, so a resumed run replaying a checkpoint lands on the
// same rung with the same decision log. The struct has no fields; a non-nil
// Config.Degrade turns the controller on.
type DegradeConfig struct{}
