package degrade

import (
	"context"
	"fmt"

	"crowdmax/internal/core"
	"crowdmax/internal/item"
	"crowdmax/internal/tournament"
)

// Options configures a supervised Run.
type Options struct {
	// Un configures the filter phase; see core.FilterOptions.
	Un int
	// Randomized configures the randomized rung; see core.RandomizedOptions.
	Randomized core.RandomizedOptions
	// Signals, when set, samples the live decision inputs before each
	// ladder decision. nil decides on Unconstrained() samples.
	Signals func() Signals
	// OnPhase mirrors core.FindMaxOptions.OnPhase: called with "phase1"
	// after the filter and "done" before a successful return, carrying the
	// survivor set. The session layer hooks checkpoint snapshots here.
	OnPhase func(phase string, survivors []item.Item)
	// OnDecision, when set, is called synchronously after every ladder
	// decision. The session layer forwards these to obs.
	OnDecision func(Decision)
}

// Outcome reports a supervised run: the answer, the rung that produced it,
// and the full decision log.
type Outcome struct {
	// Best is the returned element; the zero Item when even best-so-far
	// had nothing (phase 1 never completed and no leader was established).
	Best item.Item
	// Candidates is the filter output (nil when phase 1 failed).
	Candidates []item.Item
	// Phase1Complete reports whether the filter ran to completion — δn-or
	// stronger labels are only honest when it did.
	Phase1Complete bool
	// Rung is the ladder rung that produced Best; Rung.Guarantee() is the
	// label the answer may carry. On a fatal return no rung completed, and
	// Rung is RungBestSoFar.
	Rung Rung
	// Decisions is the controller's decision log; LogHash its FNV hash.
	Decisions []Decision
	LogHash   uint64
}

// Run executes the two-phase algorithm under ctl's supervision: filter with
// the naïve oracle, then walk the quality ladder until a rung completes.
// Where core.FindMax turns a mid-phase failure into a hard stop, Run
// reports it to the controller and re-decides — dropping to a weaker rung,
// retrying the same one, or climbing back up when a blocked precondition
// has cleared — until a rung succeeds (nil error, Outcome.Rung states the
// achieved quality) or a fatal error halts the run (non-nil error alongside
// the best-so-far Outcome). Termination is structural: every failure burns
// one of a rung's bounded attempts and the terminal best-so-far rung cannot
// fail.
func Run(ctx context.Context, items []item.Item, naive, expert *tournament.Oracle, ctl *Controller, opt Options) (Outcome, error) {
	out := Outcome{}
	sample := opt.Signals
	if sample == nil {
		sample = Unconstrained
	}
	decide := func(point string) Rung {
		sig := sample()
		sig.Phase1Done = out.Phase1Complete
		sig.Candidates = len(out.Candidates)
		r := ctl.Decide(point, sig)
		if opt.OnDecision != nil {
			opt.OnDecision(ctl.LastDecision())
		}
		return r
	}
	finish := func(err error) (Outcome, error) {
		out.Decisions = ctl.Decisions()
		out.LogHash = ctl.LogHash()
		return out, err
	}

	candidates, err := core.Filter(ctx, items, naive, core.FilterOptions{Un: opt.Un})
	if err == nil && len(candidates) == 0 {
		err = fmt.Errorf("degrade: empty candidate set (un=%d underestimated?)", opt.Un)
	}
	if err != nil {
		if ctl.ReportPhase1(err) {
			out.Rung = decide("phase1-failed")
			return finish(fmt.Errorf("phase 1: %w", err))
		}
		// Phase 1 is not retried: its partial survivor state lives inside
		// the filter, so the only honest continuation is best-so-far —
		// which the ladder walk below reaches on its own, every stronger
		// rung being blocked without a candidate set.
	} else {
		out.Candidates = candidates
		out.Phase1Complete = true
		if opt.OnPhase != nil {
			opt.OnPhase("phase1", candidates)
		}
	}

	point := "start"
	for {
		rung := decide(point)
		if rung == RungBestSoFar {
			// The terminal rung spends nothing and returns the leader the
			// failed attempts left behind (possibly the zero Item).
			out.Rung = rung
			if opt.OnPhase != nil {
				opt.OnPhase("done", out.Candidates)
			}
			return finish(nil)
		}
		best, err := runRung(ctx, rung, out.Candidates, naive, expert, ctl, sample, opt)
		if err == nil {
			out.Best = best
			out.Rung = rung
			if opt.OnPhase != nil {
				opt.OnPhase("done", out.Candidates)
			}
			return finish(nil)
		}
		if best != (item.Item{}) {
			// Keep the failed rung's partial leader: it is the answer the
			// terminal best-so-far rung falls back to.
			out.Best = best
		}
		if ctl.Report(rung, err) {
			out.Rung = RungBestSoFar
			return finish(fmt.Errorf("rung %s: %w", rung, err))
		}
		point = "error"
	}
}

// runRung executes one rung's policy over the candidate set.
func runRung(ctx context.Context, r Rung, candidates []item.Item, naive, expert *tournament.Oracle, ctl *Controller, sample func() Signals, opt Options) (item.Item, error) {
	switch r {
	case RungExpert2MaxFind:
		return core.TwoMaxFind(ctx, candidates, expert)
	case RungExpertRandomized:
		return core.RandomizedMaxFind(ctx, candidates, expert, opt.Randomized)
	case RungExpertShrunk:
		sub := ctl.Shrink(candidates, sample().ExpertRemaining)
		return core.TwoMaxFind(ctx, sub, expert)
	case RungNaiveMajority:
		res, err := tournament.RoundRobin(ctx, candidates, naive)
		if err != nil {
			return item.Item{}, err
		}
		return res.TopByWins(), nil
	default:
		return item.Item{}, fmt.Errorf("degrade: rung %s runs no policy", r)
	}
}
