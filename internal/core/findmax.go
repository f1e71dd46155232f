package core

import (
	"context"
	"fmt"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// FindMaxOptions configures Algorithm 1.
type FindMaxOptions struct {
	// Un is the un(n) estimate handed to the filter phase; see
	// FilterOptions.Un.
	Un int
	// OnPhase, when set, is called at phase boundaries with the boundary
	// label ("phase1" after the filter, "done" after phase 2) and the
	// survivor set at that point. The session layer hooks checkpoint
	// snapshots here. Called synchronously on the algorithm goroutine.
	OnPhase func(phase string, survivors []item.Item)
}

// FindMaxResult reports the outcome of a two-phase run.
type FindMaxResult struct {
	// Best is the returned approximation of the maximum element.
	Best item.Item
	// Candidates is the set S produced by phase 1 (|S| ≤ 2·un − 1),
	// in filter output order.
	Candidates []item.Item
}

// FindMax is Algorithm 1, the paper's primary contribution: naïve workers
// filter the n elements down to at most 2·un − 1 candidates containing the
// maximum (Algorithm 2), then experts extract an element within O(δe) of the
// maximum from the candidates. Under the threshold model with ε = 0 it
// performs at most 4·n·un naïve comparisons, and the returned element is
// within 2δe of the maximum (Theorem 1). Phase 2 is 2-MaxFind, the
// algorithm the paper uses in its simulations; the degradation ladder reaches
// the randomized Algorithm 5 through RandomizedMaxFind.
//
// Costs accrue to the ledgers bound to the two oracles, so callers can read
// xn and xe (and the monetary cost C(n)) after the run.
//
// On cancellation or budget exhaustion FindMax returns the best-so-far
// partial result alongside the error (wrapped as "phase 1:" or "phase 2:",
// with errors.Is reaching the cause): a phase-1 truncation yields the last
// completed filter iteration's survivors in Candidates (Best zero); a
// phase-2 truncation yields the full candidate set plus the current leader
// in Best.
func FindMax(ctx context.Context, items []item.Item, naive, expert *tournament.Oracle, opt FindMaxOptions) (FindMaxResult, error) {
	sc := naive.Obs()
	if sc == nil {
		sc = expert.Obs()
	}
	var n0 cost.Snapshot
	if sc != nil {
		n0 = naive.LedgerSnapshot()
	}
	candidates, err := Filter(ctx, items, naive, FilterOptions{Un: opt.Un})
	if err != nil {
		return FindMaxResult{Candidates: candidates}, fmt.Errorf("phase 1: %w", err)
	}
	if len(candidates) == 0 {
		return FindMaxResult{}, fmt.Errorf("phase 1: empty candidate set (un=%d underestimated?)", opt.Un)
	}
	if sc != nil {
		d := naive.LedgerSnapshot().Sub(n0)
		sc.Event("alg1.phase1",
			obs.Fi("n", int64(len(items))), obs.Fi("candidates", int64(len(candidates))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("steps", d.Steps))
	}
	if opt.OnPhase != nil {
		opt.OnPhase("phase1", candidates)
	}
	var e0 cost.Snapshot
	if sc != nil {
		e0 = expert.LedgerSnapshot()
	}
	best, err := TwoMaxFind(ctx, candidates, expert)
	if err != nil {
		return FindMaxResult{Best: best, Candidates: candidates}, fmt.Errorf("phase 2: %w", err)
	}
	if sc != nil {
		d := expert.LedgerSnapshot().Sub(e0)
		sc.Event("alg1.phase2",
			obs.Fs("algo", "2-MaxFind"), obs.Fi("candidates", int64(len(candidates))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("steps", d.Steps))
	}
	if opt.OnPhase != nil {
		opt.OnPhase("done", candidates)
	}
	return FindMaxResult{Best: best, Candidates: candidates}, nil
}
