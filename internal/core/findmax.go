package core

import (
	"context"
	"fmt"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
)

// Phase2Algorithm selects how the second phase extracts the maximum from the
// candidate set (Section 4.1.2).
type Phase2Algorithm int

const (
	// Phase2TwoMaxFind uses the deterministic 2-MaxFind (Algorithm 3):
	// O(un^{3/2}) expert comparisons, guarantee d(M, e) ≤ 2δe. This is
	// the option the paper uses in its simulations, because at practical
	// sizes it is both cheaper and more accurate than the randomized
	// alternative.
	Phase2TwoMaxFind Phase2Algorithm = iota
	// Phase2Randomized uses the randomized Algorithm 5: Θ(un) expert
	// comparisons (with very large constants), guarantee d(M, e) ≤ 3δe
	// w.h.p. This is the option used for the asymptotic analysis
	// (Lemmas 4 and 5).
	Phase2Randomized
	// Phase2AllPlayAll plays a single all-play-all tournament among the
	// candidates: Θ(un²) expert comparisons, guarantee d(M, e) ≤ 2δe.
	// Dominated by 2-MaxFind; included as a baseline.
	Phase2AllPlayAll
)

// String returns the option's name.
func (p Phase2Algorithm) String() string {
	switch p {
	case Phase2TwoMaxFind:
		return "2-MaxFind"
	case Phase2Randomized:
		return "randomized"
	case Phase2AllPlayAll:
		return "all-play-all"
	default:
		return fmt.Sprintf("phase2(%d)", int(p))
	}
}

// FindMaxOptions configures Algorithm 1.
type FindMaxOptions struct {
	// Un is the un(n) estimate handed to the filter phase; see
	// FilterOptions.Un.
	Un int
	// Phase2 selects the second-phase algorithm; the zero value is
	// 2-MaxFind, matching the paper's simulations.
	Phase2 Phase2Algorithm
	// TrackLosses enables the Appendix A cross-iteration loss counters
	// in phase 1.
	TrackLosses bool
	// Randomized configures Algorithm 5 when Phase2 is Phase2Randomized.
	Randomized RandomizedOptions
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
// within 2δe of the maximum with 2-MaxFind (Theorem 1) or within 3δe w.h.p.
// with the randomized phase 2 (Lemma 4).
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
	candidates, err := Filter(ctx, items, naive, FilterOptions{Un: opt.Un, TrackLosses: opt.TrackLosses})
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
	best, err := RunPhase2(ctx, candidates, expert, opt.Phase2, opt.Randomized)
	if err != nil {
		return FindMaxResult{Best: best, Candidates: candidates}, fmt.Errorf("phase 2: %w", err)
	}
	if sc != nil {
		d := expert.LedgerSnapshot().Sub(e0)
		sc.Event("alg1.phase2",
			obs.Fs("algo", opt.Phase2.String()), obs.Fi("candidates", int64(len(candidates))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("steps", d.Steps))
	}
	if opt.OnPhase != nil {
		opt.OnPhase("done", candidates)
	}
	return FindMaxResult{Best: best, Candidates: candidates}, nil
}

// RunPhase2 applies the selected second-phase algorithm to the candidate
// set using the expert oracle. On error the returned item is the algorithm's
// best-so-far partial leader (zero when none was established).
func RunPhase2(ctx context.Context, candidates []item.Item, expert *tournament.Oracle, algo Phase2Algorithm, ropt RandomizedOptions) (item.Item, error) {
	switch algo {
	case Phase2TwoMaxFind:
		return TwoMaxFind(ctx, candidates, expert)
	case Phase2Randomized:
		if ropt.R == nil {
			ropt.R = rng.New(0)
		}
		return RandomizedMaxFind(ctx, candidates, expert, ropt)
	case Phase2AllPlayAll:
		if len(candidates) == 0 {
			return item.Item{}, ErrNoItems
		}
		res, err := tournament.RoundRobin(ctx, candidates, expert)
		if err != nil {
			return candidates[0], err
		}
		return res.TopByWins(), nil
	default:
		return item.Item{}, fmt.Errorf("core: unknown phase-2 algorithm %d", int(algo))
	}
}
