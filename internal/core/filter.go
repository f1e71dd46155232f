// Package core implements the paper's algorithms: the two-phase expert-aware
// max-finding algorithm (Algorithm 1), its naïve-worker filtering phase
// (Algorithm 2), the deterministic 2-MaxFind and randomized max-find of
// Ajtai et al. used in the second phase (Algorithms 3 and 5), the
// training-set estimation of un(n) (Algorithm 4), and the upper/lower bound
// formulas of Sections 4.2–4.3.
package core

import (
	"context"
	"errors"
	"fmt"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// ErrNoItems is returned when an algorithm is invoked on an empty input.
var ErrNoItems = errors.New("core: empty input set")

// FilterOptions configures Algorithm 2.
type FilterOptions struct {
	// Un is the (estimated) number of elements naïve-indistinguishable
	// from the maximum, un(n) ≥ 1. Overestimating costs money but not
	// accuracy; underestimating may discard the maximum (Section 5.2).
	Un int
	// TrackLosses enables the second Appendix A optimization: elements
	// accumulating un distinct-opponent losses across iterations are
	// discarded at the end of each iteration, shrinking later rounds.
	TrackLosses bool
}

// filterState carries one filter run's per-iteration working set. The
// survivor buffers are arena-style: allocated once from the input size and
// swapped between iterations, and the group tournaments share one retained
// scratch, so once the first group has sized the buffers the iteration loop
// allocates nothing (Appendix A loss recording aside).
type filterState struct {
	un, g   int
	tracker *tournament.LossTracker
	sc      *obs.Scope

	li   []item.Item // current survivors (this iteration's input)
	next []item.Item // survivors being accumulated (the swap buffer)
	tops []item.Item // each group's top-wins element (underestimation fallback)
	iter int
	gi   int

	// round is every group tournament's working storage, retained across
	// groups and iterations; each tournament's Result.Wins aliases it, so
	// applyGroup must consume the result before the next group plays.
	round tournament.RoundScratch
}

// applyGroup folds one group's tournament result into the iteration state:
// threshold survivors, the group top, loss recording, and the per-group
// trace event.
func (st *filterState) applyGroup(group []item.Item, res tournament.Result) {
	st.tops = append(st.tops, res.TopByWins())
	need := len(group) - st.un
	kept := 0
	for i, it := range group {
		if st.tracker != nil {
			for _, w := range res.Losers[i] {
				st.tracker.Record(it.ID, w)
			}
		}
		if res.Wins[i] >= need {
			st.next = append(st.next, it)
			kept++
		}
	}
	if st.sc.Tracing() {
		st.sc.Event("filter.group",
			obs.Fi("iter", int64(st.iter)), obs.Fi("group", int64(st.gi)),
			obs.Fi("size", int64(len(group))), obs.Fi("survivors", int64(kept)))
	}
	st.gi++
}

// finishIteration closes one iteration: the empty-survivor fallback, the
// Appendix A early discards, the buffer swap, and the progress check.
func (st *filterState) finishIteration() error {
	prev := len(st.li)
	if len(st.next) == 0 {
		// Only possible when un is underestimated (Section 5.2: "it
		// could return an empty set of elements"): a group of g
		// elements has a guaranteed survivor only when the win
		// threshold g − un is at most the ⌈(g−1)/2⌉ wins its best
		// element must collect. Rather than returning an empty set we
		// keep each group's top-wins element, degrading accuracy but
		// staying total — matching the measured behaviour the paper
		// reports for small estimation factors.
		st.next = append(st.next, st.tops...)
	}
	if st.tracker != nil {
		// Appendix A: an element that has lost to at least un distinct
		// opponents overall would lose more than un − 1 games in a
		// global all-play-all tournament, so by Lemma 1 it cannot be
		// the maximum.
		kept := st.next[:0]
		for _, it := range st.next {
			if st.tracker.Losses(it.ID) < st.un {
				kept = append(kept, it)
			}
		}
		st.next = kept
	}
	st.li, st.next = st.next, st.li[:0]
	st.tops = st.tops[:0]
	if st.sc != nil {
		st.sc.Round()
		st.sc.Event("filter.iter",
			obs.Fi("iter", int64(st.iter)), obs.Fi("in", int64(prev)), obs.Fi("out", int64(len(st.li))))
	}
	st.iter++
	st.gi = 0
	if len(st.li) >= prev {
		// Lemma 2 guarantees strict progress; reaching here means the
		// oracle violated the comparison model (e.g. inconsistent
		// custom comparator answering both directions of one pair
		// within a tournament cannot do this, but a buggy one might).
		return fmt.Errorf("core: Filter made no progress at %d elements", prev)
	}
	return nil
}

// Filter is Algorithm 2: using only the naïve oracle, it reduces items to a
// candidate set of size at most 2·un − 1 that — under the threshold model
// with ε = 0 — is guaranteed to contain the maximum (Lemma 3), performing at
// most 4·n·un comparisons.
//
// Elements are partitioned into groups of size g = 4·un; each group plays an
// all-play-all tournament and only elements winning at least |group| − un
// games survive; the process repeats until fewer than 2·un elements remain.
// If the input is already smaller than 2·un, it is returned unchanged (no
// comparisons are needed).
//
// Each group's tournament is one logical step, as in the paper's execution
// model.
//
// On cancellation or budget exhaustion Filter returns the survivor set of
// the last fully completed iteration alongside the error — a usable (if
// larger than promised) candidate set, since completed iterations never
// discard the maximum.
func Filter(ctx context.Context, items []item.Item, naive *tournament.Oracle, opt FilterOptions) ([]item.Item, error) {
	if len(items) == 0 {
		return nil, ErrNoItems
	}
	if opt.Un < 1 {
		return nil, fmt.Errorf("core: Filter requires un ≥ 1, got %d", opt.Un)
	}
	st := &filterState{
		un: opt.Un,
		g:  4 * opt.Un,
		sc: naive.Obs().WithPhase(obs.PhaseFilter),
		li: make([]item.Item, len(items)),
		// Arena-style: both survivor buffers and the group-top scratch are
		// sized once from the input and reused by every iteration.
		next: make([]item.Item, 0, len(items)),
		tops: make([]item.Item, 0, (len(items)+4*opt.Un-1)/(4*opt.Un)),
	}
	copy(st.li, items)
	if opt.TrackLosses {
		st.tracker = tournament.NewLossTracker()
	}

	var startLedger cost.Snapshot
	if st.sc != nil {
		startLedger = naive.LedgerSnapshot()
		st.sc.Event("filter.start",
			obs.Fi("n", int64(len(items))), obs.Fi("un", int64(st.un)))
	}

	if err := filterGroups(ctx, naive, st); err != nil {
		return st.li, err
	}
	if st.sc != nil {
		d := naive.LedgerSnapshot().Sub(startLedger)
		st.sc.PhaseComparisons(d.Comparisons)
		st.sc.Event("filter.done",
			obs.Fi("kept", int64(len(st.li))), obs.Fi("iters", int64(st.iter)),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("memo_hits", d.TotalMemoHits()))
	}
	return st.li, nil
}

// filterGroups runs the iterations: groups play their tournaments one batch
// at a time, in partition order.
func filterGroups(ctx context.Context, naive *tournament.Oracle, st *filterState) error {
	opts := tournament.RoundRobinOpts{RecordLosers: st.tracker != nil}
	for len(st.li) >= 2*st.un {
		for start := 0; start < len(st.li); start += st.g {
			end := min(start+st.g, len(st.li))
			group := st.li[start:end]
			if end == len(st.li) && len(group) <= st.un {
				// The final group is too small for its tournament to
				// eliminate anyone: everyone advances.
				st.next = append(st.next, group...)
				continue
			}
			res, err := st.round.RoundRobin(ctx, group, naive, opts)
			if err != nil {
				// Partial result: the survivors of the last completed
				// iteration (the current iteration's partial progress is
				// discarded — a half-played group must not eliminate).
				return err
			}
			st.applyGroup(group, res)
		}
		if err := st.finishIteration(); err != nil {
			return err
		}
	}
	return nil
}
