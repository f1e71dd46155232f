package core

import (
	"context"
	"math"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// TwoMaxFind is Algorithm 3 (2-MaxFind, from Ajtai et al. Section 3.1): a
// deterministic max-finding algorithm that, under the threshold model
// T(δ, 0), returns an element within 2δ of the maximum using O(s^{3/2})
// comparisons on s elements.
//
// While more than ⌈√s⌉ candidates remain, an arbitrary set of ⌈√s⌉
// candidates plays an all-play-all tournament; the element x with the most
// wins is compared against every candidate, and candidates losing to x are
// eliminated. A final all-play-all tournament among the at most ⌈√s⌉
// survivors returns the element with the most wins.
//
// The sample-tournament results are reused in the elimination pass (the
// first Appendix A optimization): besides saving comparisons, this is what
// guarantees progress — and hence the O(s^{3/2}) bound — even against
// adversarial tie-breaking, because x's tournament victims stay eliminated.
//
// On cancellation or budget exhaustion the current leader — the most recent
// round's pivot, i.e. the best element identified so far — is returned
// alongside the error, so a truncated run still yields a usable answer.
//
// Each round is two sequential batches — the sample tournament, then the
// pivot pass — because each needs the previous one's result.
func TwoMaxFind(ctx context.Context, items []item.Item, o *tournament.Oracle) (item.Item, error) {
	s := len(items)
	if s == 0 {
		return item.Item{}, ErrNoItems
	}
	if s == 1 {
		return items[0], nil
	}
	k := int(math.Ceil(math.Sqrt(float64(s))))
	if k < 2 {
		k = 2
	}
	sc := o.Obs().WithPhase(obs.PhaseTwoMaxFind)
	var startLedger cost.Snapshot
	if sc != nil {
		startLedger = o.LedgerSnapshot()
		sc.Event("2maxfind.start", obs.Fi("s", int64(s)), obs.Fi("k", int64(k)))
	}
	candidates := make([]item.Item, s)
	copy(candidates, items)
	leader := candidates[0]
	beaten := make(map[int]bool, k) // the pivot's sample victims, reused across rounds
	round := 0
	for len(candidates) > k {
		before := len(candidates)
		sample := candidates[:k]
		res, err := tournament.RoundRobinWith(ctx, sample, o, tournament.RoundRobinOpts{RecordLosers: true})
		if err != nil {
			return leader, err
		}
		// The top-by-wins element becomes the round's pivot and leader. Its
		// tournament victims are removed from the candidate set directly:
		// those comparisons were already performed and must not be re-asked
		// (their answers could flip below the threshold).
		x := res.TopByWins()
		leader = x
		clear(beaten)
		for i := range sample {
			for _, w := range res.Losers[i] {
				if w == x.ID {
					beaten[sample[i].ID] = true
				}
			}
		}
		remaining := candidates[:0]
		for _, c := range candidates {
			if !beaten[c.ID] {
				remaining = append(remaining, c)
			}
		}
		candidates, _, err = tournament.PivotPass(ctx, x, remaining, o)
		if err != nil {
			return leader, err
		}
		if sc != nil {
			sc.Round()
			sc.Event("2maxfind.round",
				obs.Fi("round", int64(round)), obs.Fi("candidates", int64(before)),
				obs.Fi("survivors", int64(len(candidates))))
		}
		round++
	}
	final, err := tournament.RoundRobin(ctx, candidates, o)
	if err != nil {
		return leader, err
	}
	if sc != nil {
		d := o.LedgerSnapshot().Sub(startLedger)
		sc.PhaseComparisons(d.Comparisons)
		sc.Event("2maxfind.done",
			obs.Fi("rounds", int64(round)), obs.Fi("finalists", int64(len(candidates))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("memo_hits", d.TotalMemoHits()))
	}
	return final.TopByWins(), nil
}
