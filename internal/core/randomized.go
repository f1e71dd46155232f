package core

import (
	"context"
	"errors"
	"math"
	"sort"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
)

var errNilRNG = errors.New("core: randomized algorithm requires a random source")

// randomizedC is the confidence constant c of Algorithm 5: the failure
// probability is s^{−c} and groups hold 80·(c+2) = 240 elements.
const randomizedC = 1

// RandomizedOptions configures Algorithm 5.
type RandomizedOptions struct {
	// R drives the random sampling and partitioning. Required.
	R *rng.Source
}

// RandomizedMaxFind is Algorithm 5 (from Ajtai et al. Section 3.2): a
// randomized max-finding algorithm that, under the threshold model T(δ, 0),
// returns an element within 3δ of the maximum with probability at least
// 1 − s^{−c}, using Θ(s) comparisons — but with constants so large
// (all-play-all tournaments in groups of 80·(c+2) = 240 elements, each
// round removing one element per group) that 2-MaxFind is cheaper at the
// input sizes the paper considers. The experiments of Section 5.1 reproduce this
// crossover.
//
// Each round samples s^{0.3} random elements into a reserve W, partitions
// the survivors into groups of 240, plays an all-play-all tournament in
// each group, and removes each group's minimal element (fewest wins). When
// fewer than s^{0.3} survivors remain they join W, and a final all-play-all
// tournament over W picks the winner.
//
// On cancellation or budget exhaustion the first surviving candidate is
// returned alongside the error as a best-effort partial answer.
func RandomizedMaxFind(ctx context.Context, items []item.Item, o *tournament.Oracle, opt RandomizedOptions) (item.Item, error) {
	s := len(items)
	if s == 0 {
		return item.Item{}, ErrNoItems
	}
	if s == 1 {
		return items[0], nil
	}
	if opt.R == nil {
		return item.Item{}, errNilRNG
	}
	groupSize := 80 * (randomizedC + 2)
	cutoff := math.Pow(float64(s), 0.3)
	sampleSize := int(math.Ceil(cutoff))

	sc := o.Obs().WithPhase(obs.PhaseRandomized)
	var startLedger cost.Snapshot
	if sc != nil {
		startLedger = o.LedgerSnapshot()
		sc.Event("randomized.start",
			obs.Fi("s", int64(s)), obs.Fi("group_size", int64(groupSize)),
			obs.Fi("sample", int64(sampleSize)))
	}

	ni := make([]item.Item, s)
	copy(ni, items)
	reserve := make(map[int]item.Item)

	round := 0
	for float64(len(ni)) >= cutoff && len(ni) > 1 {
		before := len(ni)
		// Sample s^0.3 elements at random into the reserve W.
		for _, idx := range opt.R.Perm(len(ni))[:min(sampleSize, len(ni))] {
			it := ni[idx]
			reserve[it.ID] = it
		}
		// Randomly partition into groups of 80(c+2) and drop each
		// group's minimal element.
		opt.R.Shuffle(len(ni), func(i, j int) { ni[i], ni[j] = ni[j], ni[i] })
		drop := make(map[int]bool)
		for start := 0; start < len(ni); start += groupSize {
			group := ni[start:min(start+groupSize, len(ni))]
			if len(group) < 2 {
				continue
			}
			res, err := tournament.RoundRobin(ctx, group, o)
			if err != nil {
				return ni[0], err
			}
			drop[res.MinByWins().ID] = true
		}
		if len(drop) == 0 {
			break // single survivor group of size 1
		}
		kept := ni[:0]
		for _, it := range ni {
			if !drop[it.ID] {
				kept = append(kept, it)
			}
		}
		ni = kept
		if sc != nil {
			sc.Round()
			sc.Event("randomized.round",
				obs.Fi("round", int64(round)), obs.Fi("in", int64(before)),
				obs.Fi("out", int64(len(ni))), obs.Fi("reserve", int64(len(reserve))))
		}
		round++
	}

	for _, it := range ni {
		reserve[it.ID] = it
	}
	finalists := make([]item.Item, 0, len(reserve))
	for _, it := range reserve {
		finalists = append(finalists, it)
	}
	// Deterministic order for reproducibility (map iteration is random).
	sort.Slice(finalists, func(i, j int) bool { return finalists[i].ID < finalists[j].ID })
	final, err := tournament.RoundRobin(ctx, finalists, o)
	if err != nil {
		return finalists[0], err
	}
	if sc != nil {
		d := o.LedgerSnapshot().Sub(startLedger)
		sc.PhaseComparisons(d.Comparisons)
		sc.Event("randomized.done",
			obs.Fi("rounds", int64(round)), obs.Fi("finalists", int64(len(finalists))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("memo_hits", d.TotalMemoHits()))
	}
	return final.TopByWins(), nil
}
