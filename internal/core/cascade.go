package core

import (
	"context"
	"fmt"

	"crowdmax/internal/item"
	"crowdmax/internal/tournament"
)

// Level describes one expertise class in the multi-class extension of
// Section 3.3 ("a natural extension models multiple classes of workers with
// different expertise levels"). Levels are ordered from least to most
// expert: descending thresholds δ1 > δ2 > … > δL and ascending prices.
type Level struct {
	// Oracle answers this level's comparisons and bills them under the
	// level's class.
	Oracle *tournament.Oracle
	// U is u(δ) for this level's threshold: the (estimated) number of
	// elements within δ of the maximum. Must be ≥ 1 and non-increasing
	// across levels (finer thresholds distinguish more).
	U int
}

// CascadeOptions configures CascadeFindMax.
type CascadeOptions struct {
	// Levels holds the expertise hierarchy, cheapest first. The last
	// level plays the role of the experts: it runs 2-MaxFind on the final
	// candidate set. At least two levels are required (with exactly two,
	// the cascade IS Algorithm 1).
	Levels []Level
}

// CascadeResult reports a cascade run.
type CascadeResult struct {
	// Best is the returned approximation of the maximum.
	Best item.Item
	// Candidates[l] is the candidate set after filter level l
	// (len(Levels)−1 entries: every level but the last filters).
	Candidates [][]item.Item
}

// CascadeFindMax generalizes Algorithm 1 to L worker classes: each level
// but the last runs the Algorithm 2 filter with its own workers and u
// value, shrinking the candidate set from n to ≤ 2·u1−1 to ≤ 2·u2−1 … and
// the final (most expert) level extracts the maximum with 2-MaxFind.
//
// Correctness for ε = 0 follows by induction on Lemma 3: level l's filter
// is guaranteed to keep the maximum whenever Ul is at least the true u(δl)
// of its *input* set — which holds when Ul upper-bounds u(δl) of the
// original set, since candidate sets only shrink. The returned element is
// within 2·δL of the maximum.
//
// The cost motivation mirrors the two-class case: each level's filter costs
// at most 4·|input|·Ul comparisons at that level's price, so cheap classes
// absorb the bulk of the input and each pricier class sees at most
// 2·U(prev)−1 elements.
//
// On cancellation or budget exhaustion the returned CascadeResult carries
// the candidate sets of every fully completed level (and, for a truncation
// in the final level, the phase-2 partial leader in Best) alongside the
// error.
func CascadeFindMax(ctx context.Context, items []item.Item, opt CascadeOptions) (CascadeResult, error) {
	if len(items) == 0 {
		return CascadeResult{}, ErrNoItems
	}
	if len(opt.Levels) < 2 {
		return CascadeResult{}, fmt.Errorf("core: cascade needs at least 2 levels, got %d", len(opt.Levels))
	}
	for l, lv := range opt.Levels {
		if lv.Oracle == nil {
			return CascadeResult{}, fmt.Errorf("core: cascade level %d has no oracle", l)
		}
		if l < len(opt.Levels)-1 && lv.U < 1 {
			return CascadeResult{}, fmt.Errorf("core: cascade level %d has u=%d, need ≥ 1", l, lv.U)
		}
		if l > 0 && l < len(opt.Levels)-1 && lv.U > opt.Levels[l-1].U {
			return CascadeResult{}, fmt.Errorf(
				"core: cascade level %d has u=%d > previous level's u=%d; finer thresholds must have smaller u",
				l, lv.U, opt.Levels[l-1].U)
		}
	}

	var res CascadeResult
	current := items
	for l := 0; l < len(opt.Levels)-1; l++ {
		lv := opt.Levels[l]
		filtered, err := Filter(ctx, current, lv.Oracle, FilterOptions{Un: lv.U})
		if err != nil {
			return res, fmt.Errorf("cascade level %d: %w", l, err)
		}
		if len(filtered) == 0 {
			return res, fmt.Errorf("cascade level %d: empty candidate set (u=%d underestimated?)", l, lv.U)
		}
		res.Candidates = append(res.Candidates, filtered)
		current = filtered
	}

	last := opt.Levels[len(opt.Levels)-1]
	best, err := TwoMaxFind(ctx, current, last.Oracle)
	res.Best = best
	if err != nil {
		return res, fmt.Errorf("cascade final level: %w", err)
	}
	return res, nil
}

// CascadeNaiveBound returns the comparison upper bound of level l of a
// cascade over an input of size n: level 0 sees n elements, level l > 0
// sees at most 2·U(l−1)−1. The bound for a filter level is 4·input·Ul
// (Lemma 3); for the final level it is the 2-MaxFind bound on its input.
func CascadeNaiveBound(n int, levels []Level, l int) float64 {
	input := n
	if l > 0 {
		input = CandidateSetBound(levels[l-1].U)
	}
	if l == len(levels)-1 {
		return TwoMaxFindUpperBound(input)
	}
	return 4 * float64(input) * float64(levels[l].U)
}
