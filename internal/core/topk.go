package core

import (
	"context"
	"fmt"
	"sort"

	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// TopKOptions configures TopK.
type TopKOptions struct {
	// K is the number of elements to return, best first.
	K int
	// U must upper-bound, for every prefix maximum encountered (the
	// overall maximum, the maximum after removing it, and so on K times),
	// the number of elements naïve-indistinguishable from it. The single
	// un(n) of the max-finding problem suffices when the top-K elements
	// have neighbourhoods of similar size; otherwise overestimate — as
	// with Algorithm 1, overestimation costs money, never accuracy.
	U int
	// OnRound, when set, is called after every completed round with the
	// 0-based round index and its winner — the hook checkpointing callers
	// use to snapshot at rank boundaries.
	OnRound func(round int, winner item.Item)
}

// RoundError reports a TopK run truncated mid-round: the first Completed
// ranks of the returned prefix are final, and Best is the truncated round's
// best-so-far leader (the zero Item when the round had none). It wraps the
// underlying cause, so errors.Is sees context.Canceled, budget exhaustion,
// and friends through it.
type RoundError struct {
	// Round is the 1-based round that failed.
	Round int
	// Completed is the number of fully completed rounds (= ranks returned).
	Completed int
	// Best is the failed round's best-so-far element, zero if none.
	Best item.Item
	// Err is the underlying cause.
	Err error
}

// Error formats like the historical "round %d: %v" message.
func (e *RoundError) Error() string { return fmt.Sprintf("round %d: %v", e.Round, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RoundError) Unwrap() error { return e.Err }

// TopK returns k elements ordered best-first by running the two-phase
// expert-aware algorithm k times, removing each round's winner — the
// selection-sort composition that turns max-finding into the ranking tasks
// the paper's introduction motivates ("ranking of search results,
// evaluation of web-page relevance").
//
// Each round's phase 2 is 2-MaxFind. Guarantee under T(δ, 0) workers with
// a valid U:
// the i-th returned element is within 2·δe of the true maximum of the set
// with the previous i−1 returns removed. Cost: at most k·4·n·U naïve and
// k·2·(2U−1)^{3/2} expert comparisons. Memoized oracles make later rounds
// substantially cheaper, since most pairs repeat.
//
// On cancellation or budget exhaustion TopK returns the prefix of fully
// completed rounds alongside a *RoundError: the first len(result) ranks are
// final, and the error carries the truncated round's completed-rank count
// and best-so-far leader (also surfaced as a "topk.truncated" obs event), so
// callers can report partial progress instead of discarding it.
func TopK(ctx context.Context, items []item.Item, naive, expert *tournament.Oracle, opt TopKOptions) ([]item.Item, error) {
	if len(items) == 0 {
		return nil, ErrNoItems
	}
	if opt.K < 1 || opt.K > len(items) {
		return nil, fmt.Errorf("core: TopK requires 1 ≤ k ≤ n, got k=%d n=%d", opt.K, len(items))
	}
	if opt.U < 1 {
		return nil, fmt.Errorf("core: TopK requires U ≥ 1, got %d", opt.U)
	}

	remaining := make([]item.Item, len(items))
	copy(remaining, items)
	out := make([]item.Item, 0, opt.K)
	for round := 0; round < opt.K; round++ {
		if len(remaining) == 1 {
			out = append(out, remaining[0])
			if opt.OnRound != nil {
				opt.OnRound(round, out[len(out)-1])
			}
			remaining = remaining[:0]
			continue
		}
		res, err := FindMax(ctx, remaining, naive, expert, FindMaxOptions{Un: opt.U})
		if err != nil {
			if sc := topkScope(naive, expert); sc != nil {
				sc.Event("topk.truncated",
					obs.Fi("round", int64(round+1)), obs.Fi("completed", int64(len(out))),
					obs.Fi("partial_best", int64(res.Best.ID)))
			}
			return out, &RoundError{Round: round + 1, Completed: len(out), Best: res.Best, Err: err}
		}
		out = append(out, res.Best)
		if opt.OnRound != nil {
			opt.OnRound(round, res.Best)
		}
		kept := remaining[:0]
		for _, it := range remaining {
			if it.ID != res.Best.ID {
				kept = append(kept, it)
			}
		}
		remaining = kept
	}
	return out, nil
}

// topkScope picks the obs scope TopK events go to: the naive oracle's, or
// the expert's when only that one is instrumented.
func topkScope(naive, expert *tournament.Oracle) *obs.Scope {
	if sc := naive.Obs(); sc != nil {
		return sc
	}
	return expert.Obs()
}

// RankByWins orders items by their win counts in an all-play-all tournament
// under the oracle, best first (stable on ties). This is the "last round"
// ranking procedure of the paper's Tables 1 and 2.
func RankByWins(ctx context.Context, items []item.Item, o *tournament.Oracle) ([]item.Item, error) {
	if len(items) == 0 {
		return nil, nil
	}
	res, err := tournament.RoundRobin(ctx, items, o)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return res.Wins[order[a]] > res.Wins[order[b]] })
	out := make([]item.Item, len(items))
	for i, idx := range order {
		out[i] = items[idx]
	}
	return out, nil
}
