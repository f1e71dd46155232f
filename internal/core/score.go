package core

import (
	"context"
	"fmt"
	"sort"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// ScoreOptions configures Score.
type ScoreOptions struct {
	// Votes is the number of independent cardinal votes collected per
	// element in phase 1; 0 defaults to 3.
	Votes int
	// U plays the role un(n) plays for the filter: the number of elements
	// whose aggregated scores are statistically indistinguishable from the
	// maximum's. It sizes the shortlist handed to the expert phase
	// (2·U − 1, mirroring the filter's candidate bound, clamped to n).
	// Required ≥ 1.
	U int
	// OnPhase, when set, is called at phase boundaries with the label
	// ("phase1" after scoring, "done" after extraction) and the shortlist.
	OnPhase func(phase string, survivors []item.Item)
}

// ItemScore pairs an element with its aggregated crowd score.
type ItemScore struct {
	Item  item.Item
	Score float64
}

// ScoreResult reports the outcome of a crowd-scoring run.
type ScoreResult struct {
	// Best is the element the expert phase extracted from the shortlist
	// (or, on a truncated run, the best-so-far leader — the top-scored
	// element once scoring completed, the zero Item before that).
	Best item.Item
	// Shortlist is the top-scored elements handed to the expert phase,
	// score order (best first).
	Shortlist []item.Item
	// Scores holds every element's aggregated score, best first. On a
	// phase-1 truncation it holds the elements fully scored so far.
	Scores []ItemScore
	// ScoresComplete reports whether phase 1 collected and aggregated all
	// votes — the precondition for any score-based quality claim.
	ScoresComplete bool
}

// Score is the crowd-scoring workload (Nordio et al., "Selecting the
// top-quality item through crowd scoring"): phase 1 collects Votes
// independent cardinal estimates per element from the naive class (value
// queries, billed like naive comparisons), aggregates each element's votes
// by a trimmed mean, and shortlists the top scorers; phase 2 has experts
// extract the best element from the shortlist with 2-MaxFind. It is the Nordio-et-al. alternative to
// the comparison-based filter: the same two-phase shape, but phase 1 costs
// Votes·n value queries instead of up to 4·n·un comparisons — cheaper when
// un is large — at the price of a score-calibration assumption instead of a
// theorem (the shortlist contains the maximum only when the aggregated
// per-vote noise is small enough relative to the value gaps).
//
// Votes are collected in vote-index-major waves (wave r asks one vote for
// every element), each wave one logical step — the crowd answers a wave in
// parallel. On cancellation or budget exhaustion Score returns the
// best-so-far partial result alongside the error, wrapped "phase 1
// (scoring):" or "phase 2:" with errors.Is reaching the cause.
func Score(ctx context.Context, items []item.Item, naive, expert *tournament.Oracle, opt ScoreOptions) (ScoreResult, error) {
	if len(items) == 0 {
		return ScoreResult{}, ErrNoItems
	}
	votes := opt.Votes
	if votes == 0 {
		votes = 3
	}
	if votes < 1 {
		return ScoreResult{}, fmt.Errorf("core: Score requires Votes ≥ 1, got %d", votes)
	}
	if opt.U < 1 {
		return ScoreResult{}, fmt.Errorf("core: Score requires U ≥ 1, got U=%d", opt.U)
	}
	shortlist := min(2*opt.U-1, len(items))

	sc := naive.Obs()
	if sc == nil {
		sc = expert.Obs()
	}
	var n0 cost.Snapshot
	if sc != nil {
		n0 = naive.LedgerSnapshot()
	}

	// Phase 1: vote waves. ballots[i] accumulates items[i]'s votes; an
	// element's score is final only when all waves completed, so a
	// truncated run reports no partially-voted scores.
	ballots := make([][]float64, len(items))
	for i := range ballots {
		ballots[i] = make([]float64, 0, votes)
	}
	var res ScoreResult
	for rep := 0; rep < votes; rep++ {
		for i, it := range items {
			v, err := naive.AskValue(ctx, it, rep)
			if err != nil {
				res.Scores = aggregateScores(items[:i], ballots[:i], rep+1)
				if len(res.Scores) > 0 {
					res.Best = res.Scores[0].Item
				}
				return res, fmt.Errorf("phase 1 (scoring): %w", err)
			}
			ballots[i] = append(ballots[i], v)
		}
		naive.Step()
	}
	res.Scores = aggregateScores(items, ballots, votes)
	res.ScoresComplete = true
	res.Shortlist = make([]item.Item, shortlist)
	for i := 0; i < shortlist; i++ {
		res.Shortlist[i] = res.Scores[i].Item
	}
	res.Best = res.Shortlist[0]

	if sc != nil {
		d := naive.LedgerSnapshot().Sub(n0)
		sc.Event("score.phase1",
			obs.Fs("aggregation", "trimmed-mean"),
			obs.Fi("n", int64(len(items))), obs.Fi("votes", int64(votes)),
			obs.Fi("shortlist", int64(shortlist)),
			obs.Fi("queries", d.TotalComparisons()), obs.Fi("steps", d.Steps))
	}
	if opt.OnPhase != nil {
		opt.OnPhase("phase1", res.Shortlist)
	}

	// Phase 2: expert pairwise extraction over the shortlist.
	var e0 cost.Snapshot
	if sc != nil {
		e0 = expert.LedgerSnapshot()
	}
	best, err := TwoMaxFind(ctx, res.Shortlist, expert)
	if err != nil {
		if best.ID != 0 || best.Value != 0 {
			res.Best = best
		}
		return res, fmt.Errorf("phase 2: %w", err)
	}
	res.Best = best
	if sc != nil {
		d := expert.LedgerSnapshot().Sub(e0)
		sc.Event("score.phase2",
			obs.Fs("algo", "2-MaxFind"), obs.Fi("shortlist", int64(shortlist)),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("steps", d.Steps))
	}
	if opt.OnPhase != nil {
		opt.OnPhase("done", res.Shortlist)
	}
	return res, nil
}

// aggregateScores combines each element's collected votes into one score and
// returns the elements sorted best-first (stable on ties, so equal scores
// keep input order). Only elements with all `votes` ballots in are included.
func aggregateScores(items []item.Item, ballots [][]float64, votes int) []ItemScore {
	out := make([]ItemScore, 0, len(items))
	for i, it := range items {
		if len(ballots[i]) < votes {
			continue
		}
		out = append(out, ItemScore{Item: it, Score: trimmedMean(ballots[i])})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// trimmedMean reduces one ballot to a score: it drops the top and bottom
// quarter of the votes and averages the rest — robust to a bounded fraction
// of spammer votes while keeping the precision of a mean. The ballot is
// copied before sorting; callers may keep appending to it.
func trimmedMean(ballot []float64) float64 {
	vs := make([]float64, len(ballot))
	copy(vs, ballot)
	sort.Float64s(vs)
	trim := len(vs) / 4
	vs = vs[trim : len(vs)-trim]
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
