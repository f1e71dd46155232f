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

// Aggregation selects how a crowd-scoring run combines the V cardinal votes
// collected per element (Nordio et al., "Selecting the top-quality item
// through crowd scoring").
type Aggregation int

const (
	// AggTrimmedMean drops the top and bottom quarter of each element's
	// votes and averages the rest — robust to a bounded fraction of
	// spammer votes while keeping the precision of a mean. The default.
	AggTrimmedMean Aggregation = iota
	// AggMedian takes each element's median vote — the majority-style
	// aggregate, maximally robust to outliers.
	AggMedian
)

// String returns the aggregation's name.
func (a Aggregation) String() string {
	switch a {
	case AggTrimmedMean:
		return "trimmed-mean"
	case AggMedian:
		return "median"
	default:
		return fmt.Sprintf("aggregation(%d)", int(a))
	}
}

// ScoreOptions configures Score.
type ScoreOptions struct {
	// Votes is the number of independent cardinal votes collected per
	// element in phase 1; 0 defaults to 3.
	Votes int
	// Aggregation combines each element's votes into one score; the zero
	// value is the trimmed mean.
	Aggregation Aggregation
	// U plays the role un(n) plays for the filter: the number of elements
	// whose aggregated scores are statistically indistinguishable from the
	// maximum's. It sizes the default shortlist (2·U − 1, mirroring the
	// filter's candidate bound). Required ≥ 1 unless Shortlist is set.
	U int
	// Shortlist overrides the number of top-scored elements handed to the
	// expert phase; 0 derives 2·U − 1. Clamped to [1, n].
	Shortlist int
	// Phase2 selects the expert extraction algorithm over the shortlist.
	Phase2 Phase2Algorithm
	// Randomized configures Algorithm 5 when Phase2 is Phase2Randomized.
	Randomized RandomizedOptions
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

// Score is the crowd-scoring workload: phase 1 collects Votes independent
// cardinal estimates per element from the naive class (value queries, billed
// like naive comparisons), aggregates them robustly, and shortlists the top
// scorers; phase 2 has experts extract the best element from the shortlist
// with the usual pairwise machinery. It is the Nordio-et-al. alternative to
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
	shortlist := opt.Shortlist
	if shortlist == 0 {
		if opt.U < 1 {
			return ScoreResult{}, fmt.Errorf("core: Score requires U ≥ 1 (or an explicit Shortlist), got U=%d", opt.U)
		}
		shortlist = 2*opt.U - 1
	}
	if shortlist < 1 {
		return ScoreResult{}, fmt.Errorf("core: Score requires Shortlist ≥ 1, got %d", shortlist)
	}
	if shortlist > len(items) {
		shortlist = len(items)
	}

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
				res.Scores = aggregateScores(items[:i], ballots[:i], opt.Aggregation, rep+1)
				if len(res.Scores) > 0 {
					res.Best = res.Scores[0].Item
				}
				return res, fmt.Errorf("phase 1 (scoring): %w", err)
			}
			ballots[i] = append(ballots[i], v)
		}
		naive.Step()
	}
	res.Scores = aggregateScores(items, ballots, opt.Aggregation, votes)
	res.ScoresComplete = true
	res.Shortlist = make([]item.Item, shortlist)
	for i := 0; i < shortlist; i++ {
		res.Shortlist[i] = res.Scores[i].Item
	}
	res.Best = res.Shortlist[0]

	if sc != nil {
		d := naive.LedgerSnapshot().Sub(n0)
		sc.Event("score.phase1",
			obs.Fs("aggregation", opt.Aggregation.String()),
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
	best, err := RunPhase2(ctx, res.Shortlist, expert, opt.Phase2, opt.Randomized)
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
			obs.Fs("algo", opt.Phase2.String()), obs.Fi("shortlist", int64(shortlist)),
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
func aggregateScores(items []item.Item, ballots [][]float64, agg Aggregation, votes int) []ItemScore {
	out := make([]ItemScore, 0, len(items))
	for i, it := range items {
		if len(ballots[i]) < votes {
			continue
		}
		out = append(out, ItemScore{Item: it, Score: aggregate(ballots[i], agg)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// aggregate reduces one ballot to a score. The ballot is copied before
// sorting; callers may keep appending to it.
func aggregate(ballot []float64, agg Aggregation) float64 {
	vs := make([]float64, len(ballot))
	copy(vs, ballot)
	sort.Float64s(vs)
	switch agg {
	case AggMedian:
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	default: // AggTrimmedMean
		trim := len(vs) / 4
		vs = vs[trim : len(vs)-trim]
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}
}
