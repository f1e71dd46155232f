package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

func scoreOracles() (*tournament.Oracle, *tournament.Oracle) {
	no := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil).WithValuer(worker.TruthValuer)
	eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	return no, eo
}

func TestScoreValidation(t *testing.T) {
	r := rng.New(1)
	s := dataset.Uniform(20, 0, 1, r)
	no, eo := scoreOracles()
	if _, err := Score(context.Background(), nil, no, eo, ScoreOptions{U: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{Votes: -1, U: 1}); err == nil {
		t.Fatal("negative Votes accepted")
	}
	if _, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{}); err == nil {
		t.Fatal("U=0 accepted")
	}
	if _, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{U: -2}); err == nil {
		t.Fatal("negative U accepted")
	}
}

func TestScoreTruthfulFindsMax(t *testing.T) {
	r := rng.New(2)
	s := dataset.Uniform(40, 0, 1, r)
	no, eo := scoreOracles()
	res, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{Votes: 3, U: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScoresComplete {
		t.Fatal("full run reported incomplete scores")
	}
	if s.Rank(res.Best.ID) != 1 {
		t.Fatalf("Best has true rank %d", s.Rank(res.Best.ID))
	}
	if len(res.Scores) != 40 {
		t.Fatalf("scored %d of 40 elements", len(res.Scores))
	}
	// Truthful votes mean the score order is the exact value order.
	for i, is := range res.Scores {
		if s.Rank(is.Item.ID) != i+1 {
			t.Fatalf("score position %d has true rank %d", i, s.Rank(is.Item.ID))
		}
	}
	if len(res.Shortlist) != 3 { // 2·U − 1
		t.Fatalf("shortlist has %d elements, want 3", len(res.Shortlist))
	}
	if res.Shortlist[0].ID != res.Scores[0].Item.ID {
		t.Fatal("shortlist not in score order")
	}
}

func TestScoreShortlistClampAndOverride(t *testing.T) {
	r := rng.New(3)
	s := dataset.Uniform(5, 0, 1, r)
	no, eo := scoreOracles()
	// A 2·U − 1 shortlist larger than n clamps to n.
	res, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{U: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shortlist) != 5 {
		t.Fatalf("shortlist has %d elements, want clamp to 5", len(res.Shortlist))
	}
	if s.Rank(res.Best.ID) != 1 {
		t.Fatalf("Best has true rank %d", s.Rank(res.Best.ID))
	}
}

func TestScorePhase1Truncation(t *testing.T) {
	// Starve the naive budget mid-wave-2: the result must carry exactly
	// the elements whose second vote landed, ScoresComplete false, and an
	// error wrapped "phase 1 (scoring)" with the budget cause reachable.
	r := rng.New(4)
	s := dataset.Uniform(10, 0, 1, r)
	b := dispatch.NewBudget(dispatch.Limits{MaxNaive: 14})
	no, eo := scoreOracles()
	no = no.WithBudget(b)
	res, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{Votes: 3, U: 2})
	if err == nil {
		t.Fatal("starved run succeeded")
	}
	if !strings.Contains(err.Error(), "phase 1 (scoring)") {
		t.Fatalf("error not labeled phase 1: %v", err)
	}
	if !errors.Is(err, dispatch.ErrBudgetExhausted) {
		t.Fatalf("cause lost: %v", err)
	}
	if res.ScoresComplete {
		t.Fatal("truncated run claims complete scores")
	}
	// 14 paid queries = wave 1 (10) + 4 of wave 2: four fully-voted-so-far
	// elements survive the aggregation cut.
	if len(res.Scores) != 4 {
		t.Fatalf("partial result has %d scores, want 4", len(res.Scores))
	}
	if res.Best.ID != res.Scores[0].Item.ID {
		t.Fatal("Best is not the best-so-far leader")
	}
	if res.Shortlist != nil {
		t.Fatal("truncated phase 1 produced a shortlist")
	}
}

func TestScorePhase2Truncation(t *testing.T) {
	// An expert budget too small for the extraction leaves the scores
	// intact and labels the error "phase 2".
	r := rng.New(5)
	s := dataset.Uniform(30, 0, 1, r)
	b := dispatch.NewBudget(dispatch.Limits{MaxExpert: 1})
	no, eo := scoreOracles()
	eo = eo.WithBudget(b)
	res, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{Votes: 3, U: 3})
	if err == nil {
		t.Fatal("starved phase 2 succeeded")
	}
	if !strings.Contains(err.Error(), "phase 2") {
		t.Fatalf("error not labeled phase 2: %v", err)
	}
	if !errors.Is(err, dispatch.ErrBudgetExhausted) {
		t.Fatalf("cause lost: %v", err)
	}
	if !res.ScoresComplete {
		t.Fatal("phase 1 completed but ScoresComplete is false")
	}
	if len(res.Shortlist) != 5 {
		t.Fatalf("shortlist has %d elements, want 5", len(res.Shortlist))
	}
	if res.Best == (item.Item{}) {
		t.Fatal("no best-so-far leader on a phase 2 truncation")
	}
}

func TestScoreAggregations(t *testing.T) {
	// The trimmed mean drops len/4 from each end and averages the rest.
	cases := []struct {
		ballot []float64
		want   float64
	}{
		{[]float64{0, 2, 100}, 34},   // trim 0: plain mean
		{[]float64{0, 1, 1, 100}, 1}, // trim 1 each end
		{[]float64{5}, 5},
	}
	for i, c := range cases {
		if got := trimmedMean(c.ballot); got != c.want {
			t.Errorf("case %d (trimmed mean of %v): got %g want %g", i, c.ballot, got, c.want)
		}
	}
}

func TestScoreMedianRobustToSpammerVotes(t *testing.T) {
	// A valuer that answers garbage on one of five votes must not move the
	// aggregated winner off the true maximum: with five votes the trimmed
	// mean drops the highest, which is the inflated one.
	r := rng.New(6)
	s := dataset.Uniform(25, 0, 1, r)
	spam := worker.ValuerFunc(func(it item.Item, rep int) float64 {
		if rep == 2 && it.ID%3 == 0 {
			return 1e6 // one wildly inflated vote for a third of the pool
		}
		return it.Value
	})
	no := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil).WithValuer(spam)
	eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	res, err := Score(context.Background(), s.Items(), no, eo, ScoreOptions{Votes: 5, U: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank(res.Best.ID) != 1 {
		t.Fatalf("trimmed-mean aggregation lost the max to a spammer vote: rank %d", s.Rank(res.Best.ID))
	}
}
