package core

import (
	"context"
	"errors"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

func TestTopKValidation(t *testing.T) {
	r := rng.New(1)
	s := dataset.Uniform(20, 0, 1, r)
	no := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
	eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	if _, err := TopK(context.Background(), nil, no, eo, TopKOptions{K: 1, U: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
	for _, k := range []int{0, -1, 21} {
		if _, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: k, U: 1}); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
	if _, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: 3, U: 0}); err == nil {
		t.Fatal("U=0 accepted")
	}
}

func TestTopKTruthfulExactOrder(t *testing.T) {
	root := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		n := 50 + r.Intn(200)
		k := 1 + r.Intn(8)
		s := dataset.Uniform(n, 0, 1, r)
		no := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
		eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
		got, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: k, U: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: returned %d of %d", trial, len(got), k)
		}
		for i, it := range got {
			if s.Rank(it.ID) != i+1 {
				t.Fatalf("trial %d: position %d has true rank %d", trial, i, s.Rank(it.ID))
			}
		}
	}
}

func TestTopKGuaranteePerRound(t *testing.T) {
	// Each returned element must be within 2·δe of the true maximum of
	// the set with the previous returns removed, when U upper-bounds
	// every prefix maximum's neighbourhood.
	root := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(500, 8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		const k = 5
		// Compute a valid U: the largest u(δn) over the top-k prefix
		// maxima (ground truth, used only to parameterize the test).
		u := 0
		remaining := cal.Set.Items()
		for round := 0; round < k; round++ {
			sub := item.NewSetItems(remaining)
			if c := sub.UCount(cal.DeltaN); c > u {
				u = c
			}
			remaining = removeOneByValue(remaining, sub.Max().Value)
		}

		nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("n")}, R: r.Child("n")}
		ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r.Child("e")}, R: r.Child("e")}
		no := tournament.NewOracle(nw, worker.Naive, nil, nil)
		eo := tournament.NewOracle(ew, worker.Expert, nil, nil)
		got, err := TopK(context.Background(), cal.Set.Items(), no, eo, TopKOptions{K: k, U: u})
		if err != nil {
			t.Fatal(err)
		}
		// Verify the per-round guarantee against ground truth.
		rest := cal.Set.Items()
		for i, chosen := range got {
			trueMax := item.NewSetItems(rest).Max()
			if d := trueMax.Value - chosen.Value; d > 2*cal.DeltaE {
				t.Fatalf("trial %d round %d: d = %g > 2δe", trial, i, d)
			}
			rest = removeByID(rest, chosen.ID)
		}
	}
}

// removeOneByValue removes the first element with the given value.
func removeOneByValue(items []item.Item, v float64) []item.Item {
	out := items[:0]
	removed := false
	for _, it := range items {
		if !removed && it.Value == v {
			removed = true
			continue
		}
		out = append(out, it)
	}
	return out
}

func removeByID(items []item.Item, id int) []item.Item {
	out := make([]item.Item, 0, len(items)-1)
	for _, it := range items {
		if it.ID != id {
			out = append(out, it)
		}
	}
	return out
}

func TestTopKMemoizationSavesAcrossRounds(t *testing.T) {
	r := rng.New(4)
	cal, err := dataset.UniformCalibrated(400, 6, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	run := func(memoize bool, seed string) int64 {
		rr := r.Child(seed)
		ledger := cost.NewLedger()
		var nm, em *tournament.Memo
		if memoize {
			nm, em = tournament.NewMemo(cal.Set.Len()), tournament.NewMemo(cal.Set.Len())
		}
		nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: rr.Child("n")}, R: rr.Child("n")}
		ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: rr.Child("e")}, R: rr.Child("e")}
		no := tournament.NewOracle(nw, worker.Naive, ledger, nm)
		eo := tournament.NewOracle(ew, worker.Expert, ledger, em)
		if _, err := TopK(context.Background(), cal.Set.Items(), no, eo, TopKOptions{K: 5, U: 6}); err != nil {
			t.Fatal(err)
		}
		return ledger.Naive() + ledger.Expert()
	}
	withMemo := run(true, "a")
	withoutMemo := run(false, "b")
	// Rounds 2..k repeat most pairings; memoization must cut the paid
	// count by a wide margin (empirically ~4-5×).
	if withMemo*2 > withoutMemo {
		t.Fatalf("memoized TopK paid %d vs %d unmemoized — expected large savings", withMemo, withoutMemo)
	}
}

func TestTopKWholeSet(t *testing.T) {
	// k = n returns a full ranking.
	r := rng.New(5)
	s := dataset.Uniform(30, 0, 1, r)
	no := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
	eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	got, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: 30, U: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range got {
		if s.Rank(it.ID) != i+1 {
			t.Fatalf("full ranking wrong at position %d", i)
		}
	}
}

func TestTopKRoundErrorPartialProgress(t *testing.T) {
	// A budget that covers round 1 but starves round 2 must surface the
	// completed prefix alongside a *RoundError naming the truncated round,
	// with errors.Is still reaching the budget cause.
	r := rng.New(8)
	s := dataset.Uniform(60, 0, 1, r)
	newOracles := func(b *dispatch.Budget) (*tournament.Oracle, *tournament.Oracle) {
		ledger := cost.NewLedger()
		no := tournament.NewOracle(worker.Truth, worker.Naive, ledger, nil).WithBudget(b)
		eo := tournament.NewOracle(worker.Truth, worker.Expert, ledger, nil).WithBudget(b)
		return no, eo
	}

	// Measure round 1's paid total on an unbudgeted run.
	no, eo := newOracles(nil)
	if _, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: 1, U: 2}); err != nil {
		t.Fatal(err)
	}
	round1 := no.LedgerSnapshot().TotalComparisons()
	if round1 == 0 {
		t.Fatal("round 1 paid nothing")
	}

	b := dispatch.NewBudget(dispatch.Limits{MaxTotal: round1 + 1})
	no, eo = newOracles(b)
	got, err := TopK(context.Background(), s.Items(), no, eo, TopKOptions{K: 3, U: 2})
	if err == nil {
		t.Fatal("starved run succeeded")
	}
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RoundError", err)
	}
	if !errors.Is(err, dispatch.ErrBudgetExhausted) {
		t.Fatalf("cause lost: %v", err)
	}
	if re.Completed != len(got) {
		t.Fatalf("Completed = %d but %d ranks returned", re.Completed, len(got))
	}
	if re.Round != re.Completed+1 {
		t.Fatalf("Round = %d with %d completed", re.Round, re.Completed)
	}
	if len(got) != 1 {
		t.Fatalf("expected exactly round 1's rank back, got %d", len(got))
	}
	if s.Rank(got[0].ID) != 1 {
		t.Fatalf("surviving rank has true rank %d", s.Rank(got[0].ID))
	}
}

func TestRankByWins(t *testing.T) {
	r := rng.New(6)
	s := dataset.Uniform(12, 0, 1, r)
	o := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
	ranked, err := RankByWins(context.Background(), s.Items(), o)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range ranked {
		if s.Rank(it.ID) != i+1 {
			t.Fatalf("position %d has true rank %d", i, s.Rank(it.ID))
		}
	}
	if got, err := RankByWins(context.Background(), nil, o); err != nil || got != nil {
		t.Fatal("empty input should return nil")
	}
	single, err := RankByWins(context.Background(), []item.Item{{ID: 3, Value: 1}}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0].ID != 3 {
		t.Fatal("singleton ranking wrong")
	}
}
