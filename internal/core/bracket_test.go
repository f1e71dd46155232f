package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

func TestTournamentMaxValidation(t *testing.T) {
	o := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
	if _, err := TournamentMax(context.Background(), nil, o, BracketOptions{}); err == nil {
		t.Fatal("empty input accepted")
	}
	s := dataset.Uniform(8, 0, 1, rng.New(1))
	if _, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{Repetitions: 2}); err == nil {
		t.Fatal("even repetitions accepted")
	}
	memoized := tournament.NewOracle(worker.Truth, worker.Naive, nil, tournament.NewMemo(s.Len()))
	if _, err := TournamentMax(context.Background(), s.Items(), memoized, BracketOptions{Repetitions: 3}); err == nil {
		t.Fatal("memoized oracle with repetitions accepted")
	}
}

func TestTournamentMaxTruthfulExact(t *testing.T) {
	root := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		r := root.ChildN("t", trial)
		n := 1 + r.Intn(200)
		s := dataset.Uniform(n, 0, 1, r)
		o := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
		got, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != s.Max().ID {
			t.Fatalf("trial %d (n=%d): bracket returned rank %d", trial, n, s.Rank(got.ID))
		}
	}
}

func TestTournamentMaxComparisonCount(t *testing.T) {
	root := rng.New(3)
	f := func(nRaw, repRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rep := 2*(int(repRaw)%4) + 1 // 1, 3, 5, 7
		s := dataset.Uniform(n, 0, 1, root)
		l := cost.NewLedger()
		o := tournament.NewOracle(worker.NewProbabilistic(0.2, root), worker.Naive, l, nil)
		if _, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{Repetitions: rep}); err != nil {
			return false
		}
		// Exactly (n − 1)·rep comparisons, always.
		return l.Naive() == int64(BracketComparisons(n, rep))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTournamentMaxLogicalSteps(t *testing.T) {
	s := dataset.Uniform(64, 0, 1, rng.New(4))
	l := cost.NewLedger()
	o := tournament.NewOracle(worker.Truth, worker.Naive, l, nil)
	if _, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{}); err != nil {
		t.Fatal(err)
	}
	// 64 elements → exactly log2(64) = 6 rounds.
	if l.Steps() != 6 {
		t.Fatalf("steps = %d, want 6", l.Steps())
	}
}

func TestTournamentMaxRepetitionHelpsProbabilisticModel(t *testing.T) {
	// Under the probabilistic model, repetitions push per-match accuracy
	// toward 1, so the bracket finds the max far more often.
	root := rng.New(5)
	trials := 150
	success := func(rep int) int {
		wins := 0
		for trial := 0; trial < trials; trial++ {
			r := root.ChildN("t", trial*100+rep)
			s := dataset.Uniform(64, 0, 1, r.Child("data"))
			o := tournament.NewOracle(worker.NewProbabilistic(0.2, r.Child("w")), worker.Naive, nil, nil)
			got, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{Repetitions: rep})
			if err != nil {
				t.Fatal(err)
			}
			if got.ID == s.Max().ID {
				wins++
			}
		}
		return wins
	}
	single := success(1)
	nine := success(9)
	if nine <= single {
		t.Fatalf("repetition did not help under the probabilistic model: %d vs %d of %d",
			single, nine, trials)
	}
	if nine < trials*3/4 {
		t.Fatalf("9 repetitions should make the bracket reliable, got %d/%d", nine, trials)
	}
}

func TestTournamentMaxRepetitionUselessUnderThreshold(t *testing.T) {
	// The paper's thesis: under the threshold model, indistinguishable
	// matches stay coin flips no matter how many repetitions — on an
	// all-indistinguishable instance the bracket returns the true max no
	// more often than chance among the finalists, with 1 or 9 repetitions
	// alike.
	root := rng.New(6)
	s, err := dataset.AdversarialIndistinguishable(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	trials := 200
	success := func(rep int) int {
		wins := 0
		for trial := 0; trial < trials; trial++ {
			r := root.ChildN("t", trial*100+rep)
			w := &worker.Threshold{Delta: 1, Tie: worker.RandomTie{R: r}, R: r}
			o := tournament.NewOracle(w, worker.Naive, nil, nil)
			got, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{Repetitions: rep})
			if err != nil {
				t.Fatal(err)
			}
			if got.ID == s.Max().ID {
				wins++
			}
		}
		return wins
	}
	single, nine := success(1), success(9)
	// Both hover around 1/64 ≈ 3 wins; neither should be meaningfully
	// better (allow generous noise; the point is nine ≉ trials).
	if nine > trials/4 {
		t.Fatalf("repetitions beat indistinguishability: %d/%d", nine, trials)
	}
	if diff := float64(nine-single) / float64(trials); math.Abs(diff) > 0.15 {
		t.Fatalf("repetitions changed threshold-model success rate: %d vs %d", single, nine)
	}
}

func TestTournamentMaxOddField(t *testing.T) {
	// Odd field sizes exercise the bye path; with a truthful oracle the
	// max still always wins.
	for _, n := range []int{3, 5, 7, 31, 33} {
		s := dataset.Uniform(n, 0, 1, rng.New(uint64(n)))
		o := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
		got, err := TournamentMax(context.Background(), s.Items(), o, BracketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != s.Max().ID {
			t.Fatalf("n=%d: bye handling broke the bracket", n)
		}
	}
}

func TestTournamentMaxSingleton(t *testing.T) {
	o := tournament.NewOracle(worker.Truth, worker.Naive, nil, nil)
	got, err := TournamentMax(context.Background(), []item.Item{{ID: 9, Value: 4}}, o, BracketOptions{})
	if err != nil || got.ID != 9 {
		t.Fatalf("singleton: %v, %v", got, err)
	}
}

func TestBracketComparisons(t *testing.T) {
	if BracketComparisons(0, 3) != 0 || BracketComparisons(1, 3) != 0 {
		t.Fatal("degenerate counts wrong")
	}
	if BracketComparisons(64, 1) != 63 || BracketComparisons(64, 7) != 441 {
		t.Fatal("counts wrong")
	}
	if BracketComparisons(10, 0) != 9 {
		t.Fatal("repetition clamp wrong")
	}
}
