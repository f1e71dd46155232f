package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// threeLevelInstance builds a uniform instance with three calibrated
// thresholds δ1 > δ2 > δ3 hitting the target u values exactly.
func threeLevelInstance(t *testing.T, n int, us [3]int, r *rng.Source) (*item.Set, [3]float64) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		s := dataset.Uniform(n, 0, 1, r)
		var deltas [3]float64
		ok := true
		for i, u := range us {
			d, err := s.DeltaForU(u)
			if err != nil {
				ok = false
				break
			}
			deltas[i] = d
		}
		if ok {
			return s, deltas
		}
	}
	t.Fatal("could not calibrate three-level instance")
	return nil, [3]float64{}
}

func levelOracle(delta float64, class worker.Class, l *cost.Ledger, r *rng.Source) *tournament.Oracle {
	w := &worker.Threshold{Delta: delta, Tie: worker.RandomTie{R: r}, R: r}
	return tournament.NewOracle(w, class, l, nil)
}

func TestCascadeValidation(t *testing.T) {
	r := rng.New(1)
	s := dataset.Uniform(50, 0, 1, r)
	o := levelOracle(0.1, worker.Naive, nil, r)

	if _, err := CascadeFindMax(context.Background(), nil, CascadeOptions{Levels: []Level{{Oracle: o, U: 2}, {Oracle: o, U: 1}}}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := CascadeFindMax(context.Background(), s.Items(), CascadeOptions{Levels: []Level{{Oracle: o, U: 2}}}); err == nil {
		t.Fatal("single level accepted")
	}
	if _, err := CascadeFindMax(context.Background(), s.Items(), CascadeOptions{Levels: []Level{{U: 2}, {Oracle: o, U: 1}}}); err == nil {
		t.Fatal("nil oracle accepted")
	}
	if _, err := CascadeFindMax(context.Background(), s.Items(), CascadeOptions{Levels: []Level{{Oracle: o, U: 0}, {Oracle: o, U: 1}}}); err == nil {
		t.Fatal("u=0 filter level accepted")
	}
	// u must be non-increasing across filter levels.
	bad := []Level{{Oracle: o, U: 2}, {Oracle: o, U: 5}, {Oracle: o, U: 1}}
	if _, err := CascadeFindMax(context.Background(), s.Items(), CascadeOptions{Levels: bad}); err == nil ||
		!strings.Contains(err.Error(), "finer thresholds") {
		t.Fatalf("increasing u accepted: %v", err)
	}
}

func TestCascadeTwoLevelsEqualsAlgorithm1(t *testing.T) {
	// With exactly two levels, the cascade must behave like FindMax: same
	// guarantee and the same comparison bounds.
	root := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(600, 8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		ln, le := cost.NewLedger(), cost.NewLedger()
		levels := []Level{
			{Oracle: levelOracle(cal.DeltaN, worker.Naive, ln, r.Child("n")), U: 8},
			{Oracle: levelOracle(cal.DeltaE, worker.Expert, le, r.Child("e")), U: 3},
		}
		res, err := CascadeFindMax(context.Background(), cal.Set.Items(), CascadeOptions{Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		if d := item.Distance(cal.Set.Max(), res.Best); d > 2*cal.DeltaE {
			t.Fatalf("trial %d: d = %g > 2δe", trial, d)
		}
		if float64(ln.Naive()) > Phase1UpperBound(600, 8) {
			t.Fatalf("trial %d: naive over bound", trial)
		}
		if float64(le.Expert()) > Phase2ExpertUpperBound(8) {
			t.Fatalf("trial %d: expert over bound", trial)
		}
	}
}

func TestCascadeThreeLevelsGuarantee(t *testing.T) {
	// Three classes: coarse (cheap), medium, fine (expensive). The result
	// must be within 2·δ3 of the maximum and every intermediate candidate
	// set within its 2·u−1 bound and containing the maximum.
	root := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		us := [3]int{20, 6, 2}
		set, deltas := threeLevelInstance(t, 1000, us, r.Child("data"))
		levels := []Level{
			{Oracle: levelOracle(deltas[0], worker.Naive, nil, r.Child("l0")), U: us[0]},
			{Oracle: levelOracle(deltas[1], worker.Class(1), nil, r.Child("l1")), U: us[1]},
			{Oracle: levelOracle(deltas[2], worker.Class(2), nil, r.Child("l2")), U: us[2]},
		}
		res, err := CascadeFindMax(context.Background(), set.Items(), CascadeOptions{Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		if d := item.Distance(set.Max(), res.Best); d > 2*deltas[2] {
			t.Fatalf("trial %d: d = %g > 2δ3 = %g", trial, d, 2*deltas[2])
		}
		if len(res.Candidates) != 2 {
			t.Fatalf("trial %d: %d candidate sets recorded", trial, len(res.Candidates))
		}
		for l, cand := range res.Candidates {
			if len(cand) > CandidateSetBound(us[l]) {
				t.Fatalf("trial %d level %d: |S| = %d > %d", trial, l, len(cand), CandidateSetBound(us[l]))
			}
			found := false
			for _, c := range cand {
				if c.ID == set.Max().ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d level %d: maximum dropped", trial, l)
			}
		}
	}
}

func TestCascadeReducesExpensiveComparisons(t *testing.T) {
	// The cascade's point: the most expert class sees only the final
	// candidates, so its comparisons are far below running it on the
	// whole input.
	r := rng.New(4)
	us := [3]int{20, 6, 2}
	set, deltas := threeLevelInstance(t, 1000, us, r.Child("data"))

	lTop := cost.NewLedger()
	levels := []Level{
		{Oracle: levelOracle(deltas[0], worker.Naive, nil, r.Child("l0")), U: us[0]},
		{Oracle: levelOracle(deltas[1], worker.Class(1), nil, r.Child("l1")), U: us[1]},
		{Oracle: levelOracle(deltas[2], worker.Class(2), lTop, r.Child("l2")), U: us[2]},
	}
	if _, err := CascadeFindMax(context.Background(), set.Items(), CascadeOptions{Levels: levels}); err != nil {
		t.Fatal(err)
	}

	lDirect := cost.NewLedger()
	direct := levelOracle(deltas[2], worker.Class(2), lDirect, r.Child("direct"))
	if _, err := TwoMaxFind(context.Background(), set.Items(), direct); err != nil {
		t.Fatal(err)
	}
	if lTop.Expert()*10 > lDirect.Expert() {
		t.Fatalf("cascade top-level comparisons %d not ≪ direct %d", lTop.Expert(), lDirect.Expert())
	}
}

func TestCascadeMonotoneShrinkage(t *testing.T) {
	r := rng.New(5)
	us := [3]int{25, 8, 3}
	set, deltas := threeLevelInstance(t, 800, us, r.Child("data"))
	levels := []Level{
		{Oracle: levelOracle(deltas[0], worker.Naive, nil, r.Child("l0")), U: us[0]},
		{Oracle: levelOracle(deltas[1], worker.Class(1), nil, r.Child("l1")), U: us[1]},
		{Oracle: levelOracle(deltas[2], worker.Class(2), nil, r.Child("l2")), U: us[2]},
	}
	res, err := CascadeFindMax(context.Background(), set.Items(), CascadeOptions{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{set.Len()}
	for _, c := range res.Candidates {
		sizes = append(sizes, len(c))
	}
	if !sort.SliceIsSorted(sizes, func(a, b int) bool { return sizes[a] > sizes[b] }) {
		t.Fatalf("candidate sets not shrinking: %v", sizes)
	}
}

func TestCascadeNaiveBound(t *testing.T) {
	levels := []Level{{U: 20}, {U: 6}, {U: 2}}
	if got := CascadeNaiveBound(1000, levels, 0); got != 4*1000*20 {
		t.Fatalf("level 0 bound = %g", got)
	}
	// Level 1 sees at most 2·20−1 = 39 elements.
	if got := CascadeNaiveBound(1000, levels, 1); got != 4*39*6 {
		t.Fatalf("level 1 bound = %g", got)
	}
	// Final level: 2-MaxFind bound on at most 2·6−1 = 11 elements.
	if got := CascadeNaiveBound(1000, levels, 2); got != TwoMaxFindUpperBound(11) {
		t.Fatalf("final level bound = %g", got)
	}
}
