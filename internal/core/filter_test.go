package core

import (
	"context"
	"testing"
	"testing/quick"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// naiveOracle builds a T(δ, 0) oracle with the given tie policy.
func naiveOracle(delta float64, tie worker.TieBreaker, l *cost.Ledger, r *rng.Source) *tournament.Oracle {
	w := &worker.Threshold{Delta: delta, Tie: tie, R: r}
	return tournament.NewOracle(w, worker.Naive, l, nil)
}

func TestFilterValidation(t *testing.T) {
	r := rng.New(1)
	o := naiveOracle(0, worker.RandomTie{R: r}, nil, r)
	if _, err := Filter(context.Background(), nil, o, FilterOptions{Un: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
	s := dataset.Uniform(10, 0, 1, r)
	if _, err := Filter(context.Background(), s.Items(), o, FilterOptions{Un: 0}); err == nil {
		t.Fatal("un=0 accepted")
	}
}

func TestFilterSmallInputPassesThrough(t *testing.T) {
	r := rng.New(2)
	l := cost.NewLedger()
	o := naiveOracle(0.1, worker.RandomTie{R: r}, l, r)
	s := dataset.Uniform(5, 0, 1, r)
	// un = 3 → 2·un = 6 > 5: no filtering possible or needed.
	out, err := Filter(context.Background(), s.Items(), o, FilterOptions{Un: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("|S| = %d, want 5", len(out))
	}
	if l.Naive() != 0 {
		t.Fatalf("%d comparisons on pass-through input", l.Naive())
	}
}

func TestFilterKeepsMaxAndRespectsBounds(t *testing.T) {
	root := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		r := root.ChildN("trial", trial)
		n := 200 + r.Intn(800)
		un := 2 + r.Intn(12)
		cal, err := dataset.UniformCalibrated(n, un, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		l := cost.NewLedger()
		o := naiveOracle(cal.DeltaN, worker.RandomTie{R: r}, l, r)
		out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: un})
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 3: |S| ≤ 2un − 1 and M ∈ S.
		if len(out) > CandidateSetBound(un) {
			t.Fatalf("trial %d: |S| = %d > %d", trial, len(out), CandidateSetBound(un))
		}
		found := false
		for _, it := range out {
			if it.ID == cal.Set.Max().ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: maximum dropped (n=%d un=%d)", trial, n, un)
		}
		// Lemma 3: ≤ 4·n·un comparisons.
		if float64(l.Naive()) > Phase1UpperBound(n, un) {
			t.Fatalf("trial %d: %d comparisons > bound %g", trial, l.Naive(), Phase1UpperBound(n, un))
		}
	}
}

func TestFilterKeepsMaxAgainstAdversary(t *testing.T) {
	// Even with adversarial tie-breaking (the max loses every game the
	// model lets it lose), Lemma 1 guarantees the max survives when un is
	// not underestimated.
	root := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		r := root.ChildN("trial", trial)
		n := 100 + r.Intn(400)
		un := 2 + r.Intn(8)
		cal, err := dataset.UniformCalibrated(n, un, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		o := naiveOracle(cal.DeltaN, worker.AdversarialTie{}, nil, r)
		out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: un})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, it := range out {
			if it.ID == cal.Set.Max().ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: adversary evicted the maximum", trial)
		}
	}
}

func TestFilterOverestimateStillCorrect(t *testing.T) {
	// Section 4.4: overestimating un can only increase cost, never break
	// correctness.
	r := rng.New(5)
	cal, err := dataset.UniformCalibrated(500, 5, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []int{2, 4, 10} {
		o := naiveOracle(cal.DeltaN, worker.RandomTie{R: r}, nil, r)
		out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: 5 * factor})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, it := range out {
			if it.ID == cal.Set.Max().ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("overestimate ×%d lost the maximum", factor)
		}
		if len(out) > CandidateSetBound(5*factor) {
			t.Fatalf("overestimate ×%d: |S| = %d", factor, len(out))
		}
	}
}

func TestFilterWithMemoizedOracle(t *testing.T) {
	// Appendix A optimization 1: a shared memo across iterations must not
	// affect correctness and must reduce paid comparisons on repeated
	// pairings.
	r := rng.New(7)
	cal, err := dataset.UniformCalibrated(300, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger()
	w := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r}, R: r}
	o := tournament.NewOracle(w, worker.Naive, l, tournament.NewMemo(cal.Set.Len()))
	out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range out {
		if it.ID == cal.Set.Max().ID {
			found = true
		}
	}
	if !found {
		t.Fatal("memoized filter lost the maximum")
	}
	if float64(l.Naive()) > Phase1UpperBound(300, 5) {
		t.Fatalf("comparisons %d exceed bound", l.Naive())
	}
}

func TestFilterProperty(t *testing.T) {
	// Property over random sizes/targets: |S| bound, max retention, and
	// comparison bound hold simultaneously.
	root := rng.New(8)
	trial := 0
	f := func(nRaw uint16, unRaw, seedRaw uint8) bool {
		trial++
		r := root.ChildN("q", trial)
		n := int(nRaw)%500 + 20
		un := int(unRaw)%8 + 1
		if 4*un > n {
			un = n / 4
			if un < 1 {
				return true
			}
		}
		cal, err := dataset.UniformCalibrated(n, un, 1, r)
		if err != nil {
			return true // calibration tie: skip
		}
		l := cost.NewLedger()
		o := naiveOracle(cal.DeltaN, worker.RandomTie{R: r}, l, r)
		out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: un})
		if err != nil {
			return false
		}
		if n >= 2*un && len(out) > CandidateSetBound(un) {
			return false
		}
		if float64(l.Naive()) > Phase1UpperBound(n, un) {
			return false
		}
		for _, it := range out {
			if it.ID == cal.Set.Max().ID {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterDuplicateValues(t *testing.T) {
	// Multisets are allowed: duplicate maximum values must not break the
	// invariants (any copy of the max counts as success).
	r := rng.New(9)
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i / 2) // every value appears twice
	}
	s := item.NewSet(values)
	un := s.UCount(1.0) // elements within 1.0 of max value 49
	o := naiveOracle(1.0, worker.RandomTie{R: r}, nil, r)
	out, err := Filter(context.Background(), s.Items(), o, FilterOptions{Un: un})
	if err != nil {
		t.Fatal(err)
	}
	foundTop := false
	for _, it := range out {
		if it.Value == s.Max().Value {
			foundTop = true
		}
	}
	if !foundTop {
		t.Fatal("no maximum-valued element survived")
	}
}

func TestLemma1OnLowerBoundInstance(t *testing.T) {
	// Lemma 1, verified directly on the Lemma 7 instance with the worst
	// adversary: in an all-play-all tournament the maximum wins at least
	// n − un comparisons, because only under-threshold opponents can beat
	// it.
	const (
		n     = 60
		un    = 7
		delta = 1.0
	)
	s, err := dataset.Lemma7Instance(n, un, delta)
	if err != nil {
		t.Fatal(err)
	}
	o := naiveOracle(delta, worker.AdversarialTie{}, nil, rng.New(1))
	res, err := tournament.RoundRobin(context.Background(), s.Items(), o)
	if err != nil {
		t.Fatal(err)
	}
	maxWins := res.Wins[s.Max().ID]
	if maxWins < n-un {
		t.Fatalf("maximum won %d < n−un = %d comparisons", maxWins, n-un)
	}
	// And the filter therefore keeps it, even against the adversary.
	out, err := Filter(context.Background(), s.Items(), naiveOracle(delta, worker.AdversarialTie{}, nil, rng.New(2)), FilterOptions{Un: un})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range out {
		if it.ID == s.Max().ID {
			found = true
		}
	}
	if !found {
		t.Fatal("filter dropped the maximum on the lower-bound instance")
	}
}

func TestFilterExceedsLowerBoundComparisons(t *testing.T) {
	// Corollary 1: any algorithm guaranteeing a small candidate set must
	// perform at least n·un/4 naive comparisons. The filter's measured
	// count must sit between the lower and upper bounds.
	r := rng.New(3)
	cal, err := dataset.UniformCalibrated(1000, 10, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger()
	o := naiveOracle(cal.DeltaN, worker.RandomTie{R: r}, l, r)
	if _, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: 10}); err != nil {
		t.Fatal(err)
	}
	got := float64(l.Naive())
	if got < Phase1LowerBound(1000, 10) {
		t.Fatalf("comparisons %g below the n·un/4 lower bound %g — impossible for a correct filter",
			got, Phase1LowerBound(1000, 10))
	}
	if got > Phase1UpperBound(1000, 10) {
		t.Fatalf("comparisons %g above the 4·n·un upper bound", got)
	}
}

func TestFilterBoundarySizes(t *testing.T) {
	// Exact boundary inputs around the group size g = 4·un and the loop
	// threshold 2·un.
	root := rng.New(10)
	const un = 5
	for _, n := range []int{2 * un, 2*un + 1, 4 * un, 4*un + 1, 8 * un, 8*un - 1} {
		r := root.ChildN("n", n)
		cal, err := dataset.UniformCalibrated(n, un, 1, r)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		o := naiveOracle(cal.DeltaN, worker.RandomTie{R: r}, nil, r)
		out, err := Filter(context.Background(), cal.Set.Items(), o, FilterOptions{Un: un})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) > CandidateSetBound(un) {
			t.Fatalf("n=%d: |S| = %d", n, len(out))
		}
		found := false
		for _, it := range out {
			if it.ID == cal.Set.Max().ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("n=%d: maximum dropped at boundary size", n)
		}
	}
}
