package crowdmax

import (
	"context"
	"testing"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

func testSession(t *testing.T, cal dataset.Calibrated, un int, seed uint64) *Session {
	t.Helper()
	r := NewRand(seed)
	s, err := NewSession(Config{
		Naive:  NewThresholdWorker(cal.DeltaN, 0, r.Child("naive")),
		Expert: NewThresholdWorker(cal.DeltaE, 0, r.Child("expert")),
		Un:     un,
		Prices: Prices{Naive: 1, Expert: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidation(t *testing.T) {
	r := NewRand(1)
	w := NewThresholdWorker(0.1, 0, r)
	cases := []Config{
		{Expert: w, Un: 5},            // missing naive
		{Naive: w, Un: 5},             // missing expert
		{Naive: w, Expert: w, Un: 0},  // bad un
		{Naive: w, Expert: w, Un: -3}, // bad un
	}
	for i, cfg := range cases {
		if _, err := NewSession(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSessionFindMaxGuarantee(t *testing.T) {
	root := NewRand(2)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(600, 8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		s := testSession(t, cal, 8, uint64(100+trial))
		res, err := s.FindMax(cal.Set.Items())
		if err != nil {
			t.Fatal(err)
		}
		if d := item.Distance(cal.Set.Max(), res.Best); d > 2*cal.DeltaE {
			t.Fatalf("trial %d: d(M, e) = %g > 2δe", trial, d)
		}
		if res.NaiveComparisons == 0 || res.ExpertComparisons == 0 {
			t.Fatal("comparison counts missing")
		}
		if want := float64(res.NaiveComparisons) + 50*float64(res.ExpertComparisons); res.Cost != want {
			t.Fatalf("cost = %g, want %g", res.Cost, want)
		}
	}
}

// TestSessionRunsReportOwnCosts: a Session carries no cost across runs, so
// a second run over the same input reports exactly what the first did.
func TestSessionRunsReportOwnCosts(t *testing.T) {
	cal, err := dataset.UniformCalibrated(400, 6, 2, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	s := statelessSession(t, cal, 200, nil)
	res1, err := s.FindMax(cal.Set.Items())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s.FindMax(cal.Set.Items())
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, res2, res1)
	if want := float64(res1.NaiveComparisons) + 50*float64(res1.ExpertComparisons); res1.Cost != want {
		t.Fatalf("cost = %g, want %g", res1.Cost, want)
	}
}

// TestSessionBoundsHold checks a run's paid counts, candidate set and cost
// against the paper's closed-form guarantees for its n and un: Lemma 3's
// naïve bound, Theorem 1's expert bound for 2-MaxFind, and |S| ≤ 2·un − 1.
func TestSessionBoundsHold(t *testing.T) {
	r := NewRand(4)
	cal, err := dataset.UniformCalibrated(800, 10, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(t, cal, 10, 300)
	naiveMax := core.Phase1UpperBound(800, 10)
	expertMax := core.Phase2ExpertUpperBound(10)
	candidates := core.CandidateSetBound(10)
	worstCost := naiveMax*1 + expertMax*50
	res, err := s.FindMax(cal.Set.Items())
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.NaiveComparisons) > naiveMax {
		t.Fatalf("naive %d over bound %g", res.NaiveComparisons, naiveMax)
	}
	if float64(res.ExpertComparisons) > expertMax {
		t.Fatalf("expert %d over bound %g", res.ExpertComparisons, expertMax)
	}
	if len(res.Candidates) > candidates {
		t.Fatalf("|S| = %d over bound %d", len(res.Candidates), candidates)
	}
	if res.Cost > worstCost {
		t.Fatalf("cost %g over bound %g", res.Cost, worstCost)
	}
}

func TestSessionMemoizationReducesCost(t *testing.T) {
	// With memoization disabled the same pairs may be re-asked across
	// filter iterations; with it enabled repeats are free. Compare paid
	// comparisons on identical instances.
	r := NewRand(5)
	cal, err := dataset.UniformCalibrated(500, 8, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool, seed uint64) int64 {
		rr := NewRand(seed)
		s, err := NewSession(Config{
			Naive:              NewThresholdWorker(cal.DeltaN, 0, rr.Child("n")),
			Expert:             NewThresholdWorker(cal.DeltaE, 0, rr.Child("e")),
			Un:                 8,
			DisableMemoization: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.FindMax(cal.Set.Items())
		if err != nil {
			t.Fatal(err)
		}
		return res.NaiveComparisons + res.ExpertComparisons
	}
	withMemo := run(false, 42)
	withoutMemo := run(true, 42)
	if withMemo > withoutMemo {
		t.Fatalf("memoization increased paid comparisons: %d > %d", withMemo, withoutMemo)
	}
}

func TestFacadeAlgorithmsUsable(t *testing.T) {
	// The free functions of the façade must work end to end.
	r := NewRand(8)
	set := NewSet([]float64{3, 1, 4, 1.5, 9, 2.6})
	ledger := NewLedger()
	o := NewOracle(worker.Truth, Expert, ledger, NewMemo(set.Len()))
	best, err := TwoMaxFind(context.Background(), set.Items(), o)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value != 9 {
		t.Fatalf("TwoMaxFind returned %v", best)
	}
	if ledger.Expert() == 0 {
		t.Fatal("ledger not billed")
	}
	cand, err := Filter(context.Background(), set.Items(), NewOracle(NewThresholdWorker(0.5, 0, r), Naive, nil, nil), FilterOptions{Un: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cand {
		if c.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("Filter dropped the maximum")
	}
	rbest, err := RandomizedMaxFind(context.Background(), set.Items(), NewOracle(worker.Truth, Expert, nil, nil), RandomizedOptions{R: r})
	if err != nil || rbest.Value != 9 {
		t.Fatalf("RandomizedMaxFind: %v, %v", rbest, err)
	}
}

func TestFacadeEstimation(t *testing.T) {
	r := NewRand(9)
	cal, err := dataset.UniformCalibrated(400, 10, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	naive := NewOracle(NewThresholdWorker(cal.DeltaN, 0, r.Child("w")), Naive, nil, nil)
	perr, err := EstimatePerr(context.Background(), cal.Set.Items(), naive, EstimatePerrOptions{R: r.Child("p")})
	if err != nil {
		t.Fatal(err)
	}
	if perr <= 0 || perr > 1 {
		t.Fatalf("perr = %g", perr)
	}
	un, err := EstimateUn(context.Background(), cal.Set.Items(), naive, EstimateUnOptions{Perr: 0.5, N: 400})
	if err != nil {
		t.Fatal(err)
	}
	if un < 1 {
		t.Fatalf("un estimate = %d", un)
	}
}

// TestSessionMemoSizedByItemIDs: a run sizes its memos to one past the
// largest item ID, so sparse IDs work; a negative ID, or a checkpoint
// answer naming an item outside the run's IDs, is an error, not a panic.
func TestSessionMemoSizedByItemIDs(t *testing.T) {
	cal, err := dataset.UniformCalibrated(60, 3, 2, NewRand(4).Child("data"))
	if err != nil {
		t.Fatal(err)
	}
	s := statelessSession(t, cal, 4, nil)
	dense := cal.Set.Items()
	sparse := make([]Item, len(dense))
	for i, it := range dense {
		sparse[i] = it
		sparse[i].ID = 10_000 + 3*it.ID
	}
	got, err := s.FindMax(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.ID < 10_000 || (got.Best.ID-10_000)%3 != 0 || got.NaiveComparisons == 0 {
		t.Fatalf("sparse IDs: best %d after %d naive comparisons", got.Best.ID, got.NaiveComparisons)
	}
	sparse[5].ID = -1
	if _, err := s.FindMax(sparse); err == nil {
		t.Fatal("negative item ID accepted")
	}
	resume := &checkpoint.State{ExpertMemo: []checkpoint.PairAnswer{{A: 3, B: 60, Winner: 3}}}
	if _, err := memoSize(dense, resume); err == nil {
		t.Fatal("checkpoint answer for item 60 of a 60-item run accepted")
	}
}
