package core

import (
	"context"
	"strings"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// oracles builds a naïve and an expert oracle for a calibrated instance.
func oracles(cal dataset.Calibrated, r *rng.Source, ln, le *cost.Ledger) (*tournament.Oracle, *tournament.Oracle) {
	nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("n")}, R: r.Child("n")}
	ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r.Child("e")}, R: r.Child("e")}
	return tournament.NewOracle(nw, worker.Naive, ln, nil),
		tournament.NewOracle(ew, worker.Expert, le, nil)
}

func TestFindMaxEndToEndGuarantee(t *testing.T) {
	// Theorem 1: with a 2-MaxFind phase 2, d(M, e) ≤ 2δe, ≤ 4·n·un naïve
	// and ≤ 2(2un−1)^{3/2} expert comparisons.
	root := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		r := root.ChildN("t", trial)
		n := 200 + r.Intn(800)
		un := 4 + r.Intn(10)
		ue := 1 + r.Intn(un)
		cal, err := dataset.UniformCalibrated(n, un, ue, r)
		if err != nil {
			t.Fatal(err)
		}
		ln, le := cost.NewLedger(), cost.NewLedger()
		no, eo := oracles(cal, r, ln, le)
		res, err := FindMax(context.Background(), cal.Set.Items(), no, eo, FindMaxOptions{Un: un})
		if err != nil {
			t.Fatal(err)
		}
		if d := item.Distance(cal.Set.Max(), res.Best); d > 2*cal.DeltaE {
			t.Fatalf("trial %d: d(M, e) = %g > 2δe = %g", trial, d, 2*cal.DeltaE)
		}
		if len(res.Candidates) > CandidateSetBound(un) {
			t.Fatalf("trial %d: |S| = %d", trial, len(res.Candidates))
		}
		if float64(ln.Naive()) > Phase1UpperBound(n, un) {
			t.Fatalf("trial %d: naïve comparisons %d over bound", trial, ln.Naive())
		}
		if float64(le.Expert()) > Phase2ExpertUpperBound(un) {
			t.Fatalf("trial %d: expert comparisons %d over bound %g",
				trial, le.Expert(), Phase2ExpertUpperBound(un))
		}
		if ln.Expert() != 0 || le.Naive() != 0 {
			t.Fatalf("trial %d: phase ledgers cross-contaminated", trial)
		}
	}
}

func TestFindMaxPropagatesPhase1Error(t *testing.T) {
	r := rng.New(5)
	cal, err := dataset.UniformCalibrated(100, 3, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	no, eo := oracles(cal, r, nil, nil)
	_, err = FindMax(context.Background(), cal.Set.Items(), no, eo, FindMaxOptions{Un: 0})
	if err == nil || !strings.Contains(err.Error(), "phase 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestFindMaxExactWhenExpertsPerfect(t *testing.T) {
	// δe → 0 experts return the exact maximum.
	root := rng.New(6)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(500, 10, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r}, R: r}
		no := tournament.NewOracle(nw, worker.Naive, nil, nil)
		eo := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
		res, err := FindMax(context.Background(), cal.Set.Items(), no, eo, FindMaxOptions{Un: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.ID != cal.Set.Max().ID {
			t.Fatalf("trial %d: perfect experts returned rank %d",
				trial, cal.Set.Rank(res.Best.ID))
		}
	}
}

func TestFindMaxWithDistanceDependentError(t *testing.T) {
	// Appendix A's "more realistic model": above the threshold the error
	// probability decays with distance. With a decay fast enough that
	// far-apart comparisons are near-perfect, the two-phase algorithm
	// keeps finding a top element despite every comparison being fallible.
	root := rng.New(8)
	var sum float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(600, 8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		mkWorker := func(delta float64, rr *rng.Source) worker.Comparator {
			return &worker.DistanceError{
				Delta: delta,
				// ε(d) = 0.3·δ/d: 30% at the threshold, decaying as
				// elements separate.
				EpsilonAt: func(d float64) float64 { return 0.3 * delta / d },
				Tie:       worker.RandomTie{R: rr},
				R:         rr,
			}
		}
		no := tournament.NewOracle(mkWorker(cal.DeltaN, r.Child("n")), worker.Naive, nil, nil)
		eo := tournament.NewOracle(mkWorker(cal.DeltaE, r.Child("e")), worker.Expert, nil, nil)
		res, err := FindMax(context.Background(), cal.Set.Items(), no, eo, FindMaxOptions{Un: 8})
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(cal.Set.Rank(res.Best.ID))
	}
	if avg := sum / trials; avg > 15 {
		t.Fatalf("average rank %.1f under decaying distance error, want modest degradation", avg)
	}
}
