package core

import (
	"context"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestFilterAllocsConstant is the allocation gate of phase 1: on a memo
// primed by an identical run, Filter at un=8 allocates a small constant
// number of times, the same at n=2000 as at n=4000. Its group tournaments
// share one retained scratch, so the count must not grow with the number of
// groups.
func TestFilterAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const un = 8
	allocs := map[int]float64{}
	for _, n := range []int{2000, 4000} {
		cal, err := dataset.UniformCalibrated(n, un, un/2, rng.New(11).Child("data"))
		if err != nil {
			t.Fatal(err)
		}
		w := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.HashTie{Seed: 11}}
		o := tournament.NewOracle(w, worker.Naive, cost.NewLedger(), tournament.NewMemo(n))
		items := cal.Set.Items()
		run := func() {
			if _, err := Filter(context.Background(), items, o, FilterOptions{Un: un}); err != nil {
				t.Fatal(err)
			}
		}
		run() // prime the memo: every later pair is a hit
		allocs[n] = testing.AllocsPerRun(5, run)
	}
	t.Logf("allocations per Filter run: %v", allocs)
	if allocs[2000] != allocs[4000] || allocs[2000] > 16 {
		t.Fatalf("Filter allocates %v per run at n=2000 and %v at n=4000; want one small constant",
			allocs[2000], allocs[4000])
	}
}
