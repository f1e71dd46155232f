// Benchmarks regenerating each table and figure of the paper's evaluation.
// One benchmark per experiment, on a reduced sweep so `go test -bench=.`
// completes quickly; run cmd/benchrun for the full paper-scale sweeps.
package crowdmax_test

import (
	"context"
	"fmt"
	"testing"

	"crowdmax"
	"crowdmax/internal/experiment"
)

// benchSweep is a reduced version of the paper's 1000..5000 sweep.
func benchSweep(un, ue int) experiment.Sweep {
	return experiment.Sweep{Ns: []int{500, 1000}, Un: un, Ue: ue, Trials: 2, Seed: 2015}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiment.Fig2(experiment.Fig2Config{
			Seed: uint64(i), PairsPerBand: 10, Repeats: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		un, ue int
	}{{"un10ue5", 10, 5}, {"un50ue10", 50, 10}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchSweep(cfg.un, cfg.ue)
				s.Seed = uint64(i)
				if _, err := experiment.Fig3(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSweep(10, 5)
		s.Seed = uint64(i)
		if _, err := experiment.Fig4(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig5(context.Background(), experiment.CostConfig{
			Sweep: benchSweep(10, 5), CE: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6(context.Background(), experiment.Fig6Config{
			Sweep: benchSweep(10, 5),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(context.Background(), experiment.FactorCostConfig{
			CostConfig: experiment.CostConfig{Sweep: benchSweep(10, 5), CE: 20},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(context.Background(), experiment.CostConfig{
			Sweep: benchSweep(10, 5), CE: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig10(experiment.FactorCostConfig{
			CostConfig: experiment.CostConfig{Sweep: benchSweep(10, 5), CE: 50},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Retention(context.Background(), experiment.Fig6Config{
			Sweep:   benchSweep(10, 5),
			Factors: []float64{0.2, 0.5, 0.8, 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(context.Background(), experiment.CrowdConfig{
			Seed: uint64(i), Spammers: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Table2(context.Background(), experiment.CrowdConfig{
			Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SearchEval(context.Background(), experiment.SearchConfig{
			Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.MajorityBound(experiment.MajorityConfig{
			Seed: uint64(i), Trials: 300,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EpsilonSweep(context.Background(), experiment.EpsilonConfig{
			Sweep:    experiment.Sweep{Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i)},
			Epsilons: []float64{0, 0.2, 0.4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CascadeExperiment(context.Background(), experiment.CascadeConfig{
			Ns: []int{500}, Us: [3]int{20, 6, 2}, PriceRatio: 50,
			Trials: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepsExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.StepsExperiment(context.Background(), experiment.Sweep{
			Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBracketAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BracketAccuracy(context.Background(), experiment.BracketConfig{
			Sweep: experiment.Sweep{Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// BenchmarkSessionRun times one Session.Run job of each kind crowdbench's
// lib-mixed workload runs, at its shape (n=2000, un=8): a max-find, a top-5,
// and a max-find whose naive class is a 20-worker pool under the
// agreement-graph scorer duplicating every second request. Each iteration
// builds a fresh session (and pool), as a job does, so B/op and allocs/op
// are bytes and allocations per job.
func BenchmarkSessionRun(b *testing.B) {
	for _, kind := range []string{"max", "topk", "pool"} {
		b.Run(kind, func(b *testing.B) {
			job := sessionRunJob(b, kind, 2000)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job()
			}
		})
	}
}

// TestSessionRunAllocsBounded is the allocation gate of a whole job: each
// BenchmarkSessionRun kind allocates about as often at n=4000 as at
// n=2000. Group tournaments reuse one scratch and the memo carves its rows
// from doubling slabs, so doubling n may add only a few growth steps
// (memo slabs, map and slice growth) — never one allocation per item or
// per group, of which n=2000 already has 2000 and 63.
func TestSessionRunAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, kind := range []string{"max", "topk", "pool"} {
		small := testing.AllocsPerRun(2, sessionRunJob(t, kind, 2000))
		large := testing.AllocsPerRun(2, sessionRunJob(t, kind, 4000))
		t.Logf("%s: %v allocations per job at n=2000, %v at n=4000", kind, small, large)
		if large > small+24 {
			t.Errorf("%s job allocates %v times at n=2000 but %v at n=4000, want at most 24 more", kind, small, large)
		}
	}
}

// sessionRunJob returns one lib-mixed-shaped job of the given kind over n
// uniform items (un=8); each call builds a fresh session (and pool), as a
// job does.
func sessionRunJob(tb testing.TB, kind string, n int) func() {
	const un, seed = 8, 5
	set := crowdmax.UniformDataset(n, 0, 1, crowdmax.NewRand(seed).Child("data"))
	dn, err := set.DeltaForU(un)
	if err != nil {
		tb.Fatal(err)
	}
	de, err := set.DeltaForU(un / 2)
	if err != nil {
		tb.Fatal(err)
	}
	items := set.Items()
	return func() {
		cfg := crowdmax.Config{
			Naive:   &crowdmax.ThresholdWorker{Delta: dn, Tie: crowdmax.HashTie{Seed: seed}},
			Expert:  &crowdmax.ThresholdWorker{Delta: de, Tie: crowdmax.HashTie{Seed: seed + 1}},
			Un:      un,
			Prices:  crowdmax.Prices{Naive: 1, Expert: 10},
			Rand:    crowdmax.NewRand(seed),
			Degrade: &crowdmax.DegradeConfig{},
		}
		w := crowdmax.MaxFind()
		switch kind {
		case "topk":
			w = crowdmax.TopKWorkload(5)
		case "pool":
			workers := make([]crowdmax.PoolWorker, 20)
			for k := range workers {
				workers[k] = crowdmax.PoolWorker{
					Name:    fmt.Sprintf("w%02d", k),
					Backend: crowdmax.NewSimulatedBackend(&crowdmax.ThresholdWorker{Delta: dn, Tie: crowdmax.HashTie{Seed: seed + 2 + uint64(k)}}),
				}
			}
			pool, err := crowdmax.NewWorkerPool(workers, seed)
			if err != nil {
				tb.Fatal(err)
			}
			cfg.NaiveBackend = pool
			cfg.Health = crowdmax.HealthConfig{Scorer: crowdmax.ScorerGraph, DisagreeEvery: 2, Seed: seed}
		}
		sess, err := crowdmax.NewSession(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), w, items); err != nil {
			tb.Fatal(err)
		}
	}
}
