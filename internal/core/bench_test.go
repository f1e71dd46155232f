package core

import (
	"context"
	"fmt"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// Ablation benchmarks for the design choices called out in DESIGN.md:
// memoization (Appendix A opt. 1), phase-2 algorithm choice, and tie-break
// policy. Each reports
// comparisons/op — the metric the paper's cost model prices — alongside
// wall-clock time.

func benchInstance(b *testing.B, n, un, ue int, seed uint64) (dataset.Calibrated, *rng.Source) {
	b.Helper()
	r := rng.New(seed)
	cal, err := dataset.UniformCalibrated(n, un, ue, r.Child("data"))
	if err != nil {
		b.Fatal(err)
	}
	return cal, r
}

func BenchmarkFilter(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		for _, variant := range []struct {
			name string
			memo bool
		}{
			{"plain", false},
			{"memo", true},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, variant.name), func(b *testing.B) {
				cal, r := benchInstance(b, n, 10, 5, 2015)
				items := cal.Set.Items()
				var totalComparisons int64
				for i := 0; i < b.N; i++ {
					ledger := cost.NewLedger()
					w := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r}, R: r}
					var memo *tournament.Memo
					if variant.memo {
						memo = tournament.NewMemo(n)
					}
					o := tournament.NewOracle(w, worker.Naive, ledger, memo)
					if _, err := Filter(context.Background(), items, o, FilterOptions{Un: 10}); err != nil {
						b.Fatal(err)
					}
					totalComparisons += ledger.Naive()
				}
				b.ReportMetric(float64(totalComparisons)/float64(b.N), "comparisons/op")
			})
		}
	}
}

func BenchmarkPhase2(b *testing.B) {
	// The paper's Section 4.1.2 trade-off: all-play-all vs 2-MaxFind vs
	// randomized on candidate sets of realistic sizes.
	for _, s := range []int{19, 99, 499} {
		for _, variant := range []struct {
			name string
			run  func(ctx context.Context, items []item.Item, o *tournament.Oracle, r *rng.Source) (item.Item, error)
		}{
			{"allplayall", func(ctx context.Context, items []item.Item, o *tournament.Oracle, _ *rng.Source) (item.Item, error) {
				res, err := tournament.RoundRobin(ctx, items, o)
				if err != nil {
					return item.Item{}, err
				}
				return res.TopByWins(), nil
			}},
			{"twomaxfind", func(ctx context.Context, items []item.Item, o *tournament.Oracle, _ *rng.Source) (item.Item, error) {
				return TwoMaxFind(ctx, items, o)
			}},
			{"randomized", func(ctx context.Context, items []item.Item, o *tournament.Oracle, r *rng.Source) (item.Item, error) {
				return RandomizedMaxFind(ctx, items, o, RandomizedOptions{R: r})
			}},
		} {
			b.Run(fmt.Sprintf("s%d/%s", s, variant.name), func(b *testing.B) {
				r := rng.New(7)
				set := dataset.Uniform(s, 0, 1, r.Child("data"))
				items := set.Items()
				var totalComparisons int64
				for i := 0; i < b.N; i++ {
					ledger := cost.NewLedger()
					w := &worker.Threshold{Delta: 0.01, Tie: worker.RandomTie{R: r}, R: r}
					o := tournament.NewOracle(w, worker.Expert, ledger, nil)
					if _, err := variant.run(context.Background(), items, o, r.ChildN("p2", i)); err != nil {
						b.Fatal(err)
					}
					totalComparisons += ledger.Expert()
				}
				b.ReportMetric(float64(totalComparisons)/float64(b.N), "comparisons/op")
			})
		}
	}
}

func BenchmarkTwoMaxFindTieBreak(b *testing.B) {
	// Average vs worst case: random tie-breaking on random data vs the
	// pivot-loses adversary on an all-indistinguishable instance.
	const n = 1000
	b.Run("random", func(b *testing.B) {
		r := rng.New(3)
		set := dataset.Uniform(n, 0, 1, r.Child("data"))
		items := set.Items()
		var total int64
		for i := 0; i < b.N; i++ {
			ledger := cost.NewLedger()
			w := &worker.Threshold{Delta: 0.01, Tie: worker.RandomTie{R: r}, R: r}
			o := tournament.NewOracle(w, worker.Expert, ledger, nil)
			if _, err := TwoMaxFind(context.Background(), items, o); err != nil {
				b.Fatal(err)
			}
			total += ledger.Expert()
		}
		b.ReportMetric(float64(total)/float64(b.N), "comparisons/op")
	})
	b.Run("adversarial", func(b *testing.B) {
		set, err := dataset.AdversarialIndistinguishable(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		items := set.Items()
		r := rng.New(4)
		var total int64
		for i := 0; i < b.N; i++ {
			ledger := cost.NewLedger()
			w := &worker.Threshold{Delta: 1, Tie: worker.FirstLosesTie{}, R: r}
			o := tournament.NewOracle(w, worker.Expert, ledger, nil)
			if _, err := TwoMaxFind(context.Background(), items, o); err != nil {
				b.Fatal(err)
			}
			total += ledger.Expert()
		}
		b.ReportMetric(float64(total)/float64(b.N), "comparisons/op")
	})
}

func BenchmarkFindMaxEndToEnd(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			cal, r := benchInstance(b, n, 10, 5, 9)
			items := cal.Set.Items()
			for i := 0; i < b.N; i++ {
				nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r}, R: r}
				ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r}, R: r}
				no := tournament.NewOracle(nw, worker.Naive, nil, nil)
				eo := tournament.NewOracle(ew, worker.Expert, nil, nil)
				if _, err := FindMax(context.Background(), items, no, eo, FindMaxOptions{Un: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimateUn(b *testing.B) {
	cal, r := benchInstance(b, 2000, 15, 5, 13)
	items := cal.Set.Items()
	for i := 0; i < b.N; i++ {
		w := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r}, R: r}
		o := tournament.NewOracle(w, worker.Naive, nil, nil)
		if _, err := EstimateUn(context.Background(), items, o, EstimateUnOptions{Perr: 0.5, N: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}
