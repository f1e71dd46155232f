package main

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload for half a second after its warm-up and
// checks that every job ended done with an honest result and that the
// digest of the first five jobs matches the one pinned for seed 1. The
// svc-small run is traced, so the per-layer path runs too.
func TestSmoke(t *testing.T) {
	var pins pinTable
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			traced := w.name == "svc-small"
			res, err := runWorkload(ctx, w, runOpts{seed: 1, seconds: 0.5, minJobs: 5, relaxed: true, traced: traced})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed > 0 || len(res.Problems) > 0 {
				t.Fatalf("%d of %d jobs failed; problems: %v", res.Failed, res.Attempted, res.Problems)
			}
			want := pins[w.name]["1"]["5"]
			if want == "" || res.Digests[5] != want {
				t.Fatalf("digest of the first 5 jobs %q, pinned %q", res.Digests[5], want)
			}
			names := endToEndNames[1:] // setup_s is measured across processes
			if traced {
				names = append(slices.Clone(names), perLayerNames[:len(perLayerNames)-1]...) // the overhead needs a second run
			}
			for _, n := range names {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("metric %s missing", n)
				}
			}
		})
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		refuse bool
	}{
		{n: 100, q: 0.90, want: 90},
		{n: 100, q: 0.95, refuse: true},
		{n: 1000, q: 0.99, want: 990},
		{n: 999, q: 0.99, refuse: true},
		{n: 200, q: 0.95, want: 190},
	} {
		v, err := tail(seq(c.n), c.q)
		if c.refuse != (err != nil) || !c.refuse && v != c.want {
			t.Errorf("tail(1..%d, %g) = %g, %v; want %g, refuse %v", c.n, c.q, v, err, c.want, c.refuse)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.0, 7.5}, [3]float64{2.0, 3.1, 7.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudgePairsRuns(t *testing.T) {
	flat := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v + 0.01*float64(i%3)
		}
		return xs
	}
	noisy := []float64{10, 14, 8, 12, 9, 15, 7, 13, 11, 10}
	slightlyBetter := make([]float64, len(noisy))
	for i, x := range noisy {
		slightlyBetter[i] = x - 0.5
	}
	eightWins := append(flat(9, 8), 11, 11)
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"clear gain, lower is better", flat(10, 10), flat(9, 10), false, "gain"},
		{"clear gain, higher is better", flat(10, 10), flat(11, 10), true, "gain"},
		{"identical runs", flat(10, 10), flat(10, 10), false, "same"},
		{"eight wins of ten is no gain", flat(10, 10), eightWins, false, "same"},
		{"wins every pair, gap inside the parent's spread", noisy, slightlyBetter, false, "unresolved"},
		{"worse by more than the bound", flat(10, 10), flat(12, 10), false, "regression"},
		{"worse within the bound", flat(10, 10), flat(10.5, 10), false, "same"},
		{"spread wider than the bound", noisy, noisy, false, "unresolved"},
		{"wide spread, but every change run better", []float64{20, 30, 25, 22, 28}, []float64{5, 9, 7, 6, 8}, false, "gain"},
	} {
		if got := judge(c.parent, c.change, c.higherBetter, 0.1).call; got != c.want {
			t.Errorf("%s: judged %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMetricsMatchSpec(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", got, perLayerNames)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	for i, w := range workloads {
		if i >= len(wl) || wl[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, program runs %s at %d", wl, w.name, i)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound) {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
