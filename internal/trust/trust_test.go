package trust

import (
	"fmt"
	"reflect"
	"testing"

	"crowdmax/internal/rng"
)

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// feed records nSamples observations between random worker pairs, with
// agreement probabilities given by kind: honest↔honest workers agree with
// probability pHonest, clique↔clique members always agree, any mixed pair
// (or any pair involving a spammer) agrees at its chance/adversarial rate.
func feed(g *Graph, r *rng.Source, nSamples int, honest, spammers, clique int) {
	n := honest + spammers + clique
	kind := func(i int) string {
		switch {
		case i < honest:
			return "honest"
		case i < honest+spammers:
			return "spammer"
		default:
			return "clique"
		}
	}
	name := func(i int) string { return fmt.Sprintf("%s-%d", kind(i), i) }
	for s := 0; s < nSamples; s++ {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		var p float64
		switch kind(i) + "/" + kind(j) {
		case "honest/honest":
			p = 0.9
		case "clique/clique":
			p = 1.0
		case "honest/clique", "clique/honest":
			p = 0.1 // the clique inverts what honest workers resolve
		default:
			p = 0.5 // spammers agree with everyone at chance
		}
		g.Observe(name(i), name(j), r.Bernoulli(p))
	}
}

func TestExtractFindsHonestCoreAgainstCliqueAndSpammers(t *testing.T) {
	g := New(Config{Seed: 7})
	feed(g, rng.New(11), 600, 6, 2, 2)
	ext := g.Extract()
	if len(ext.Core) < 4 {
		t.Fatalf("core too small: %v", ext.Core)
	}
	for _, name := range ext.Core {
		if name[:6] != "honest" {
			t.Fatalf("non-honest worker %s extracted into the core (%v)", name, ext.Core)
		}
	}
	if ext.Confidence < 0.5 {
		t.Fatalf("confidence %.3f too low for a well-separated 600-sample graph", ext.Confidence)
	}
	// Honest workers score high against the core; clique members and
	// spammers score below any sane floor.
	for name, score := range ext.Scores {
		switch {
		case name[:6] == "honest" && score < 0.7:
			t.Errorf("honest worker %s scored %.3f, want ≥ 0.7", name, score)
		case name[:6] != "honest" && score >= 0.7:
			t.Errorf("%s scored %.3f, want < 0.7", name, score)
		}
	}
}

func TestExtractPrefersLargerHonestCoreOverPerfectClique(t *testing.T) {
	// A 3-clique with perfect internal agreement vs 7 honest workers at
	// 0.9: the honest core's density wins while honesty holds the majority.
	g := New(Config{Seed: 3})
	feed(g, rng.New(5), 1000, 7, 0, 3)
	ext := g.Extract()
	if len(ext.Core) < 5 {
		t.Fatalf("core %v too small", ext.Core)
	}
	for _, name := range ext.Core {
		if name[:6] != "honest" {
			t.Fatalf("clique member %s in core %v", name, ext.Core)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	build := func() Extraction {
		g := New(Config{Seed: 42})
		feed(g, rng.New(9), 400, 5, 2, 3)
		return g.Extract()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("extraction not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestExtractEmptyAndThinGraphs(t *testing.T) {
	g := New(Config{})
	if ext := g.Extract(); ext.Confidence != 0 || len(ext.Core) != 0 {
		t.Fatalf("empty graph extracted %+v", ext)
	}
	// One agreement between two workers: a core may exist but a 2-worker
	// core is below MinCore, so confidence must stay 0.
	g.Observe("a", "b", true)
	ext := g.Extract()
	if ext.Confidence != 0 {
		t.Fatalf("2-vertex graph reported confidence %.3f, want 0", ext.Confidence)
	}
	// All-disagreement graph: every edge clips to zero weight — no core.
	g2 := New(Config{})
	for i := 0; i < 10; i++ {
		g2.Observe("a", "b", false)
		g2.Observe("b", "c", false)
		g2.Observe("a", "c", false)
	}
	if ext := g2.Extract(); len(ext.Core) != 0 || ext.Confidence != 0 {
		t.Fatalf("all-disagreement graph extracted %+v", ext)
	}
}

func TestForgetErasesEdgesAndScores(t *testing.T) {
	g := New(Config{Seed: 1})
	feed(g, rng.New(2), 500, 6, 0, 2)
	before := g.Extract()
	if _, ok := before.Scores["clique-6"]; !ok {
		t.Fatal("clique-6 never accumulated a score; test needs more samples")
	}
	n := g.Samples()
	g.Forget("clique-6")
	if g.Samples() >= n {
		t.Fatalf("Forget did not drop samples: %d → %d", n, g.Samples())
	}
	after := g.Extract()
	if _, ok := after.Scores["clique-6"]; ok {
		t.Fatalf("forgotten worker still scored: %+v", after.Scores)
	}
	// Unknown names are a no-op.
	g.Forget("nobody")
}

func TestObserveIgnoresSelfAndDefaults(t *testing.T) {
	g := New(Config{})
	g.Observe("a", "a", true)
	if g.Samples() != 0 {
		t.Fatalf("self-observation recorded: %d samples", g.Samples())
	}
	cfg := g.Config()
	if cfg.MinSamples != 4 || cfg.MinCore != 3 || cfg.Penalty != 1 || cfg.ExtractEvery != 16 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestInCore(t *testing.T) {
	x := Extraction{Core: []string{"a", "c", "d"}}
	for _, tc := range []struct {
		name string
		want bool
	}{{"a", true}, {"b", false}, {"c", true}, {"d", true}, {"e", false}} {
		if got := x.InCore(tc.name); got != tc.want {
			t.Errorf("InCore(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestExtractIntoWarmZeroAllocs: once an Extraction has held an extraction
// of a 20-worker graph, refilling it in place allocates nothing — the dispatch
// pool's steady state, which extracts every few duplicates for a whole job.
func TestExtractIntoWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := New(Config{Seed: 3})
	feed(g, rng.New(3), 2000, 14, 3, 3)
	var ext Extraction
	g.ExtractInto(&ext)
	if len(ext.Core) == 0 || len(ext.Scores) == 0 {
		t.Fatalf("warm-up extraction is empty: %+v", ext)
	}
	if n := testing.AllocsPerRun(50, func() { g.ExtractInto(&ext) }); n != 0 {
		t.Fatalf("warm ExtractInto allocates %.1f per call, want 0", n)
	}
	if err := sameExtraction(ext, g.Extract()); err != nil {
		t.Fatalf("in-place extraction differs from Extract: %v", err)
	}
}
