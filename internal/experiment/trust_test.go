package experiment

import (
	"context"
	"testing"
)

func smallTrust() TrustConfig {
	return TrustConfig{
		N: 200, Trials: 6, Warmup: 200,
		Mixes: []TrustMix{{0, 0}, {0, 3}},
		Seed:  2015,
	}
}

func TestTrustSweepGraphSurvivesCliqueGoldDoesNot(t *testing.T) {
	rep, err := TrustSweep(context.Background(), smallTrust())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic || rep.Hash == "" {
		t.Fatalf("sweep not certified deterministic: %+v", rep)
	}
	if len(rep.Mixes) != 2 {
		t.Fatalf("malformed report: %+v", rep)
	}
	clean, clique := rep.Mixes[0], rep.Mixes[1]
	for _, arm := range TrustArms {
		if r := clean.Arms[arm].RetentionPct; r < 90 {
			t.Errorf("clean pool, arm %s: retention %.1f%%, want ≥ 90", arm, r)
		}
	}
	// Graph buys its evidence with duplicate samples only, gold and hybrid
	// also pay for probes, so on a clean pool graph is the cheapest arm.
	goldC := clean.Arms["gold"].MeanCost
	graphC := clean.Arms["graph"].MeanCost
	hybridC := clean.Arms["hybrid"].MeanCost
	if graphC <= 0 || graphC >= goldC || graphC >= hybridC {
		t.Errorf("clean pool: graph mean cost %.0f, want > 0 and below gold %.0f and hybrid %.0f",
			graphC, goldC, hybridC)
	}
	// The headline: a gold-acing clique collapses the gold arm while the
	// graph arms evict the ring during warm-up and keep the maximum.
	goldR := clique.Arms["gold"].RetentionPct
	graphR := clique.Arms["graph"].RetentionPct
	hybridR := clique.Arms["hybrid"].RetentionPct
	if goldR > 90 || goldR >= graphR || goldR >= hybridR {
		t.Errorf("clique mix: gold retention %.1f%%, want ≤ 90 and below graph %.1f%% / hybrid %.1f%%",
			goldR, graphR, hybridR)
	}
	if graphR < 90 || hybridR < 90 || max(graphR, hybridR) < 95 {
		t.Errorf("clique mix: graph %.1f%% / hybrid %.1f%% retention, want both ≥ 90 and one ≥ 95",
			graphR, hybridR)
	}
}

func TestTrustSweepSameSeedSameHash(t *testing.T) {
	a, err := TrustSweep(context.Background(), smallTrust())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrustSweep(context.Background(), smallTrust())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same seed hashed %s then %s", a.Hash, b.Hash)
	}
	cfg := smallTrust()
	cfg.Seed++
	c, err := TrustSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("different seeds produced the same hash")
	}
}

func TestTrustSweepValidation(t *testing.T) {
	bad := smallTrust()
	bad.Mixes = []TrustMix{{5, 5}} // no honest majority in a pool of 10
	if _, err := TrustSweep(context.Background(), bad); err == nil {
		t.Fatal("mix filling the whole pool accepted")
	}
	bad = smallTrust()
	bad.PoolSize = 1
	if _, err := TrustSweep(context.Background(), bad); err == nil {
		t.Fatal("single-worker pool accepted")
	}
}

func TestTrustReportFigure(t *testing.T) {
	rep, err := TrustSweep(context.Background(), TrustConfig{
		N: 100, Trials: 2, Warmup: 60, Mixes: []TrustMix{{0, 0}}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure()
	if len(fig.Curves) != len(TrustArms) {
		t.Fatalf("figure has %d curves, want %d", len(fig.Curves), len(TrustArms))
	}
	for _, c := range fig.Curves {
		if len(c.X) != 1 || len(c.Y) != 1 {
			t.Fatalf("curve %s has %d points, want 1", c.Name, len(c.X))
		}
	}
}
