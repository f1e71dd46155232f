package core

import (
	"context"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

func TestRandomizedEdges(t *testing.T) {
	r := rng.New(1)
	o := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	if _, err := RandomizedMaxFind(context.Background(), nil, o, RandomizedOptions{R: r}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := RandomizedMaxFind(context.Background(), []item.Item{{ID: 0}, {ID: 1}}, o, RandomizedOptions{}); err == nil {
		t.Fatal("nil RNG accepted")
	}
	single := []item.Item{{ID: 5, Value: 2}}
	got, err := RandomizedMaxFind(context.Background(), single, o, RandomizedOptions{R: r})
	if err != nil || got.ID != 5 {
		t.Fatalf("singleton: %v, %v", got, err)
	}
}

func TestRandomizedTruthfulFindsMax(t *testing.T) {
	root := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		r := root.ChildN("t", trial)
		n := 2 + r.Intn(400)
		s := dataset.Uniform(n, 0, 1, r)
		o := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
		got, err := RandomizedMaxFind(context.Background(), s.Items(), o, RandomizedOptions{R: r})
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != s.Max().ID {
			t.Fatalf("trial %d (n=%d): returned rank %d", trial, n, s.Rank(got.ID))
		}
	}
}

func TestRandomizedGuaranteeUnderThresholdModel(t *testing.T) {
	// Lemma 4 / Ajtai et al. Theorem 4: d(M, e) ≤ 3δ w.h.p. We check all
	// trials stay within 3δ (failures are polynomially unlikely and the
	// seeds are fixed).
	root := rng.New(3)
	for trial := 0; trial < 15; trial++ {
		r := root.ChildN("t", trial)
		n := 50 + r.Intn(300)
		delta := 0.05
		s := dataset.Uniform(n, 0, 1, r)
		w := &worker.Threshold{Delta: delta, Tie: worker.RandomTie{R: r}, R: r}
		o := tournament.NewOracle(w, worker.Expert, nil, nil)
		got, err := RandomizedMaxFind(context.Background(), s.Items(), o, RandomizedOptions{R: r})
		if err != nil {
			t.Fatal(err)
		}
		if d := item.Distance(s.Max(), got); d > 3*delta {
			t.Fatalf("trial %d: d(M, e) = %g > 3δ = %g", trial, d, 3*delta)
		}
	}
}

func TestRandomizedLinearButHugeConstants(t *testing.T) {
	// The Section 4.1.2 observation that drives the paper's choice of
	// 2-MaxFind in practice: Algorithm 5 performs (much) more comparisons
	// than 2-MaxFind at practical sizes, despite its linear asymptotics.
	r := rng.New(4)
	n := 500
	s := dataset.Uniform(n, 0, 1, r)

	lRand := cost.NewLedger()
	w1 := &worker.Threshold{Delta: 0.02, Tie: worker.RandomTie{R: r.Child("a")}, R: r.Child("a")}
	oRand := tournament.NewOracle(w1, worker.Expert, lRand, nil)
	if _, err := RandomizedMaxFind(context.Background(), s.Items(), oRand, RandomizedOptions{R: r.Child("ra")}); err != nil {
		t.Fatal(err)
	}

	lTwo := cost.NewLedger()
	w2 := &worker.Threshold{Delta: 0.02, Tie: worker.RandomTie{R: r.Child("b")}, R: r.Child("b")}
	oTwo := tournament.NewOracle(w2, worker.Expert, lTwo, nil)
	if _, err := TwoMaxFind(context.Background(), s.Items(), oTwo); err != nil {
		t.Fatal(err)
	}

	if lRand.Expert() <= lTwo.Expert() {
		t.Fatalf("expected Algorithm 5 (%d) to cost more than 2-MaxFind (%d) at n=%d",
			lRand.Expert(), lTwo.Expert(), n)
	}
}

func TestRandomizedDoesNotMutateInput(t *testing.T) {
	r := rng.New(6)
	s := dataset.Uniform(80, 0, 1, r)
	in := s.Items()
	want := s.Items()
	o := tournament.NewOracle(worker.Truth, worker.Expert, nil, nil)
	if _, err := RandomizedMaxFind(context.Background(), in, o, RandomizedOptions{R: r}); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != want[i] {
			t.Fatal("input slice mutated")
		}
	}
}
