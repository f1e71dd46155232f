package crowdmax

import (
	"context"
	"strings"
	"testing"

	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

// These tests exercise the façade re-exports end to end, so every public
// entry point is covered by at least one realistic use.

func TestFacadeDatasets(t *testing.T) {
	r := NewRand(1)

	u := UniformDataset(100, 0, 1, r.Child("u"))
	if u.Len() != 100 {
		t.Fatalf("uniform len = %d", u.Len())
	}

	cal, err := CalibratedUniform(200, 8, 3, r.Child("cal"))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Set.UCount(cal.DeltaN) != 8 || cal.Set.UCount(cal.DeltaE) != 3 {
		t.Fatal("calibration targets missed")
	}

	cars, catalogue, err := CarsDataset(CarsConfig{}, r.Child("cars"))
	if err != nil {
		t.Fatal(err)
	}
	if cars.Len() != 110 || len(catalogue) != 110 {
		t.Fatalf("cars = %d/%d", cars.Len(), len(catalogue))
	}
	sub, err := SampleDataset(cars, 50, r.Child("sample"))
	if err != nil || sub.Len() != 50 {
		t.Fatalf("sample: %v, %v", sub, err)
	}

	dots := DotsDataset(50)
	if dots.Len() != 50 {
		t.Fatalf("dots len = %d", dots.Len())
	}
	if len(DotsGold()) != 30 {
		t.Fatal("gold size wrong")
	}

	search, err := SearchDataset(QueryAsymmetricTSP, 50, 0.05, r.Child("s"))
	if err != nil || search.Len() != 50 {
		t.Fatalf("search: %v", err)
	}
	if !strings.Contains(search.Max().Label, string(QueryAsymmetricTSP)) {
		t.Fatal("search labels missing query")
	}
}

func TestFacadeSetConstruction(t *testing.T) {
	s := NewSetItems([]Item{{Value: 2, Label: "two"}, {Value: 5, Label: "five"}})
	if s.Max().Label != "five" {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestFacadeWorkers(t *testing.T) {
	r := NewRand(2)
	p := NewThresholdWorker(0.1, 0.25, r)
	if p.Delta != 0.1 || p.Epsilon != 0.25 {
		t.Fatalf("threshold worker = %+v", p)
	}
	// A HashTie worker answers an under-threshold pair the same way every
	// time, in either argument order.
	h := &ThresholdWorker{Delta: 1, Tie: HashTie{Seed: 5}}
	a, b := Item{ID: 0, Value: 1}, Item{ID: 1, Value: 1.5}
	first := h.Compare(a, b).ID
	for i := 0; i < 10; i++ {
		if h.Compare(a, b).ID != first || h.Compare(b, a).ID != first {
			t.Fatal("HashTie answer depends on call order")
		}
	}
	v := NoisyValuer{Sigma: 0.5, Seed: 7}
	if v.Value(a, 3) != v.Value(a, 3) {
		t.Fatal("NoisyValuer is not replay-stable")
	}
}

func TestFacadeFindMaxFreeFunction(t *testing.T) {
	r := NewRand(3)
	cal, err := CalibratedUniform(400, 6, 2, r.Child("data"))
	if err != nil {
		t.Fatal(err)
	}
	ledger := NewLedger()
	no := NewOracle(NewThresholdWorker(cal.DeltaN, 0, r.Child("n")), Naive, ledger, NewMemo(cal.Set.Len()))
	eo := NewOracle(NewThresholdWorker(cal.DeltaE, 0, r.Child("e")), Expert, ledger, NewMemo(cal.Set.Len()))
	res, err := FindMax(context.Background(), cal.Set.Items(), no, eo, FindMaxOptions{Un: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d := item.Distance(cal.Set.Max(), res.Best); d > 2*cal.DeltaE {
		t.Fatalf("d = %g", d)
	}
	if ledger.Naive() == 0 || ledger.Expert() == 0 {
		t.Fatal("ledger not billed")
	}
}

func TestFacadeCascade(t *testing.T) {
	r := NewRand(4)
	set := UniformDataset(500, 0, 1, r.Child("data"))
	us := []int{20, 6, 2}
	levels := make([]Level, len(us))
	for i, u := range us {
		d, err := set.DeltaForU(u)
		if err != nil {
			t.Fatal(err)
		}
		levels[i] = Level{
			Oracle: NewOracle(NewThresholdWorker(d, 0, r.ChildN("w", i)), Class(i), nil, nil),
			U:      u,
		}
	}
	res, err := CascadeFindMax(context.Background(), set.Items(), CascadeOptions{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	dFine, err := set.DeltaForU(2)
	if err != nil {
		t.Fatal(err)
	}
	if d := item.Distance(set.Max(), res.Best); d > 2*dFine {
		t.Fatalf("cascade d = %g > 2δ", d)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidate sets = %d", len(res.Candidates))
	}
}

func TestFacadePlatformAndWorld(t *testing.T) {
	r := NewRand(5)
	plat, err := NewPlatform(PlatformConfig{R: r.Child("p")})
	if err != nil {
		t.Fatal(err)
	}
	world := NewWorkerWorld(WisdomRegime{Sharpness: 5}, r.Child("world"))
	for i := 0; i < 5; i++ {
		plat.AddWorker(world.Worker(r.ChildN("w", i)))
	}
	plat.AddWorker(Spammer{R: r.Child("spam")})
	gold := DotsGold()
	plat.SetGold([]PlatformPair{{A: gold[0], B: gold[29]}})

	a, b := Item{ID: 0, Value: -100}, Item{ID: 1, Value: -900}
	if got := plat.Comparator(7).Compare(a, b); got.ID != 0 {
		t.Fatalf("majority pick = %v", got)
	}
	if plat.ActiveWorkers() < 5 {
		t.Fatal("honest workers banned")
	}
}

func TestFacadePlateauWorld(t *testing.T) {
	r := NewRand(6)
	world := NewWorkerWorld(PlateauRegime{Threshold: 0.2, Epsilon: 0.05}, r.Child("world"))
	w := world.Worker(r.Child("w"))
	// Easy pair (rel diff 0.5): essentially always correct.
	a, b := Item{ID: 0, Value: 100}, Item{ID: 1, Value: 200}
	correct := 0
	for i := 0; i < 200; i++ {
		if w.Compare(a, b).ID == 1 {
			correct++
		}
	}
	if correct < 170 {
		t.Fatalf("easy-pair accuracy %d/200", correct)
	}
}

func TestFacadeTopKAndRankByWins(t *testing.T) {
	r := NewRand(7)
	set := UniformDataset(200, 0, 1, r.Child("data"))
	no := NewOracle(worker.Truth, Naive, nil, NewMemo(set.Len()))
	eo := NewOracle(worker.Truth, Expert, nil, NewMemo(set.Len()))
	top, err := TopK(context.Background(), set.Items(), no, eo, TopKOptions{K: 3, U: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range top {
		if set.Rank(it.ID) != i+1 {
			t.Fatalf("TopK position %d has rank %d", i, set.Rank(it.ID))
		}
	}
	ranked, err := core.RankByWins(context.Background(), top, eo)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 || ranked[0].ID != top[0].ID {
		t.Fatal("RankByWins disagreed on already-ordered items")
	}
}

func TestFacadeLogisticWorkerAndBracket(t *testing.T) {
	r := NewRand(8)
	set := UniformDataset(64, 0, 10, r.Child("data"))
	// A sharply discriminating logistic worker finds the max through the
	// bracket baseline most of the time.
	w := worker.NewLogistic(0.05, r.Child("w"))
	o := NewOracle(w, Naive, NewLedger(), nil)
	best, err := TournamentMax(context.Background(), set.Items(), o, BracketOptions{Repetitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if set.Rank(best.ID) > 10 {
		t.Fatalf("logistic bracket returned rank %d", set.Rank(best.ID))
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	r := NewRand(9)
	set := UniformDataset(10, 0, 1, r)
	var sb strings.Builder
	if err := dataset.WriteCSV(&sb, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() || back.Max().Value != set.Max().Value {
		t.Fatal("CSV round trip lost data")
	}
}
