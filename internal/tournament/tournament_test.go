package tournament

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/worker"
)

func items(values ...float64) []item.Item {
	out := make([]item.Item, len(values))
	for i, v := range values {
		out[i] = item.Item{ID: i, Value: v}
	}
	return out
}

func truthOracle(l *cost.Ledger, memo *Memo) *Oracle {
	return NewOracle(worker.Truth, worker.Naive, l, memo)
}

func TestRoundRobinGameCount(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 10, 17} {
		l := cost.NewLedger()
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		res := mustRR(t, items(vals...), truthOracle(l, nil))
		want := int64(n * (n - 1) / 2)
		if l.Naive() != want {
			t.Errorf("n=%d: %d comparisons, want %d", n, l.Naive(), want)
		}
		totalWins := 0
		for _, w := range res.Wins {
			totalWins += w
		}
		if totalWins != n*(n-1)/2 {
			t.Errorf("n=%d: total wins %d != games %d", n, totalWins, n*(n-1)/2)
		}
	}
}

func TestRoundRobinTruthRanking(t *testing.T) {
	its := items(3, 9, 1, 7)
	res := mustRR(t, its, truthOracle(cost.NewLedger(), nil))
	// With the truthful comparator, wins = n − rank.
	wantWins := []int{1, 3, 0, 2}
	for i, w := range res.Wins {
		if w != wantWins[i] {
			t.Errorf("Wins[%d] = %d, want %d", i, w, wantWins[i])
		}
	}
	if res.TopByWins().ID != 1 {
		t.Errorf("TopByWins = %d, want 1", res.TopByWins().ID)
	}
	if res.MinByWins().ID != 2 {
		t.Errorf("MinByWins = %d, want 2", res.MinByWins().ID)
	}
}

// TestRoundScratchReuseMatchesFresh plays groups of shrinking and growing
// size in one retained scratch: every Result must equal a fresh
// RoundRobin's, so no win count or winner carries over between groups.
func TestRoundScratchReuseMatchesFresh(t *testing.T) {
	r := rng.New(5)
	var s RoundScratch
	for _, n := range []int{32, 5, 20, 1, 32} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()
		}
		its := items(vals...)
		got, err := s.RoundRobin(context.Background(), its, truthOracle(nil, NewMemo(n)))
		if err != nil {
			t.Fatal(err)
		}
		want := mustRR(t, its, truthOracle(nil, nil))
		if !slices.Equal(got.Wins, want.Wins) {
			t.Fatalf("n=%d: reused scratch wins %v, fresh %v", n, got.Wins, want.Wins)
		}
		for i := range n {
			for j := range n {
				if i != j && got.Beat(i, j) != want.Beat(i, j) {
					t.Fatalf("n=%d: reused scratch Beat(%d, %d) = %v, fresh %v", n, i, j, got.Beat(i, j), want.Beat(i, j))
				}
			}
		}
	}
}

func TestRoundRobinLosersRecorded(t *testing.T) {
	its := items(1, 2, 3)
	res := mustRR(t, its, truthOracle(cost.NewLedger(), nil))
	// The higher value wins every game: Beat(i, j) iff i > j.
	for i := range its {
		for j := range its {
			if i != j && res.Beat(i, j) != (i > j) {
				t.Fatalf("Beat(%d, %d) = %v, want %v", i, j, res.Beat(i, j), i > j)
			}
		}
	}
}

func TestRoundRobinSingleLogicalStep(t *testing.T) {
	l := cost.NewLedger()
	mustRR(t, items(1, 2, 3, 4), truthOracle(l, nil))
	if l.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", l.Steps())
	}
	// Degenerate tournaments are free.
	l2 := cost.NewLedger()
	mustRR(t, items(1), truthOracle(l2, nil))
	if l2.Steps() != 0 {
		t.Fatalf("singleton tournament recorded %d steps", l2.Steps())
	}
}

func TestTopTiesBrokenByInputOrder(t *testing.T) {
	// Cycle via a rigged comparator: everyone ends with equal wins.
	cycle := worker.Func(func(a, b item.Item) item.Item {
		if (a.ID+1)%3 == b.ID {
			return b
		}
		return a
	})
	o := NewOracle(cycle, worker.Naive, cost.NewLedger(), nil)
	res := mustRR(t, items(1, 2, 3), o)
	if res.TopByWins().ID != 0 || res.MinByWins().ID != 0 {
		t.Fatalf("tie break not by input order: top=%d min=%d",
			res.TopByWins().ID, res.MinByWins().ID)
	}
}

func TestMemoAvoidsRepeatBilling(t *testing.T) {
	l := cost.NewLedger()
	memo := NewMemo(4)
	o := truthOracle(l, memo)
	its := items(1, 2, 3, 4)
	mustRR(t, its, o)
	paid := l.Naive()
	mustRR(t, its, o) // identical tournament: all answers memoized
	if l.Naive() != paid {
		t.Fatalf("second tournament billed %d extra comparisons", l.Naive()-paid)
	}
	if l.MemoHits(worker.Naive) != paid {
		t.Fatalf("memo hits = %d, want %d", l.MemoHits(worker.Naive), paid)
	}
}

func TestMemoConsistentAnswers(t *testing.T) {
	// A random tie-breaking worker gives inconsistent answers; the memo
	// must freeze the first one.
	r := rng.New(1)
	w := worker.NewThreshold(100, 0, r) // everything under threshold
	memo := NewMemo(2)
	o := NewOracle(w, worker.Naive, cost.NewLedger(), memo)
	a, b := item.Item{ID: 0, Value: 1}, item.Item{ID: 1, Value: 2}
	first := mustCompare(t, o, a, b)
	for i := 0; i < 50; i++ {
		if mustCompare(t, o, a, b).ID != first.ID {
			t.Fatal("memoized answer changed")
		}
		if mustCompare(t, o, b, a).ID != first.ID {
			t.Fatal("memoized answer depends on argument order")
		}
	}
	if memo.Len() != 1 {
		t.Fatalf("memo size = %d, want 1", memo.Len())
	}
}

func TestOracleWithoutLedger(t *testing.T) {
	o := NewOracle(worker.Truth, worker.Expert, nil, nil)
	a, b := item.Item{ID: 0, Value: 1}, item.Item{ID: 1, Value: 2}
	if mustCompare(t, o, a, b).ID != 1 {
		t.Fatal("nil-ledger oracle broken")
	}
	o.Step() // must not panic
	if o.Class() != worker.Expert {
		t.Fatal("class accessor wrong")
	}
}

func TestPivotPass(t *testing.T) {
	its := items(5, 1, 9, 3, 7)
	x := its[2] // value 9 beats everyone
	l := cost.NewLedger()
	surv := mustPivot(t, x, its, truthOracle(l, nil))
	if len(surv) != 1 || surv[0].ID != 2 {
		t.Fatalf("survivors = %v", surv)
	}
	if l.Naive() != 4 { // pivot not compared against itself
		t.Fatalf("comparisons = %d, want 4", l.Naive())
	}
	if l.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", l.Steps())
	}
}

func TestPivotPassKeepsWinners(t *testing.T) {
	its := items(5, 1, 9, 3, 7)
	x := its[0] // value 5: beats 1 and 3, loses to 9 and 7
	surv := mustPivot(t, x, its, truthOracle(cost.NewLedger(), nil))
	if len(surv) != 3 {
		t.Fatalf("survivors = %v", surv)
	}
	for _, s := range surv {
		if s.Value < 5 {
			t.Fatalf("element %v should have been eliminated", s)
		}
	}
}

func TestPivotPassPivotOutsideCandidates(t *testing.T) {
	// A pivot that is not among the candidates is compared against all of
	// them and is not itself added to the survivors.
	its := items(5, 1, 9, 3, 7)
	x := item.Item{ID: 5, Value: 6}
	l := cost.NewLedger()
	surv := mustPivot(t, x, its, truthOracle(l, NewMemo(6)))
	if len(surv) != 2 || surv[0].ID != 2 || surv[1].ID != 4 {
		t.Fatalf("survivors = %v, want items 2 and 4", surv)
	}
	if l.Naive() != 5 {
		t.Fatalf("comparisons = %d, want 5", l.Naive())
	}
}

func TestPivotPassEmpty(t *testing.T) {
	surv := mustPivot(t, item.Item{ID: 0}, nil, truthOracle(cost.NewLedger(), nil))
	if surv != nil {
		t.Fatal("empty pass should be a no-op")
	}
}

func TestLemma2Property(t *testing.T) {
	// Lemma 2: in an all-play-all tournament among |A| elements, at most
	// 2r − 1 elements win at least |A| − r comparisons — for ANY outcome
	// pattern, so we test with a maximally confusing random worker.
	r := rng.New(42)
	f := func(nRaw, rRaw uint8) bool {
		n := int(nRaw)%20 + 2
		rr := int(rRaw)%(n-1) + 1 // r < |A|
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()
		}
		w := worker.NewThreshold(2, 0, r) // all comparisons arbitrary
		o := NewOracle(w, worker.Naive, nil, nil)
		res := mustRR(t, items(vals...), o)
		count := 0
		for _, wins := range res.Wins {
			if wins >= n-rr {
				count++
			}
		}
		return count <= 2*rr-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWinsPlusLossesProperty(t *testing.T) {
	// Every game has exactly one winner: exactly one of Beat(i, j) and
	// Beat(j, i) holds, and Wins[i] counts the games i won.
	r := rng.New(7)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%15 + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()
		}
		w := worker.NewThreshold(0.5, 0.3, r)
		res := mustRR(t, items(vals...), NewOracle(w, worker.Naive, nil, nil))
		for i := range n {
			won := 0
			for j := range n {
				if i == j {
					continue
				}
				if res.Beat(i, j) == res.Beat(j, i) {
					return false
				}
				if res.Beat(i, j) {
					won++
				}
			}
			if won != res.Wins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoizedAccessor(t *testing.T) {
	plain := NewOracle(worker.Truth, worker.Naive, nil, nil)
	memoized := NewOracle(worker.Truth, worker.Naive, nil, NewMemo(0))
	if plain.Memoized() || !memoized.Memoized() {
		t.Fatal("Memoized accessor wrong")
	}
}

func TestOracleStepBillsLedger(t *testing.T) {
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, nil)
	o.Step()
	if l.Steps() != 1 {
		t.Fatalf("steps = %d", l.Steps())
	}
}

// mustRR and mustPivot run the tournament primitives under a
// background context and fail the test on error, keeping the happy-path
// assertions uncluttered.
func mustRR(t *testing.T, its []item.Item, o *Oracle) Result {
	t.Helper()
	res, err := RoundRobin(context.Background(), its, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustPivot(t *testing.T, x item.Item, its []item.Item, o *Oracle) []item.Item {
	t.Helper()
	surv, err := PivotPass(context.Background(), x, its, o)
	if err != nil {
		t.Fatal(err)
	}
	return surv
}

// mustCompare asks the oracle under a background context, failing the test
// on error.
func mustCompare(t *testing.T, o *Oracle, a, b item.Item) item.Item {
	t.Helper()
	w, err := o.Compare(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
