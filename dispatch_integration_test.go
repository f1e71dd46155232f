package crowdmax

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
)

// blockingBackend parks every comparison on ctx.Done(), modelling a crowd
// platform that never answers. entered is closed when the first comparison
// arrives, so tests can cancel exactly while a request is in flight.
type blockingBackend struct {
	entered chan struct{}
	once    sync.Once
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{entered: make(chan struct{})}
}

func (b *blockingBackend) Answer(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
	b.once.Do(func() { close(b.entered) })
	<-ctx.Done()
	return BackendAnswer{}, ctx.Err()
}

// sessionWithBackends mirrors testSession but routes the chosen phases
// through dispatch backends.
func sessionWithBackends(t *testing.T, cal dataset.Calibrated, un int, seed uint64, naiveB, expertB Backend) *Session {
	t.Helper()
	r := NewRand(seed)
	s, err := NewSession(Config{
		Naive:         NewThresholdWorker(cal.DeltaN, 0, r.Child("naive")),
		Expert:        NewThresholdWorker(cal.DeltaE, 0, r.Child("expert")),
		Un:            un,
		Prices:        Prices{Naive: 1, Expert: 50},
		NaiveBackend:  naiveB,
		ExpertBackend: expertB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFindMaxContextCancelMidFilter(t *testing.T) {
	r := NewRand(11)
	cal, err := dataset.UniformCalibrated(300, 6, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 blocks forever: the very first naïve comparison parks on the
	// context, so cancellation must unwind the run from inside the filter.
	bb := newBlockingBackend()
	s := sessionWithBackends(t, cal, 6, 500, bb, nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-bb.entered
		cancel()
	}()
	start := time.Now()
	res, err := s.Run(ctx, MaxFind(), cal.Set.Items())
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Partial result is well-formed: no comparison completed, so nothing
	// was paid, and with zero completed filter iterations nobody has been
	// eliminated — the survivor set is still the whole input.
	if res.NaiveComparisons != 0 || res.ExpertComparisons != 0 || res.Cost != 0 {
		t.Fatalf("blocked run paid: %+v", res)
	}
	if len(res.Candidates) != cal.Set.Len() {
		t.Fatalf("partial candidates = %d, want the untouched input (%d)",
			len(res.Candidates), cal.Set.Len())
	}
}

func TestFindMaxContextCancelMidPhase2(t *testing.T) {
	r := NewRand(12)
	cal, err := dataset.UniformCalibrated(300, 6, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 runs in-process; phase 2 blocks, so the cancellation lands
	// after the filter has produced its candidate set.
	bb := newBlockingBackend()
	s := sessionWithBackends(t, cal, 6, 501, nil, bb)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-bb.entered
		cancel()
	}()
	start := time.Now()
	res, err := s.Run(ctx, MaxFind(), cal.Set.Items())
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Phase 1 completed: the candidate set is the real filter output and
	// its comparisons are billed; phase 2 paid nothing.
	if len(res.Candidates) == 0 {
		t.Fatal("phase-1 candidates missing from partial result")
	}
	if max := 2*6 - 1; len(res.Candidates) > max {
		t.Fatalf("|S| = %d > %d", len(res.Candidates), max)
	}
	if res.NaiveComparisons == 0 {
		t.Fatal("phase-1 comparisons missing from partial result")
	}
	if res.ExpertComparisons != 0 {
		t.Fatalf("blocked phase 2 billed %d expert comparisons", res.ExpertComparisons)
	}
	// The best-so-far leader is one of the candidates.
	found := false
	for _, c := range res.Candidates {
		if c.ID == res.Best.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial Best (id %d) is not a candidate", res.Best.ID)
	}
}

func TestSessionReentrancyGuard(t *testing.T) {
	r := NewRand(13)
	cal, err := dataset.UniformCalibrated(200, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	bb := newBlockingBackend()
	s := sessionWithBackends(t, cal, 5, 502, bb, nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, MaxFind(), cal.Set.Items())
		done <- err
	}()
	<-bb.entered
	// The first run is parked inside the filter: every concurrent entry
	// must be refused rather than race on the session's comparators.
	if _, err := s.FindMax(cal.Set.Items()); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent FindMax: err = %v, want ErrSessionBusy", err)
	}
	if _, err := s.Run(context.Background(), TopKWorkload(2), cal.Set.Items()); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent Run: err = %v, want ErrSessionBusy", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked run: err = %v, want context.Canceled", err)
	}
	// The slot is released: a new run is admitted again (it fails on its
	// already-cancelled context, not on the guard).
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := s.Run(dead, MaxFind(), cal.Set.Items()); !errors.Is(err, context.Canceled) {
		t.Fatalf("slot not released after cancelled run: err = %v", err)
	}
}

// budgetSession builds a fresh session with identical worker streams for
// every call, so runs are bit-for-bit reproducible and budget truncation is
// deterministic.
func budgetSession(t *testing.T, cal dataset.Calibrated, lim BudgetLimits) *Session {
	t.Helper()
	r := NewRand(700)
	s, err := NewSession(Config{
		Naive:  NewThresholdWorker(cal.DeltaN, 0, r.Child("naive")),
		Expert: NewThresholdWorker(cal.DeltaE, 0, r.Child("expert")),
		Un:     5,
		Budget: lim,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBudgetExactCapSucceedsSmallerTruncates(t *testing.T) {
	r := NewRand(14)
	cal, err := dataset.UniformCalibrated(120, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()

	// Reference run: unconstrained, records the exact paid total.
	ref, err := budgetSession(t, cal, BudgetLimits{}).FindMax(items)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.NaiveComparisons + ref.ExpertComparisons
	if total == 0 {
		t.Fatal("reference run paid nothing")
	}

	// A budget of exactly the unconstrained total must succeed and return
	// the identical answer (same worker streams, never refused).
	res, err := budgetSession(t, cal, BudgetLimits{MaxTotal: total}).FindMax(items)
	if err != nil {
		t.Fatalf("exact budget %d failed: %v", total, err)
	}
	if res.Best.ID != ref.Best.ID {
		t.Fatalf("exact budget changed the answer: %d vs %d", res.Best.ID, ref.Best.ID)
	}
	if got := res.NaiveComparisons + res.ExpertComparisons; got != total {
		t.Fatalf("exact budget paid %d, want %d", got, total)
	}

	// Every smaller cap is exhausted, and the cap is never exceeded by
	// even one comparison.
	for cap := total - 1; cap >= 1; cap -= 7 {
		res, err := budgetSession(t, cal, BudgetLimits{MaxTotal: cap}).FindMax(items)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("cap %d: err = %v, want ErrBudgetExhausted", cap, err)
		}
		if spent := res.NaiveComparisons + res.ExpertComparisons; spent > cap {
			t.Fatalf("cap %d exceeded: spent %d", cap, spent)
		}
	}
}

func TestFlakyRetryBackendEndToEnd(t *testing.T) {
	r := NewRand(15)
	cal, err := dataset.UniformCalibrated(200, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// A flaky simulated crowd healed by the retry decorator: the run must
	// complete and return a phase-2-quality answer.
	wr := NewRand(900)
	naive := NewThresholdWorker(cal.DeltaN, 0, wr.Child("naive"))
	expert := NewThresholdWorker(cal.DeltaE, 0, wr.Child("expert"))
	flaky := func(cmp Comparator, seed uint64) Backend {
		return NewRetryBackend(
			NewFlakyBackend(NewSimulatedBackend(cmp), FlakyConfig{FailureRate: 0.2, Seed: seed}),
			RetryConfig{MaxAttempts: 10, BaseBackoff: time.Microsecond},
		)
	}
	s, err := NewSession(Config{
		Naive:         naive,
		Expert:        expert,
		Un:            5,
		NaiveBackend:  flaky(naive, 1),
		ExpertBackend: flaky(expert, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.FindMax(cal.Set.Items())
	if err != nil {
		t.Fatal(err)
	}
	if d := item.Distance(cal.Set.Max(), res.Best); d > 2*cal.DeltaE {
		t.Fatalf("d(M, e) = %g > 2δe", d)
	}
	if res.NaiveComparisons == 0 || res.ExpertComparisons == 0 {
		t.Fatal("backend run billed nothing")
	}
}

// slowFirstBackend answers every request correctly but stalls the first call
// long enough for a hedge decorator to launch its duplicate; calls counts how
// many requests actually reached the backend.
type slowFirstBackend struct {
	calls atomic.Int64
	stall time.Duration
}

func (b *slowFirstBackend) Answer(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
	if b.calls.Add(1) == 1 {
		select {
		case <-time.After(b.stall):
		case <-ctx.Done():
			return BackendAnswer{}, ctx.Err()
		}
	}
	w := req.A
	if req.B.Value > req.A.Value {
		w = req.B
	}
	return BackendAnswer{Winner: w}, nil
}

func TestHedgeDuplicateChargesBudgetOnce(t *testing.T) {
	// Regression: a hedge-duplicated request must not double-bill. The
	// budget is pre-charged at the oracle layer — above the hedge — so the
	// duplicate the decorator launches below is platform spend at most, not
	// a second ledger comparison and not a second budget charge.
	slow := &slowFirstBackend{stall: 200 * time.Millisecond}
	ledger := NewLedger()
	budget := NewBudget(BudgetLimits{MaxExpert: 1})
	oracle := NewOracle(&ThresholdWorker{Tie: HashTie{Seed: 3}}, Expert, ledger, nil).
		WithBackend(dispatch.NewHedge(slow, 5*time.Millisecond)).
		WithBudget(budget)

	a, b := Item{ID: 1, Value: 1}, Item{ID: 2, Value: 2}
	winner, err := oracle.Compare(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if winner.ID != 2 {
		t.Fatalf("winner = %d, want 2", winner.ID)
	}
	if got := slow.calls.Load(); got != 2 {
		t.Fatalf("backend saw %d calls, want 2 (original + hedge duplicate)", got)
	}
	if got := budget.Spent(Expert); got != 1 {
		t.Fatalf("budget charged %d expert comparisons for one hedged request, want 1", got)
	}
	if got := ledger.Expert(); got != 1 {
		t.Fatalf("ledger recorded %d paid expert comparisons, want 1", got)
	}
	// The budget cap of 1 is now exactly spent: a second comparison must be
	// refused — proof the duplicate did not consume cap headroom either.
	if _, err := oracle.Compare(context.Background(), a, Item{ID: 3, Value: 3}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second comparison: err = %v, want ErrBudgetExhausted", err)
	}
}
