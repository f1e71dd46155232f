package degrade

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"crowdmax/internal/chaos"
	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// testMemoN sizes the tests' memos for testItems(40), whose IDs run 1..40.
const testMemoN = 41

func testItems(n int) []item.Item {
	items := make([]item.Item, n)
	for i := range items {
		items[i] = item.Item{ID: i + 1, Value: float64(i + 1)}
	}
	return items
}

// blurry is a deterministic threshold comparator that cannot tell items
// within distance 3 apart, so the filter keeps a multi-element candidate
// set and phase 2 has real work to do.
func blurry() worker.Comparator {
	return &worker.Threshold{Delta: 3, Tie: worker.HashTie{Seed: 11}}
}

// failAfter forwards to an inner backend until n requests have been served,
// then fails every request with err.
type failAfter struct {
	inner  dispatch.Backend
	n      int64
	served atomic.Int64
	err    error
}

func (f *failAfter) Answer(ctx context.Context, req dispatch.Request) (dispatch.Answer, error) {
	if f.served.Add(1) > f.n {
		return dispatch.Answer{}, f.err
	}
	return f.inner.Answer(ctx, req)
}

func runOracles(expertBackend dispatch.Backend) (naive, expert *tournament.Oracle, led *cost.Ledger) {
	led = cost.NewLedger()
	naive = tournament.NewOracle(worker.Truth, worker.Naive, led, tournament.NewMemo(testMemoN))
	expert = tournament.NewBackendOracle(expertBackend, worker.Expert, led, tournament.NewMemo(testMemoN))
	return naive, expert, led
}

func TestRunCleanPathStaysOnTopRung(t *testing.T) {
	naive, expert, _ := runOracles(dispatch.NewSimulated(worker.Truth))
	ctl := NewController(0)
	out, err := Run(context.Background(), testItems(40), naive, expert, ctl, Options{Un: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungExpert2MaxFind || out.Rung.Guarantee() != Guarantee2DeltaE {
		t.Fatalf("clean run landed on %q (%q), want expert-2maxfind (2δe)",
			out.Rung, out.Rung.Guarantee())
	}
	if out.Best.ID != 40 {
		t.Fatalf("clean run returned item %d, want the maximum 40", out.Best.ID)
	}
	if !out.Phase1Complete || len(out.Candidates) == 0 {
		t.Fatalf("clean run: phase1Complete=%v candidates=%d", out.Phase1Complete, len(out.Candidates))
	}
	if len(out.Decisions) != 1 || out.Decisions[0].To != "expert-2maxfind" {
		t.Fatalf("clean run decisions %+v, want a single expert-2maxfind pick", out.Decisions)
	}
}

func TestRunExpertOutageDegradesToNaiveMajority(t *testing.T) {
	// The expert backend dies (recoverably) after its first answer:
	// mid-phase-2, exactly the acceptance scenario. The run must complete
	// with a δn answer, not an error. The naive workers are blurry (δ = 3)
	// so the filter keeps a real candidate set and phase 2 has work to lose.
	dead := &failAfter{inner: dispatch.NewSimulated(worker.Truth), n: 1, err: dispatch.ErrBackendUnavailable}
	led := cost.NewLedger()
	naive := tournament.NewOracle(blurry(), worker.Naive, led, tournament.NewMemo(testMemoN))
	expert := tournament.NewBackendOracle(dead, worker.Expert, led, tournament.NewMemo(testMemoN))
	ctl := NewController(0)
	var phases []string
	out, err := Run(context.Background(), testItems(40), naive, expert, ctl, Options{
		Un:      3,
		OnPhase: func(p string, _ []item.Item) { phases = append(phases, p) },
	})
	if err != nil {
		t.Fatalf("expert outage was not absorbed: %v", err)
	}
	if out.Rung != RungNaiveMajority || out.Rung.Guarantee() != GuaranteeDeltaN {
		t.Fatalf("outage run landed on %q (%q), want naive-majority (δn)",
			out.Rung, out.Rung.Guarantee())
	}
	if !containsItem(out.Candidates, out.Best) {
		t.Fatalf("outage run returned %+v, not a member of the candidate set %v", out.Best, out.Candidates)
	}
	if len(phases) != 2 || phases[0] != "phase1" || phases[1] != "done" {
		t.Fatalf("OnPhase saw %v, want [phase1 done]", phases)
	}
	// The walk must record the downgrade: 2maxfind tried and failed, then
	// randomized and shrunk blocked by the dead expert class attempts...
	last := out.Decisions[len(out.Decisions)-1]
	if last.To != "naive-majority" || last.Direction() >= 0 {
		t.Fatalf("last decision %+v is not a downgrade to naive-majority", last)
	}
	if out.LogHash != ctl.LogHash() {
		t.Fatal("Outcome.LogHash does not match the controller's")
	}
}

func TestRunBudgetExhaustionDegrades(t *testing.T) {
	led := cost.NewLedger()
	naive := tournament.NewOracle(blurry(), worker.Naive, led, tournament.NewMemo(testMemoN))
	expert := tournament.NewBackendOracle(dispatch.NewSimulated(worker.Truth), worker.Expert, led, tournament.NewMemo(testMemoN))
	budget := dispatch.NewBudget(dispatch.Limits{MaxExpert: 4})
	expert.WithBudget(budget)
	ctl := NewController(0)
	out, err := Run(context.Background(), testItems(40), naive, expert, ctl, Options{
		Un: 3,
		Signals: func() Signals {
			s := Unconstrained()
			s.ExpertRemaining = budget.RemainingFor(worker.Expert)
			s.NaiveRemaining = budget.RemainingFor(worker.Naive)
			return s
		},
	})
	if err != nil {
		t.Fatalf("budget exhaustion was not absorbed: %v", err)
	}
	// 4 expert comparisons cannot pay any expert rung — even the shrunk
	// rung's 2-element duel estimates 6 — so the controller goes straight
	// to the naive majority without burning an attempt.
	if out.Rung != RungNaiveMajority {
		t.Fatalf("starved run landed on %q, want naive-majority", out.Rung)
	}
	if !containsItem(out.Candidates, out.Best) {
		t.Fatalf("starved run returned %+v, not a member of the candidate set %v", out.Best, out.Candidates)
	}
}

// failWhile fails every request with err while on reports true and forwards
// to inner otherwise.
type failWhile struct {
	inner dispatch.Backend
	on    func() bool
	err   error
}

func (f *failWhile) Answer(ctx context.Context, req dispatch.Request) (dispatch.Answer, error) {
	if f.on() {
		return dispatch.Answer{}, f.err
	}
	return f.inner.Answer(ctx, req)
}

// TestRunRandomizedRungKeepsLemma4 drives the expert-randomized rung end to
// end on calibrated instances: the expert backend fails transiently while
// the controller sits on expert-2maxfind, so both of that rung's attempts
// fail and the ladder drops to Algorithm 5. Its answer must be within 3δe of
// the maximum (Lemma 4), the bound its 3δe-whp label claims.
func TestRunRandomizedRungKeepsLemma4(t *testing.T) {
	root := rng.New(2)
	for trial := 0; trial < 8; trial++ {
		r := root.ChildN("t", trial)
		cal, err := dataset.UniformCalibrated(600, 8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		n := cal.Set.Len()
		rung := ""
		nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("n")}, R: r.Child("n")}
		ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r.Child("e")}, R: r.Child("e")}
		flaky := &failWhile{
			inner: dispatch.NewSimulated(ew),
			on:    func() bool { return rung == RungExpert2MaxFind.String() },
			err:   dispatch.ErrBackendUnavailable,
		}
		naive := tournament.NewOracle(nw, worker.Naive, nil, tournament.NewMemo(n))
		expert := tournament.NewBackendOracle(flaky, worker.Expert, nil, tournament.NewMemo(n))
		out, err := Run(context.Background(), cal.Set.Items(), naive, expert, NewController(0), Options{
			Un:         8,
			Randomized: core.RandomizedOptions{R: r.Child("rand")},
			OnDecision: func(d Decision) { rung = d.To },
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tries := 0
		for _, d := range out.Decisions {
			if d.To == RungExpert2MaxFind.String() {
				tries++
			}
		}
		if out.Rung != RungExpertRandomized || out.Rung.Guarantee() != Guarantee3DeltaEWHP || tries != 2 {
			t.Fatalf("trial %d: landed on %q (%q) after %d expert-2maxfind attempts, want expert-randomized (3δe-whp) after 2",
				trial, out.Rung, out.Rung.Guarantee(), tries)
		}
		if d := item.Distance(cal.Set.Max(), out.Best); d > 3*cal.DeltaE {
			t.Fatalf("trial %d: d(M, e) = %g > 3δe = %g", trial, d, 3*cal.DeltaE)
		}
	}
}

func containsItem(items []item.Item, x item.Item) bool {
	for _, it := range items {
		if it == x {
			return true
		}
	}
	return false
}

func TestRunCrashStaysFatal(t *testing.T) {
	// An injected crash models process death: the degrade layer must NOT
	// absorb it — recovery happens through checkpoint resume.
	crash := chaos.NewCrash(5)
	naive, expert, _ := runOracles(dispatch.NewSimulated(worker.Truth))
	naiveCrash := tournament.NewBackendOracle(
		crash.Wrap(dispatch.NewSimulated(worker.Truth)), worker.Naive, cost.NewLedger(), tournament.NewMemo(testMemoN))
	_ = naive
	ctl := NewController(0)
	out, err := Run(context.Background(), testItems(40), naiveCrash, expert, ctl, Options{Un: 3})
	if err == nil || !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("crash during phase 1: err = %v, want ErrCrash", err)
	}
	if out.Rung != RungBestSoFar {
		t.Fatalf("crash during phase 1 reported rung %q, want best-so-far", out.Rung)
	}

	// A crash mid-phase-2 halts the rung that was running; the outcome must
	// not name that rung, as no rung completed.
	naive = tournament.NewOracle(blurry(), worker.Naive, cost.NewLedger(), tournament.NewMemo(testMemoN))
	expertCrash := tournament.NewBackendOracle(
		chaos.NewCrash(0).Wrap(dispatch.NewSimulated(worker.Truth)), worker.Expert, cost.NewLedger(), tournament.NewMemo(testMemoN))
	out, err = Run(context.Background(), testItems(40), naive, expertCrash, NewController(0), Options{Un: 3})
	if !errors.Is(err, chaos.ErrCrash) || !strings.HasPrefix(err.Error(), "rung expert-2maxfind: ") {
		t.Fatalf("crash during phase 2: err = %v, want ErrCrash from expert-2maxfind", err)
	}
	if out.Rung != RungBestSoFar || !out.Phase1Complete {
		t.Fatalf("crash during phase 2 reported rung %q (phase 1 complete %v), want best-so-far after phase 1",
			out.Rung, out.Phase1Complete)
	}
}

func TestRunPhase1FailureFallsToBestSoFar(t *testing.T) {
	// A naive backend that dies recoverably during the filter leaves no
	// candidate set; the only honest outcome is best-so-far with no error.
	dead := &failAfter{inner: dispatch.NewSimulated(worker.Truth), n: 3, err: dispatch.ErrBackendUnavailable}
	led := cost.NewLedger()
	naive := tournament.NewBackendOracle(dead, worker.Naive, led, tournament.NewMemo(testMemoN))
	expert := tournament.NewOracle(worker.Truth, worker.Expert, led, tournament.NewMemo(testMemoN))
	ctl := NewController(0)
	out, err := Run(context.Background(), testItems(40), naive, expert, ctl, Options{Un: 3})
	if err != nil {
		t.Fatalf("recoverable phase-1 failure surfaced an error: %v", err)
	}
	if out.Rung != RungBestSoFar || out.Rung.Guarantee() != GuaranteeNone {
		t.Fatalf("phase-1 failure landed on %q (%q), want best-so-far (no guarantee)",
			out.Rung, out.Rung.Guarantee())
	}
	if out.Phase1Complete {
		t.Fatal("Phase1Complete true after a failed filter")
	}
	reason := out.Decisions[len(out.Decisions)-1].Reason
	if reason == "" {
		t.Fatal("best-so-far decision carries no skip reasons")
	}
}

func TestRunCancellationStaysFatal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	naive, expert, _ := runOracles(dispatch.NewSimulated(worker.Truth))
	ctl := NewController(0)
	out, err := Run(ctx, testItems(40), naive, expert, ctl, Options{Un: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if out.Rung != RungBestSoFar {
		t.Fatalf("cancelled run reported rung %q, want best-so-far", out.Rung)
	}
}
