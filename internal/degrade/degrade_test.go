package degrade

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"crowdmax/internal/chaos"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// healthy is a Signals sample under which every default rung is eligible.
func healthy() Signals {
	sig := Unconstrained()
	sig.Phase1Done = true
	sig.Candidates = 9
	return sig
}

func TestLadderValidate(t *testing.T) {
	cases := []struct {
		name   string
		ladder Ladder
		bad    string
	}{
		{name: "default", ladder: DefaultLadder()},
		{name: "empty", ladder: Ladder{}, bad: "empty"},
		{name: "unnamed", ladder: Ladder{{Kind: RungBestSoFar}}, bad: "no name"},
		{name: "duplicate", ladder: Ladder{
			{Name: "x", Kind: RungNaiveMajority, Guarantee: GuaranteeDeltaN},
			{Name: "x", Kind: RungBestSoFar},
		}, bad: "duplicate"},
		{name: "no terminal", ladder: Ladder{
			{Name: "x", Kind: RungNaiveMajority, Guarantee: GuaranteeDeltaN},
		}, bad: "best-so-far"},
		{name: "overclaimed label", ladder: Ladder{
			{Name: "x", Kind: RungNaiveMajority, Guarantee: Guarantee2DeltaE},
			{Name: "end", Kind: RungBestSoFar},
		}, bad: "stronger"},
	}
	for _, tc := range cases {
		err := tc.ladder.Validate()
		if tc.bad == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.bad)
		}
	}
}

func TestGuaranteeStrengthOrdersTheLadder(t *testing.T) {
	l := DefaultLadder()
	for i := 1; i < len(l); i++ {
		if l[i-1].Guarantee.Strength() <= l[i].Guarantee.Strength() {
			t.Fatalf("rung %q (%q) is not stronger than %q (%q)",
				l[i-1].Name, l[i-1].Guarantee, l[i].Name, l[i].Guarantee)
		}
	}
}

// TestRungPreconditions drives every rung's precondition through Decide: a
// signal that violates exactly one precondition must skip the rung (and any
// stronger rung the same signal blocks), landing on the strongest still-
// eligible one.
func TestRungPreconditions(t *testing.T) {
	cases := []struct {
		name string
		sig  func() Signals
		want string // rung Decide must land on
	}{
		{name: "all clear", sig: healthy, want: "expert-2maxfind"},
		{name: "phase 1 incomplete", sig: func() Signals {
			s := healthy()
			s.Phase1Done = false
			return s
		}, want: "best-so-far"},
		{name: "empty candidate set", sig: func() Signals {
			s := healthy()
			s.Candidates = 0
			return s
		}, want: "best-so-far"},
		{name: "no active experts", sig: func() Signals {
			s := healthy()
			s.ActiveExperts = 0
			return s
		}, want: "naive-majority"},
		{name: "unknown pool size passes MinExperts", sig: func() Signals {
			s := healthy()
			s.ActiveExperts = -1
			return s
		}, want: "expert-2maxfind"},
		{name: "expert budget below full-set rungs falls to shrunk", sig: func() Signals {
			s := healthy()
			// 2-MaxFind over 9 needs 54; randomized needs 160·9 = 1440;
			// the shrunk rung's floor is a 2-element tournament (6).
			s.ExpertRemaining = 40
			return s
		}, want: "expert-shrunk"},
		{name: "expert budget fits only a shrunk subset", sig: func() Signals {
			s := healthy()
			s.ExpertRemaining = 10
			return s
		}, want: "expert-shrunk"},
		{name: "expert budget below even a 2-element tournament", sig: func() Signals {
			s := healthy()
			s.ExpertRemaining = 3
			return s
		}, want: "naive-majority"},
		{name: "expert and naive budgets exhausted", sig: func() Signals {
			s := healthy()
			s.ExpertRemaining = 0
			s.NaiveRemaining = 0
			return s
		}, want: "best-so-far"},
		{name: "deadline passed", sig: func() Signals {
			s := healthy()
			s.HasDeadline = true
			s.DeadlineLeft = 0
			return s
		}, want: "best-so-far"},
		{name: "deadline without latency model passes", sig: func() Signals {
			s := healthy()
			s.HasDeadline = true
			s.DeadlineLeft = time.Nanosecond
			return s
		}, want: "expert-2maxfind"},
	}
	for _, tc := range cases {
		ctl := mustController(t, Config{})
		got := ctl.Decide("start", tc.sig())
		if got.Name != tc.want {
			t.Errorf("%s: Decide landed on %q, want %q (reason log: %s)",
				tc.name, got.Name, tc.want, ctl.LastDecision().Reason)
		}
	}
}

// TestMinTrustGatesExpertRungs checks the MinTrust precondition: a rung
// demanding agreement-graph confidence is skipped while the extraction is
// collapsed, but the gate only engages when a graph scorer actually exposes
// the signal (TrustConfidence ≥ 0).
func TestMinTrustGatesExpertRungs(t *testing.T) {
	ladder := DefaultLadder()
	for i := range ladder {
		if ladder[i].expert() {
			ladder[i].MinTrust = 0.5
		}
	}
	cases := []struct {
		name string
		conf float64
		want string
	}{
		{name: "no graph scorer: gate disarmed", conf: -1, want: "expert-2maxfind"},
		{name: "collapsed trust blocks every expert rung", conf: 0.2, want: "naive-majority"},
		{name: "boundary confidence passes", conf: 0.5, want: "expert-2maxfind"},
		{name: "confident extraction passes", conf: 0.9, want: "expert-2maxfind"},
	}
	for _, tc := range cases {
		ctl := mustController(t, Config{Ladder: ladder})
		sig := healthy()
		sig.TrustConfidence = tc.conf
		got := ctl.Decide("start", sig)
		if got.Name != tc.want {
			t.Errorf("%s: Decide landed on %q, want %q (reason: %s)",
				tc.name, got.Name, tc.want, ctl.LastDecision().Reason)
		}
	}
}

// TestDeadlineVsCostEstimate checks the CmpLatency precondition: a rung
// whose estimated comparisons cannot finish before the deadline is skipped
// in favor of a cheaper one.
func TestDeadlineVsCostEstimate(t *testing.T) {
	ctl := mustController(t, Config{CmpLatency: time.Millisecond})
	sig := healthy()
	sig.HasDeadline = true
	// 2-MaxFind over 9 candidates estimates 55 comparisons = 55ms; the
	// randomized rung estimates 1440; the shrunk rung's 2-element floor
	// estimates 6.
	sig.DeadlineLeft = 40 * time.Millisecond
	if got := ctl.Decide("start", sig); got.Name != "expert-shrunk" {
		t.Fatalf("40ms deadline: Decide landed on %q, want expert-shrunk (%s)",
			got.Name, ctl.LastDecision().Reason)
	}
	// A deadline below every rung's estimate leaves only the terminal rung.
	sig.DeadlineLeft = 3 * time.Millisecond
	if got := ctl.Decide("error", sig); got.Kind != RungBestSoFar {
		t.Fatalf("3ms deadline: Decide landed on %q, want best-so-far (%s)",
			got.Name, ctl.LastDecision().Reason)
	}
}

// TestDowngradeTriggers reports each mid-phase trigger to the controller
// and checks the next decision lands on the expected weaker rung.
func TestDowngradeTriggers(t *testing.T) {
	errBudget := fmt.Errorf("spend: %w", dispatch.ErrBudgetExhausted)
	errUnavailable := fmt.Errorf("expert pool: %w", dispatch.ErrBackendUnavailable)
	errPermanent := fmt.Errorf("expert gone: %w", dispatch.ErrPermanent)

	cases := []struct {
		name string
		err  error
		sig  func() Signals // post-failure signal sample
		want string
	}{
		{
			// Budget exhaustion mid-rung: the budget signal now reads 0,
			// so every expert rung is blocked on its cost estimate.
			name: "ErrBudgetExhausted",
			err:  errBudget,
			sig: func() Signals {
				s := healthy()
				s.ExpertRemaining = 0
				return s
			},
			want: "naive-majority",
		},
		{
			// A transient outage burns attempts: after MaxAttempts (2)
			// failures of the top rung, the walk moves past it. The first
			// failure retries the same rung — checked separately below.
			name: "ErrBackendUnavailable",
			err:  errUnavailable,
			sig:  healthy,
			want: "expert-2maxfind",
		},
		{
			// A permanent expert error kills every expert rung at once.
			name: "ErrPermanent",
			err:  errPermanent,
			sig:  healthy,
			want: "naive-majority",
		},
		{
			// Quarantine below MinActive: the pool signal drops under the
			// rung's MinExperts.
			name: "quarantine below MinActive",
			err:  errUnavailable,
			sig: func() Signals {
				s := healthy()
				s.ActiveExperts = 0
				return s
			},
			want: "naive-majority",
		},
		{
			// Deadline shrank below the full-set rungs' cost estimates
			// mid-run; only the cheap shrunk rung still fits.
			name: "deadline below cost estimate",
			err:  errUnavailable,
			sig: func() Signals {
				s := healthy()
				s.HasDeadline = true
				s.DeadlineLeft = 40 * time.Millisecond
				return s
			},
			want: "expert-shrunk",
		},
	}
	for _, tc := range cases {
		ctl := mustController(t, Config{CmpLatency: time.Millisecond})
		first := ctl.Decide("start", healthy())
		if first.Name != "expert-2maxfind" {
			t.Fatalf("%s: first decision %q, want expert-2maxfind", tc.name, first.Name)
		}
		if fatal := ctl.Report(first, tc.err); fatal {
			t.Fatalf("%s: Report classified %v as fatal", tc.name, tc.err)
		}
		got := ctl.Decide("error", tc.sig())
		if got.Name != tc.want {
			t.Errorf("%s: post-failure decision %q, want %q (%s)",
				tc.name, got.Name, tc.want, ctl.LastDecision().Reason)
		}
	}
}

// TestMaxAttemptsExhaustsARung checks the attempt counter: a rung that
// keeps failing transiently is abandoned after MaxAttempts tries.
func TestMaxAttemptsExhaustsARung(t *testing.T) {
	ctl := mustController(t, Config{MaxAttempts: 2})
	for i := 0; i < 2; i++ {
		r := ctl.Decide("error", healthy())
		if r.Name != "expert-2maxfind" {
			t.Fatalf("attempt %d landed on %q, want expert-2maxfind", i, r.Name)
		}
		ctl.Report(r, dispatch.ErrBackendUnavailable)
	}
	r := ctl.Decide("error", healthy())
	if r.Name != "expert-randomized" {
		t.Fatalf("post-exhaustion decision %q, want expert-randomized (%s)",
			r.Name, ctl.LastDecision().Reason)
	}
	if dir := ctl.LastDecision().Direction(); dir >= 0 {
		t.Fatalf("downgrade decision direction %d, want negative", dir)
	}
}

// TestUpwardRecovery is the satellite's recovery case: a rung blocked by a
// quarantined pool becomes eligible again when the pool heals, and the
// controller climbs back up.
func TestUpwardRecovery(t *testing.T) {
	ctl := mustController(t, Config{})
	sick := healthy()
	sick.ActiveExperts = 0
	if r := ctl.Decide("start", sick); r.Name != "naive-majority" {
		t.Fatalf("sick pool decision %q, want naive-majority", r.Name)
	}
	healed := healthy()
	healed.ActiveExperts = 3
	r := ctl.Decide("error", healed)
	if r.Name != "expert-2maxfind" {
		t.Fatalf("healed pool decision %q, want expert-2maxfind (%s)",
			r.Name, ctl.LastDecision().Reason)
	}
	if dir := ctl.LastDecision().Direction(); dir <= 0 {
		t.Fatalf("recovery decision direction %d, want positive", dir)
	}
}

func TestFatalErrorsHaltTheLadder(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("run: %w", chaos.ErrCrash),
		context.Canceled,
		context.DeadlineExceeded,
	} {
		ctl := mustController(t, Config{})
		r := ctl.Decide("start", healthy())
		if fatal := ctl.Report(r, err); !fatal {
			t.Errorf("Report(%v) not fatal", err)
		}
		if next := ctl.Decide("error", healthy()); next.Kind != RungBestSoFar {
			t.Errorf("post-fatal decision %q, want the terminal rung", next.Name)
		}
	}
	// An injected crash wraps ErrPermanent; it must be classified as a
	// crash (fatal), not as a dead backend (degradable).
	ctl := mustController(t, Config{})
	r := ctl.Decide("start", healthy())
	if !ctl.Report(r, chaos.ErrCrash) {
		t.Fatal("ErrCrash (which wraps ErrPermanent) was not classified fatal")
	}
}

func TestDecisionLogAndHash(t *testing.T) {
	walk := func() *Controller {
		ctl := mustController(t, Config{})
		r := ctl.Decide("start", healthy())
		ctl.Report(r, dispatch.ErrBudgetExhausted)
		sig := healthy()
		sig.ExpertRemaining = 0
		ctl.Decide("error", sig)
		return ctl
	}
	a, b := walk(), walk()
	if a.LogHash() != b.LogHash() {
		t.Fatal("identical walks produced different log hashes")
	}
	other := mustController(t, Config{})
	other.Decide("start", healthy())
	if a.LogHash() == other.LogHash() {
		t.Fatal("different walks produced the same log hash")
	}
	rung, hash := a.Snapshot()
	if rung != "naive-majority" || hash != a.LogHash() {
		t.Fatalf("Snapshot() = (%q, %#x), want (naive-majority, %#x)", rung, hash, a.LogHash())
	}
	log := a.Decisions()
	if len(log) != 2 || log[0].To != "expert-2maxfind" || log[1].To != "naive-majority" {
		t.Fatalf("decision log %+v does not record the walk", log)
	}
	if !strings.Contains(log[1].Reason, "budget") {
		t.Fatalf("downgrade reason %q does not name the budget", log[1].Reason)
	}
}

func TestShrinkIsDeterministicAndBudgetSized(t *testing.T) {
	cands := make([]item.Item, 20)
	for i := range cands {
		cands[i] = item.Item{ID: i + 1, Value: float64(i)}
	}
	ctl := mustController(t, Config{Seed: 42})

	// Unconstrained: the full set comes back untouched.
	if got := ctl.Shrink(cands, -1); len(got) != len(cands) {
		t.Fatalf("unconstrained Shrink returned %d of %d", len(got), len(cands))
	}

	// Budget 40 admits k with 2k^1.5 ≤ 40, i.e. k = 7.
	got := ctl.Shrink(cands, 40)
	if len(got) != 7 {
		t.Fatalf("Shrink(40) returned %d candidates, want 7", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatal("Shrink did not preserve candidate order")
		}
	}

	// Repeated calls (replay) pick the same subset.
	again := ctl.Shrink(cands, 40)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("Shrink is not deterministic across calls")
		}
	}

	// Even a starved budget keeps 2 elements — the smallest real tournament.
	if got := ctl.Shrink(cands, 0); len(got) != 2 {
		t.Fatalf("Shrink(0) returned %d candidates, want the 2-element floor", len(got))
	}
}
