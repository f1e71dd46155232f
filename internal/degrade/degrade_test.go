package degrade

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"crowdmax/internal/chaos"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
)

// healthy is a Signals sample under which every default rung is eligible.
func healthy() Signals {
	sig := Unconstrained()
	sig.Phase1Done = true
	sig.Candidates = 9
	return sig
}

func TestGuaranteeStrengthOrdersTheLadder(t *testing.T) {
	for r := RungExpertRandomized; r <= RungBestSoFar; r++ {
		if (r - 1).Guarantee().Strength() <= r.Guarantee().Strength() {
			t.Fatalf("rung %q (%q) is not stronger than %q (%q)",
				r-1, (r - 1).Guarantee(), r, r.Guarantee())
		}
	}
}

// TestRungLabels pins each rung's name and label, and checks StrongestLabel
// reads the same table: a rung's answer can never carry more than its
// policy delivers.
func TestRungLabels(t *testing.T) {
	want := []struct {
		name string
		g    Guarantee
	}{
		{"expert-2maxfind", Guarantee2DeltaE},
		{"expert-randomized", Guarantee3DeltaEWHP},
		{"expert-shrunk", Guarantee2DeltaESubset},
		{"naive-majority", GuaranteeDeltaN},
		{"best-so-far", GuaranteeNone},
	}
	for r := RungExpert2MaxFind; r <= RungBestSoFar; r++ {
		if r.String() != want[r].name || r.Guarantee() != want[r].g {
			t.Errorf("rung %d = (%q, %q), want (%q, %q)", int(r), r, r.Guarantee(), want[r].name, want[r].g)
		}
		if g, ok := StrongestLabel(r.String()); !ok || g != r.Guarantee() {
			t.Errorf("StrongestLabel(%q) = (%q, %v), want (%q, true)", r, g, ok, r.Guarantee())
		}
	}
	for name, g := range map[string]Guarantee{
		"expert-all-play-all": Guarantee2DeltaE,
		"score-expert":        Guarantee2DeltaESubset,
		"score-naive":         GuaranteeDeltaN,
	} {
		if got, ok := StrongestLabel(name); !ok || got != g {
			t.Errorf("StrongestLabel(%q) = (%q, %v), want (%q, true)", name, got, ok, g)
		}
	}
	if _, ok := StrongestLabel("expert-bogus"); ok {
		t.Error("StrongestLabel accepted an unknown rung")
	}
	if r := numRungs; r.String() != "rung(5)" || r.Guarantee() != GuaranteeNone {
		t.Errorf("out-of-range rung = (%q, %q), want (rung(5), best-so-far)", r, r.Guarantee())
	}
}

// TestWorstCaseCoversEveryRung checks the reservation envelope: no rung's
// cost estimate exceeds WorstCase for its worker class, and WorstCase is
// attained by some rung.
func TestWorstCaseCoversEveryRung(t *testing.T) {
	for _, s := range []int{0, 1, 2, 7, 9, 31, 6400, 7999} {
		naive, expert := WorstCase(s)
		var hitN, hitE bool
		for r := RungExpert2MaxFind; r <= RungBestSoFar; r++ {
			c, bound := r.CostEstimate(s), naive
			if r.expert() {
				bound = expert
			}
			if c > bound {
				t.Errorf("s=%d: %s estimates %d > WorstCase %d", s, r, c, bound)
			}
			if r.expert() {
				hitE = hitE || c == expert
			} else {
				hitN = hitN || c == naive
			}
		}
		if !hitN || !hitE {
			t.Errorf("s=%d: WorstCase (%d, %d) is not any rung's estimate", s, naive, expert)
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
		{name: "unknown pool size passes the active-expert check", sig: func() Signals {
			s := healthy()
			s.ActiveExperts = -1
			return s
		}, want: "expert-2maxfind"},
		{name: "expert budget below full-set rungs falls to shrunk", sig: func() Signals {
			s := healthy()
			// 2-MaxFind over 9 needs 55 (the ceiling of 2·9^1.5 in floating
			// point); randomized needs 160·9 = 1440;
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
			s.DeadlinePassed = true
			return s
		}, want: "best-so-far"},
	}
	for _, tc := range cases {
		ctl := NewController(0)
		got := ctl.Decide("start", tc.sig())
		if got.String() != tc.want {
			t.Errorf("%s: Decide landed on %q, want %q (reason log: %s)",
				tc.name, got, tc.want, ctl.LastDecision().Reason)
		}
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
			// Quarantine below MinActive: the pool signal reads no active
			// expert.
			name: "quarantine below MinActive",
			err:  errUnavailable,
			sig: func() Signals {
				s := healthy()
				s.ActiveExperts = 0
				return s
			},
			want: "naive-majority",
		},
	}
	for _, tc := range cases {
		ctl := NewController(0)
		first := ctl.Decide("start", healthy())
		if first != RungExpert2MaxFind {
			t.Fatalf("%s: first decision %q, want expert-2maxfind", tc.name, first)
		}
		if fatal := ctl.Report(first, tc.err); fatal {
			t.Fatalf("%s: Report classified %v as fatal", tc.name, tc.err)
		}
		got := ctl.Decide("error", tc.sig())
		if got.String() != tc.want {
			t.Errorf("%s: post-failure decision %q, want %q (%s)",
				tc.name, got, tc.want, ctl.LastDecision().Reason)
		}
	}
}

// TestMaxAttemptsExhaustsARung checks the attempt counter: a rung that
// keeps failing transiently is abandoned after its two tries.
func TestMaxAttemptsExhaustsARung(t *testing.T) {
	ctl := NewController(0)
	for i := 0; i < 2; i++ {
		r := ctl.Decide("error", healthy())
		if r != RungExpert2MaxFind {
			t.Fatalf("attempt %d landed on %q, want expert-2maxfind", i, r)
		}
		ctl.Report(r, dispatch.ErrBackendUnavailable)
	}
	r := ctl.Decide("error", healthy())
	if r != RungExpertRandomized {
		t.Fatalf("post-exhaustion decision %q, want expert-randomized (%s)",
			r, ctl.LastDecision().Reason)
	}
	if dir := ctl.LastDecision().Direction(); dir >= 0 {
		t.Fatalf("downgrade decision direction %d, want negative", dir)
	}
}

// TestUpwardRecovery is the satellite's recovery case: a rung blocked by a
// quarantined pool becomes eligible again when the pool heals, and the
// controller climbs back up.
func TestUpwardRecovery(t *testing.T) {
	ctl := NewController(0)
	sick := healthy()
	sick.ActiveExperts = 0
	if r := ctl.Decide("start", sick); r != RungNaiveMajority {
		t.Fatalf("sick pool decision %q, want naive-majority", r)
	}
	healed := healthy()
	healed.ActiveExperts = 3
	r := ctl.Decide("error", healed)
	if r != RungExpert2MaxFind {
		t.Fatalf("healed pool decision %q, want expert-2maxfind (%s)",
			r, ctl.LastDecision().Reason)
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
		ctl := NewController(0)
		r := ctl.Decide("start", healthy())
		if fatal := ctl.Report(r, err); !fatal {
			t.Errorf("Report(%v) not fatal", err)
		}
		if next := ctl.Decide("error", healthy()); next != RungBestSoFar {
			t.Errorf("post-fatal decision %q, want the terminal rung", next)
		}
	}
	// An injected crash wraps ErrPermanent; it must be classified as a
	// crash (fatal), not as a dead backend (degradable).
	ctl := NewController(0)
	r := ctl.Decide("start", healthy())
	if !ctl.Report(r, chaos.ErrCrash) {
		t.Fatal("ErrCrash (which wraps ErrPermanent) was not classified fatal")
	}
}

func TestDecisionLogAndHash(t *testing.T) {
	walk := func() *Controller {
		ctl := NewController(0)
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
	other := NewController(0)
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
	ctl := NewController(42)

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

// TestDecisionLogPinned pins every decision Reason the controller can write,
// and the FNV hash of each walk's log, to literal values. DecisionHash rides
// in checkpoints, so a change to any reason string — even a word — makes a
// resumed run disagree with the log it was checkpointed under.
func TestDecisionLogPinned(t *testing.T) {
	errPermanent := fmt.Errorf("gone: %w", dispatch.ErrPermanent)
	walks := []struct {
		name    string
		steps   func(ctl *Controller)
		reasons []string // Reason of each decision, in order
		hash    uint64
	}{
		{
			name: "halted",
			steps: func(ctl *Controller) {
				ctl.Report(ctl.Decide("start", healthy()), chaos.ErrCrash)
				ctl.Decide("error", healthy())
			},
			reasons: []string{"", "expert-2maxfind: run halted by a fatal error; expert-randomized: run halted by a fatal error; expert-shrunk: run halted by a fatal error; naive-majority: run halted by a fatal error"},
			hash:    0x3573b414ba1e3511,
		},
		{
			name: "failed twice",
			steps: func(ctl *Controller) {
				ctl.Report(ctl.Decide("start", healthy()), dispatch.ErrBackendUnavailable)
				ctl.Report(ctl.Decide("error", healthy()), dispatch.ErrBackendUnavailable)
				ctl.Decide("error", healthy())
			},
			reasons: []string{"", "", "expert-2maxfind: failed 2 times"},
			hash:    0x71088d34776f47e3,
		},
		{
			name: "expert then naive backend dead",
			steps: func(ctl *Controller) {
				ctl.Report(ctl.Decide("start", healthy()), errPermanent)
				ctl.Report(ctl.Decide("error", healthy()), errPermanent)
				ctl.Decide("error", healthy())
			},
			reasons: []string{"", "expert-2maxfind: expert backend permanently failed; expert-randomized: expert backend permanently failed; expert-shrunk: expert backend permanently failed", "expert-2maxfind: expert backend permanently failed; expert-randomized: expert backend permanently failed; expert-shrunk: expert backend permanently failed; naive-majority: naive backend permanently failed"},
			hash:    0x689c15073a0bf6ca,
		},
		{
			name: "phase 1 incomplete",
			steps: func(ctl *Controller) {
				sig := healthy()
				sig.Phase1Done = false
				ctl.Decide("phase1-failed", sig)
			},
			reasons: []string{"expert-2maxfind: no candidate set (phase 1 incomplete); expert-randomized: no candidate set (phase 1 incomplete); expert-shrunk: no candidate set (phase 1 incomplete); naive-majority: no candidate set (phase 1 incomplete)"},
			hash:    0x39213b4995335dd2,
		},
		{
			name: "no active experts",
			steps: func(ctl *Controller) {
				sig := healthy()
				sig.ActiveExperts = 0
				ctl.Decide("start", sig)
			},
			reasons: []string{"expert-2maxfind: 0 active experts < MinExperts 1; expert-randomized: 0 active experts < MinExperts 1; expert-shrunk: 0 active experts < MinExperts 1"},
			hash:    0x53919003b70092d,
		},
		{
			name: "budget below cost estimates",
			steps: func(ctl *Controller) {
				sig := healthy()
				sig.ExpertRemaining = 40
				ctl.Decide("start", sig)
				sig.ExpertRemaining = 3
				sig.NaiveRemaining = 35
				ctl.Decide("error", sig)
			},
			reasons: []string{"expert-2maxfind: budget 40 < cost estimate 55; expert-randomized: budget 40 < cost estimate 1440", "expert-2maxfind: budget 3 < cost estimate 55; expert-randomized: budget 3 < cost estimate 1440; expert-shrunk: budget 3 < cost estimate 6; naive-majority: budget 35 < cost estimate 36"},
			hash:    0x83c90b9797a016f0,
		},
		{
			name: "deadline passed",
			steps: func(ctl *Controller) {
				sig := healthy()
				sig.DeadlinePassed = true
				ctl.Decide("start", sig)
			},
			reasons: []string{"expert-2maxfind: deadline passed; expert-randomized: deadline passed; expert-shrunk: deadline passed; naive-majority: deadline passed"},
			hash:    0xc871aac768446800,
		},
	}
	for _, w := range walks {
		ctl := NewController(0)
		w.steps(ctl)
		log := ctl.Decisions()
		var got []string
		for _, d := range log {
			got = append(got, d.Reason)
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", w.reasons) {
			t.Errorf("%s: reasons\n got %q\nwant %q", w.name, got, w.reasons)
		}
		if h := ctl.LogHash(); h != w.hash {
			t.Errorf("%s: LogHash = %#x, want %#x", w.name, h, w.hash)
		}
	}
}
