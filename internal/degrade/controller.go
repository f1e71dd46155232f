package degrade

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"crowdmax/internal/chaos"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
)

// Signals is one sample of the live inputs a ladder decision consumes. The
// session layer fills it from the budget, the expert worker pool, and the
// context deadline; unknown fields use their documented "no information"
// value so a sparse sample never blocks a rung spuriously.
type Signals struct {
	// ExpertRemaining and NaiveRemaining are the comparisons the budget
	// would still admit per class (Budget.RemainingFor); -1 = unconstrained.
	ExpertRemaining, NaiveRemaining int64
	// ActiveExperts is the expert pool's non-quarantined worker count, or
	// -1 when no pool exposes one.
	ActiveExperts int
	// DeadlinePassed reports that the run context's deadline has already
	// passed; it blocks every rung that would spend comparisons.
	DeadlinePassed bool
	// Phase1Done reports whether the filter phase completed, and
	// Candidates the size of its output. Filled by Run, not the sampler.
	Phase1Done bool
	Candidates int
}

// Unconstrained returns a Signals sample carrying no information: budgets
// unconstrained, pool size unknown, no deadline.
func Unconstrained() Signals {
	return Signals{ExpertRemaining: -1, NaiveRemaining: -1, ActiveExperts: -1}
}

// maxAttempts is how many times a rung may fail before the controller stops
// retrying it.
const maxAttempts = 2

// Decision is one entry of the controller's append-only decision log.
type Decision struct {
	// Seq numbers the decision within the run, from 0.
	Seq int
	// Point names the decision point: "start", "error" (after a mid-phase
	// failure), or the label the caller passed.
	Point string
	// From and To name the previous and chosen rung (From is "" on the
	// first decision); FromIndex and ToIndex are their ladder positions
	// (FromIndex -1 on the first decision).
	From, To           string
	FromIndex, ToIndex int
	// Reason records why every rung above To was skipped, ";"-joined.
	Reason string
}

// Direction classifies the decision: negative for a downgrade (weaker
// rung), positive for a recovery (stronger rung), 0 for a stay or the
// first decision.
func (d Decision) Direction() int {
	if d.FromIndex < 0 || d.FromIndex == d.ToIndex {
		return 0
	}
	// Ladder index grows as strength falls.
	return d.FromIndex - d.ToIndex
}

// Controller supervises one run's walk along the quality ladder. It is an
// explicit state machine: Decide picks the strongest eligible rung for the
// current Signals sample, Report classifies a rung's failure (counting
// attempts, marking a worker class dead on permanent errors, halting on
// fatal ones), and the decision log — hashed into checkpoints — records
// every move with its reason. Safe for concurrent use, though a run drives
// it from one goroutine.
type Controller struct {
	mu       sync.Mutex
	seed     uint64 // drives the shrunk rung's subset sample
	failures [numRungs]int
	cur      Rung // -1 before the first decision
	seq      int
	log      []Decision

	expertDead bool // a permanent expert-backend error was reported
	naiveDead  bool // a permanent naïve-backend error was reported
	halted     bool // a fatal error was reported; only best-so-far remains
}

// NewController returns a fresh controller positioned above the ladder's
// top rung; seed drives its seeded choices (the shrunk rung's subset).
func NewController(seed uint64) *Controller {
	return &Controller{seed: seed, cur: -1}
}

// Decide picks the strongest eligible rung under sig, appends the decision
// (with the skip reasons for every stronger rung) to the log, and returns
// it. Decisions are deterministic in (signals, failure state) — an upward
// recovery happens naturally when a previously blocked rung's precondition
// clears, e.g. a quarantined expert pool heals, as long as the rung has
// attempts left.
func (c *Controller) Decide(point string, sig Signals) Rung {
	c.mu.Lock()
	defer c.mu.Unlock()
	var skipped []string
	chosen := RungBestSoFar
	for r := Rung(0); r < RungBestSoFar; r++ {
		if reason := c.blockedLocked(r, sig); reason != "" {
			skipped = append(skipped, r.String()+": "+reason)
			continue
		}
		chosen = r
		break
	}
	d := Decision{
		Seq: c.seq, Point: point,
		FromIndex: int(c.cur), ToIndex: int(chosen),
		To:     chosen.String(),
		Reason: strings.Join(skipped, "; "),
	}
	if c.cur >= 0 {
		d.From = c.cur.String()
	}
	c.seq++
	c.log = append(c.log, d)
	c.cur = chosen
	return chosen
}

// blockedLocked returns "" when rung r (not the terminal best-so-far, which
// is always eligible) may run under sig, else the reason it may not. The
// reasons are hashed into DecisionHash, which checkpoints carry, so every
// string here must stay byte-for-byte stable — including the MinExperts
// wording, which outlived the rung field it once named. The checks run in a
// fixed order, and only the first that fails is recorded. Callers hold c.mu.
func (c *Controller) blockedLocked(r Rung, sig Signals) string {
	if c.halted {
		return "run halted by a fatal error"
	}
	if c.failures[r] >= maxAttempts {
		return fmt.Sprintf("failed %d times", c.failures[r])
	}
	if r.expert() && c.expertDead {
		return "expert backend permanently failed"
	}
	if !r.expert() && c.naiveDead {
		return "naive backend permanently failed"
	}
	if !sig.Phase1Done || sig.Candidates == 0 {
		return "no candidate set (phase 1 incomplete)"
	}
	if r.expert() && sig.ActiveExperts == 0 {
		return "0 active experts < MinExperts 1"
	}
	remaining := sig.NaiveRemaining
	if r.expert() {
		remaining = sig.ExpertRemaining
	}
	if cost := r.CostEstimate(sig.Candidates); remaining >= 0 && remaining < cost {
		return fmt.Sprintf("budget %d < cost estimate %d", remaining, cost)
	}
	if sig.DeadlinePassed {
		return "deadline passed"
	}
	return ""
}

// Report classifies err — a failure of the given rung — and updates the
// failure state. It returns true when the error is fatal (an injected
// crash, or context cancellation/deadline): the run must stop and surface
// err rather than degrade further. Permanent backend errors mark the rung's
// worker class dead; anything else (budget exhaustion, an unavailable
// backend, quarantine starvation) just burns one of the rung's attempts.
func (c *Controller) Report(r Rung, err error) (fatal bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures[r]++
	switch {
	// ErrCrash wraps ErrPermanent, so the crash test comes first: a crash
	// models process death and must stay fatal even under degradation —
	// recovery is ResumeWorkload's job, not the ladder's.
	case errors.Is(err, chaos.ErrCrash),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		c.halted = true
		return true
	case errors.Is(err, dispatch.ErrPermanent):
		if r.expert() {
			c.expertDead = true
		} else {
			c.naiveDead = true
		}
	}
	return false
}

// ReportPhase1 classifies a filter-phase failure the same way Report does
// for rung failures, attributing permanent errors to the naïve class.
func (c *Controller) ReportPhase1(err error) (fatal bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case errors.Is(err, chaos.ErrCrash),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		c.halted = true
		return true
	case errors.Is(err, dispatch.ErrPermanent):
		c.naiveDead = true
	}
	return false
}

// Shrink returns a seeded random subset of candidates sized so 2-MaxFind
// over it fits within remaining expert comparisons (minimum 2 elements),
// preserving candidate order. remaining < 0 (unconstrained) returns the
// full set. The sample is drawn from a fresh child of the controller seed
// on every call, so repeated calls — and a resumed run's replay — pick the
// same subset.
func (c *Controller) Shrink(candidates []item.Item, remaining int64) []item.Item {
	k := len(candidates)
	if remaining >= 0 {
		for k > 2 && RungExpert2MaxFind.CostEstimate(k) > remaining {
			k--
		}
	}
	if k >= len(candidates) {
		return candidates
	}
	r := rng.New(c.seed).Child("shrink")
	idx := make([]int, len(candidates))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = idx[:k]
	sort.Ints(idx)
	out := make([]item.Item, k)
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// Decisions returns a copy of the decision log.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.log))
	copy(out, c.log)
	return out
}

// LastDecision returns the most recent decision (zero before any Decide).
func (c *Controller) LastDecision() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.log) == 0 {
		return Decision{}
	}
	return c.log[len(c.log)-1]
}

// Snapshot returns the current rung name ("" before the first decision)
// and the decision-log hash — the pair checkpoint snapshots carry so a
// resumed run can be checked against the rung it originally reached.
func (c *Controller) Snapshot() (rung string, logHash uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur >= 0 {
		rung = c.cur.String()
	}
	return rung, c.logHashLocked()
}

// LogHash returns the FNV-1a hash of the decision log: one line per
// decision, "seq|point|from|to|reason". Two runs with identical hashes made
// identical ladder walks for identical reasons.
func (c *Controller) LogHash() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logHashLocked()
}

func (c *Controller) logHashLocked() uint64 {
	h := fnv.New64a()
	for _, d := range c.log {
		fmt.Fprintf(h, "%d|%s|%s|%s|%s\n", d.Seq, d.Point, d.From, d.To, d.Reason)
	}
	return h.Sum64()
}
