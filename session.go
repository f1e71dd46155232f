package crowdmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/degrade"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// ErrSessionBusy is returned by FindMax, Run and ResumeWorkload when a
// Session is entered concurrently. A Session is documented as not safe for
// concurrent use; the guard turns silent data races into a crisp error.
var ErrSessionBusy = errors.New("crowdmax: session already running (Session is not safe for concurrent use)")

// Config assembles a Session: the two worker pools, the filter parameter,
// and the pricing.
type Config struct {
	// Naive answers phase-1 comparisons (required).
	Naive Comparator
	// Expert answers phase-2 comparisons (required).
	Expert Comparator
	// Valuer answers the cardinal value queries of the crowd-scoring
	// workload (ScoreWorkload) with the naïve class's accuracy; comparison
	// workloads ignore it. Score runs require either a Valuer or a
	// NaiveBackend that answers value queries itself.
	Valuer Valuer
	// Un is the un(n) estimate handed to the filter; estimate it with the
	// EstimateUn function when unknown. Required, ≥ 1. Overestimating costs
	// money but never accuracy.
	Un int
	// Prices sets cn and ce for cost reporting; the zero value prices
	// every comparison at 0.
	Prices Prices
	// Memoize caches each pair's first answer per worker class
	// (Appendix A, optimization 1). Enabled by default — set
	// DisableMemoization to turn it off.
	DisableMemoization bool
	// Rand seeds the run: its seed fingerprints checkpoints and drives the
	// degradation ladder's randomized rung; defaults to a fixed-seed stream.
	Rand *Rand
	// Budget declares hard caps on comparison counts and monetary spend
	// for each run; the zero value is unlimited. A capped run that hits a
	// limit returns ErrBudgetExhausted (wrapped) alongside the best-so-far
	// partial result, and never exceeds any cap by even one comparison.
	Budget BudgetLimits
	// NaiveBackend, when set, routes phase-1 comparisons through a dispatch
	// backend (flaky, retrying, or a real platform adapter) instead of
	// calling Naive in-process. Naive is still required: it remains the
	// semantic reference for the worker class.
	NaiveBackend Backend
	// ExpertBackend is the phase-2 counterpart of NaiveBackend.
	ExpertBackend Backend
	// Checkpoint enables crash recovery: snapshots of the run state are
	// written atomically to Checkpoint.Path at phase boundaries and every
	// Checkpoint.Every paid comparisons, and Session.ResumeWorkload
	// continues a truncated run from the last snapshot. Requires memoization (the
	// default) and — for bit-identical resume — stateless comparators
	// (ε = 0 with an order-independent tie policy such as HashTie).
	Checkpoint CheckpointConfig
	// Chaos, when non-nil and enabled, injects semantic faults (adversarial
	// personas on the naïve backend, a deterministic crash) for robustness
	// testing; see ChaosPlan.
	Chaos *ChaosPlan
	// Health enables per-worker health tracking when a backend is a
	// WorkerPool (gold probes, quarantine) and, with HedgeAfter set, wraps
	// the backends in a hedging decorator; see HealthConfig.
	Health HealthConfig
	// Degrade, when non-nil, supervises the run with the graceful-degradation
	// controller: recoverable mid-phase failures walk the run down the
	// quality ladder instead of failing it, and Result.Guarantee reports the
	// quality actually achieved; see DegradeConfig.
	Degrade *DegradeConfig
	// OnPhase, when set, observes algorithm phase boundaries: it is called
	// with "start" (empty survivor set) as the run begins, "phase1" with the
	// filter's candidate set, and "done" with the final survivors. Services
	// use it to stream per-job progress. It composes with checkpointing —
	// the boundary snapshot is written before the observer runs, so the
	// observer only ever sees durable states.
	OnPhase func(phase string, survivors []Item)
	// OnDecision, when set, observes every degrade-controller decision as it
	// is appended to the log, after the process-metrics forwarding. A no-op
	// unless Config.Degrade is set.
	OnDecision func(d DegradeDecision)
}

// Session runs workloads with a fixed worker configuration; each Result
// reports its own run's paid counts and cost. Create one with NewSession.
//
// A Session is NOT safe for concurrent use: the configured comparators are
// typically stateful (seeded random streams). A cheap atomic guard enforces
// this — a reentrant or concurrent FindMax, Run or ResumeWorkload returns
// ErrSessionBusy instead of racing.
type Session struct {
	cfg   Config
	inUse atomic.Bool
}

// enter acquires the session's single-run slot.
func (s *Session) enter() error {
	if !s.inUse.CompareAndSwap(false, true) {
		return ErrSessionBusy
	}
	return nil
}

// leave releases the slot acquired by enter.
func (s *Session) leave() { s.inUse.Store(false) }

// NewSession validates cfg and returns a ready Session.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Naive == nil {
		return nil, errors.New("crowdmax: Config.Naive is required")
	}
	if cfg.Expert == nil {
		return nil, errors.New("crowdmax: Config.Expert is required")
	}
	if cfg.Un < 1 {
		return nil, fmt.Errorf("crowdmax: Config.Un must be ≥ 1, got %d", cfg.Un)
	}
	return &Session{cfg: cfg}, nil
}

// Result is the outcome of one Session run.
type Result struct {
	// Best is the returned approximation of the maximum element. On a
	// truncated run (cancellation, budget exhaustion) it is the phase-2
	// best-so-far leader, or the zero Item when phase 2 never started.
	Best Item
	// Candidates is the phase-1 output S (|S| ≤ 2·un − 1). On a truncated
	// run it holds the survivors of the last completed filter iteration.
	Candidates []Item
	// NaiveComparisons and ExpertComparisons are this run's paid counts.
	NaiveComparisons, ExpertComparisons int64
	// Cost is this run's monetary cost under the session prices.
	Cost float64
	// Rung names the quality-ladder rung that produced Best, and Guarantee
	// its machine-checkable label. An undegraded successful max-find run
	// reports "expert-2maxfind" / 2δe; any run that returns an error reports
	// "best-so-far" with no bound.
	Rung      string
	Guarantee Guarantee
	// Phase1Complete reports whether the filter phase ran to completion —
	// δn-or-stronger labels are only honest when it did.
	Phase1Complete bool
	// Decisions is the degradation controller's decision log; nil when
	// Config.Degrade is unset.
	Decisions []DegradeDecision
	// Ranked is the top-k workload's output: the extracted elements best
	// first, each with the rung and guarantee its own round achieved. On a
	// truncated top-k run it holds the fully completed ranks. Nil for other
	// workloads.
	Ranked []RankedResult
	// Scores is the crowd-scoring workload's aggregated per-element scores,
	// best first (the elements fully scored before any truncation). Nil for
	// other workloads.
	Scores []ItemScore
}

// RankedResult is one rank of a top-k run: the extracted element and the
// quality rung/guarantee of the round that produced it.
type RankedResult struct {
	// Item is the element extracted at this rank.
	Item Item
	// Rung names the quality-ladder rung the rank's round completed on, and
	// Guarantee its machine-checkable label (relative to the input with all
	// better-ranked elements removed).
	Rung      string
	Guarantee Guarantee
}

// FindMax runs the two-phase algorithm on items with no cancellation
// deadline: it is Run(context.Background(), MaxFind(), items).
func (s *Session) FindMax(items []Item) (Result, error) {
	return s.run(context.Background(), MaxFind(), items, nil)
}

// Run executes a workload on items under ctx through the session engine:
// backend wiring (chaos, health, hedging, checkpointing), budget
// enforcement and memoization, with the algorithm supplied by the workload;
// see MaxFind, TopKWorkload and ScoreWorkload. The run stops promptly on
// cancellation, and the Config.Budget caps (when set) are enforced on every
// comparison. On cancellation or budget exhaustion the returned Result
// carries the best-so-far partial answer and the true paid costs alongside
// the error; use errors.Is(err, context.Canceled) and errors.Is(err,
// ErrBudgetExhausted) to tell the causes apart.
func (s *Session) Run(ctx context.Context, w Workload, items []Item) (Result, error) {
	return s.run(ctx, w, items, nil)
}

// run is the workload-generic engine behind FindMax, Run and ResumeWorkload:
// it wires the configured backends (decorating them with chaos and health
// layers as requested), attaches the checkpoint writer to the oracles as
// their journal, optionally replays a checkpoint, hands the plumbed
// environment to the workload, and leaves cost merging and result
// labelling to it. With no Chaos/Health configured and no backends set,
// the wiring collapses to the direct-comparator path (a platform
// BatchComparator keeps its batches), checkpointing or not.
func (s *Session) run(ctx context.Context, w Workload, items []Item, resume *checkpoint.State) (Result, error) {
	if w == nil {
		return Result{}, errors.New("crowdmax: nil workload")
	}
	if err := w.validate(&s.cfg, len(items)); err != nil {
		return Result{}, err
	}
	if resume != nil && resume.Kind != w.Kind() {
		return Result{}, fmt.Errorf("crowdmax: checkpoint belongs to workload %q, cannot resume it as %q", resume.Kind, w.Kind())
	}
	if err := s.enter(); err != nil {
		return Result{}, err
	}
	defer s.leave()
	runLedger := NewLedger()
	var naiveMemo, expertMemo *Memo
	var valueMemo *tournament.ValueMemo
	if !s.cfg.DisableMemoization {
		n, err := memoSize(items, resume)
		if err != nil {
			return Result{}, err
		}
		naiveMemo, expertMemo = NewMemo(n), NewMemo(n)
		valueMemo = tournament.NewValueMemo()
	}
	var budget *Budget
	if !s.cfg.Budget.IsZero() {
		budget = NewBudget(s.cfg.Budget)
	}
	if resume != nil {
		// Replay the checkpoint: prime the memo tables with every frozen
		// answer and restore the ledger and budget totals. Re-running the
		// algorithm from the start then serves every pre-crash comparison
		// as a free memo hit billed at its original count, and the first
		// genuinely new comparison lands exactly where the crashed run
		// stopped.
		for _, e := range resume.NaiveMemo {
			naiveMemo.Prime(int(e.A), int(e.B), int(e.Winner))
		}
		for _, e := range resume.ExpertMemo {
			expertMemo.Prime(int(e.A), int(e.B), int(e.Winner))
		}
		for _, e := range resume.ValueMemo {
			valueMemo.Prime(int(e.ID), int(e.Rep), e.Value)
		}
		runLedger.AddSnapshot(cost.Snapshot{
			Comparisons: resume.Comparisons,
			MemoHits:    resume.MemoHits,
			Steps:       resume.Steps,
		})
		for i := 0; i < cost.MaxClasses; i++ {
			budget.Preload(Class(i), resume.BudgetSpent[i])
		}
	}
	r := s.cfg.Rand
	if r == nil {
		r = NewRand(0)
	}

	nb, eb := s.cfg.NaiveBackend, s.cfg.ExpertBackend
	ckOn := s.cfg.Checkpoint.Path != ""
	chaosOn := s.cfg.Chaos != nil && s.cfg.Chaos.Enabled()
	healthOn := !s.cfg.Health.IsZero()
	if chaosOn || healthOn {
		// These layers are backend decorators; manufacture simulated
		// backends around the configured comparators (and valuer, so value
		// queries keep flowing through the decorators) when none are set.
		// Checkpointing is not one: the oracles journal paid answers to
		// the writer themselves, so it keeps the direct comparator path.
		if nb == nil {
			if s.cfg.Valuer != nil {
				nb = dispatch.NewSimulatedValuer(s.cfg.Naive, s.cfg.Valuer)
			} else {
				nb = NewSimulatedBackend(s.cfg.Naive)
			}
		}
		if eb == nil {
			eb = NewSimulatedBackend(s.cfg.Expert)
		}
	}
	if chaosOn {
		// Chaos windows are positions on the run's paid-comparison clock;
		// memo replay never bills new comparisons, so a resumed run re-enters
		// every fault window at exactly the comparison that first opened it.
		clock := func() int64 { return runLedger.Snapshot().TotalComparisons() }
		var err error
		nb, eb, _, err = s.cfg.Chaos.Apply(nb, eb, clock)
		if err != nil {
			return Result{}, err
		}
	}
	if healthOn {
		if p, ok := nb.(*WorkerPool); ok {
			p.EnableHealth(s.cfg.Health)
		}
		if p, ok := eb.(*WorkerPool); ok {
			p.EnableHealth(s.cfg.Health)
		}
	}
	// The degrade controller's expert rungs read the expert pool's live
	// active-worker count; grab the pool before the hedge decorator hides
	// it.
	expertPool, _ := eb.(*WorkerPool)
	if d := s.cfg.Health.HedgeAfter; healthOn && d > 0 {
		nb = dispatch.NewHedge(nb, d)
		eb = dispatch.NewHedge(eb, d)
	}
	hooks := &snapHooks{}
	var ck *ckWriter
	if ckOn {
		if s.cfg.DisableMemoization {
			return Result{}, errors.New("crowdmax: Config.Checkpoint requires memoization (resume replays the memo tables)")
		}
		ck = newCkWriter(s.cfg.Checkpoint, naiveMemo, expertMemo, valueMemo,
			s.checkpointSource(w.Kind(), items, r.Seed(), runLedger, budget, hooks))
	}

	no := NewOracle(s.cfg.Naive, Naive, runLedger, naiveMemo).WithBackend(nb)
	eo := NewOracle(s.cfg.Expert, Expert, runLedger, expertMemo).WithBackend(eb)
	if ck != nil {
		no.WithJournal(ck.journal(Naive))
		eo.WithJournal(ck.journal(Expert))
	}
	if s.cfg.Valuer != nil {
		no.WithValuer(s.cfg.Valuer)
	}
	if valueMemo != nil {
		no.WithValueMemo(valueMemo)
	}
	if budget != nil {
		no.WithBudget(budget)
		eo.WithBudget(budget)
	}
	env := &runEnv{
		s:          s,
		items:      items,
		resume:     resume,
		runLedger:  runLedger,
		budget:     budget,
		r:          r,
		no:         no,
		eo:         eo,
		ck:         ck,
		expertPool: expertPool,
		hooks:      hooks,
	}
	// prepare runs before the start boundary so controllers and workload
	// state registered in the snapshot hooks are visible to every snapshot,
	// including the immediate one below.
	if err := w.prepare(env); err != nil {
		return Result{}, err
	}
	if ck != nil {
		// An immediate snapshot makes even a crash before the first
		// interval resumable; phase boundaries refresh it.
		ck.boundary("start", nil)
	}
	if s.cfg.OnPhase != nil {
		s.cfg.OnPhase("start", nil)
	}
	return w.run(ctx, env)
}

// memoSize returns the item-ID range [0, n) a run's memo tables cover: one
// past the largest ID among its items. It refuses IDs the tables cannot
// key, and checkpoint answers about items outside the range.
func memoSize(items []Item, resume *checkpoint.State) (int, error) {
	n := 0
	for _, it := range items {
		if it.ID < 0 || it.ID > math.MaxInt32 {
			return 0, fmt.Errorf("crowdmax: item ID %d outside [0, 2^31): memo tables key items by dense IDs", it.ID)
		}
		n = max(n, it.ID+1)
	}
	if resume != nil {
		for _, table := range [][]checkpoint.PairAnswer{resume.NaiveMemo, resume.ExpertMemo} {
			for _, e := range table {
				if e.A < 0 || e.A >= int64(n) || e.B < 0 || e.B >= int64(n) {
					return 0, fmt.Errorf("crowdmax: checkpoint answer for pair (%d, %d) names an item outside the run's IDs [0, %d)", e.A, e.B, n)
				}
			}
		}
	}
	return n, nil
}

// degradeOptions builds the degrade.Run options a supervised run shares
// across workloads: live signal sampling (budget headroom, pool health,
// deadline) and decision forwarding to obs and the user's observer.
func (s *Session) degradeOptions(ctx context.Context, env *runEnv, ropt core.RandomizedOptions) degrade.Options {
	return degrade.Options{
		Un:         s.cfg.Un,
		Randomized: ropt,
		Signals: func() degrade.Signals {
			sig := degrade.Unconstrained()
			if env.budget != nil {
				sig.NaiveRemaining = env.budget.RemainingFor(worker.Naive)
				sig.ExpertRemaining = env.budget.RemainingFor(worker.Expert)
			}
			if env.expertPool != nil {
				sig.ActiveExperts = env.expertPool.ActiveWorkers()
			}
			if dl, ok := ctx.Deadline(); ok {
				sig.DeadlinePassed = time.Until(dl) <= 0
			}
			return sig
		},
		OnDecision: func(d degrade.Decision) {
			if m := obs.Active(); m != nil {
				m.DegradeDecision(d.Direction())
			}
			if s.cfg.OnDecision != nil {
				s.cfg.OnDecision(d)
			}
		},
	}
}

// findMaxDegraded is the max-find workload's tail under a degrade
// controller: it hands the wired oracles to degrade.Run and maps the
// supervised Outcome onto Result.
func (s *Session) findMaxDegraded(ctx context.Context, env *runEnv, ctl *degrade.Controller) (Result, error) {
	opt := s.degradeOptions(ctx, env, core.RandomizedOptions{R: env.r.Child("phase2")})
	opt.OnPhase = s.phaseHook(env.ck)
	out, err := degrade.Run(ctx, env.items, env.no, env.eo, ctl, opt)
	if err == nil && env.ck != nil {
		err = env.ck.Err()
	}
	rung, guarantee := out.Rung.String(), out.Rung.Guarantee()
	if err != nil {
		// A fatal error (crash, cancellation) means no rung completed; the
		// partial leader carries no bound.
		rung, guarantee = "best-so-far", GuaranteeNone
	}
	return Result{
		Best:              out.Best,
		Candidates:        out.Candidates,
		NaiveComparisons:  env.runLedger.Naive(),
		ExpertComparisons: env.runLedger.Expert(),
		Cost:              env.runLedger.Cost(s.cfg.Prices),
		Rung:              rung,
		Guarantee:         guarantee,
		Phase1Complete:    out.Phase1Complete,
		Decisions:         out.Decisions,
	}, err
}

// phaseHook composes the checkpoint writer's boundary snapshot with the
// user's Config.OnPhase observer — snapshot first, so the observer never
// reports a boundary that is not yet durable.
func (s *Session) phaseHook(ck *ckWriter) func(phase string, survivors []Item) {
	user := s.cfg.OnPhase
	if ck == nil {
		return user
	}
	if user == nil {
		return ck.boundary
	}
	return func(phase string, survivors []Item) {
		ck.boundary(phase, survivors)
		user(phase, survivors)
	}
}
