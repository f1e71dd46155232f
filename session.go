package crowdmax

import (
	"context"
	"errors"
	"fmt"
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

// ErrSessionBusy is returned by FindMax/FindMaxContext/EstimateUn when a
// Session is entered concurrently. A Session accumulates costs in a single
// ledger and is documented as not safe for concurrent use; the guard turns
// silent data races into a crisp error.
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
	// Un is the un(n) estimate handed to the filter; estimate it with
	// EstimateUn when unknown. Required, ≥ 1. Overestimating costs money
	// but never accuracy.
	Un int
	// Prices sets cn and ce for cost reporting; the zero value prices
	// every comparison at 0.
	Prices Prices
	// Phase2 selects the expert-phase algorithm; the zero value is
	// 2-MaxFind, the paper's practical choice.
	Phase2 Phase2Algorithm
	// Memoize caches each pair's first answer per worker class
	// (Appendix A, optimization 1). Enabled by default — set
	// DisableMemoization to turn it off.
	DisableMemoization bool
	// TrackLosses discards elements early once they have lost to un
	// distinct opponents (Appendix A, optimization 2).
	TrackLosses bool
	// Rand drives the randomized phase 2 (only needed with
	// RandomizedPhase2); defaults to a fixed-seed stream.
	Rand *Rand
	// Budget declares hard caps on comparison counts and monetary spend
	// for each FindMax run; the zero value is unlimited. A capped run that
	// hits a limit returns ErrBudgetExhausted (wrapped) alongside the
	// best-so-far partial result, and never exceeds any cap by even one
	// comparison.
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
	// Checkpoint.Every paid comparisons, and Session.Resume continues a
	// truncated run from the last snapshot. Requires memoization (the
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

// Session runs the two-phase algorithm with a fixed worker configuration
// and accumulates costs across runs. Create one with NewSession.
//
// A Session is NOT safe for concurrent use: runs share one cost ledger and
// the configured comparators are typically stateful (seeded random
// streams). A cheap atomic guard enforces this — a reentrant or concurrent
// FindMax/FindMaxContext/EstimateUn returns ErrSessionBusy instead of
// racing.
type Session struct {
	cfg    Config
	ledger *Ledger
	inUse  atomic.Bool
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
	return &Session{cfg: cfg, ledger: NewLedger()}, nil
}

// Result is the outcome of one Session.FindMax run.
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
	// its machine-checkable label. An undegraded successful run reports the
	// natural rung of its phase-2 algorithm (e.g. "expert-2maxfind" / 2δe);
	// any run that returns an error reports "best-so-far" with no bound.
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
// deadline; see FindMaxContext.
func (s *Session) FindMax(items []Item) (Result, error) {
	return s.FindMaxContext(context.Background(), items)
}

// FindMaxContext runs the two-phase algorithm on items under ctx. The run
// stops promptly on cancellation, and the Config.Budget caps (when set) are
// enforced on every comparison. On cancellation or budget exhaustion the
// returned Result carries the best-so-far partial answer and the true paid
// costs alongside the error; use errors.Is(err, context.Canceled) and
// errors.Is(err, ErrBudgetExhausted) to tell the causes apart.
func (s *Session) FindMaxContext(ctx context.Context, items []Item) (Result, error) {
	return s.run(ctx, MaxFind(), items, nil)
}

// Run executes a workload on items through the session engine: the same
// backend wiring (chaos, health, hedging, checkpointing), budget
// enforcement, memoization, and checkpoint-replay resume that FindMax uses,
// with the algorithm supplied by the workload. FindMaxContext is exactly
// Run(ctx, MaxFind(), items); see TopKWorkload and ScoreWorkload for the
// other registered workloads.
func (s *Session) Run(ctx context.Context, w Workload, items []Item) (Result, error) {
	return s.run(ctx, w, items, nil)
}

// run is the workload-generic engine behind Run, FindMaxContext and Resume:
// it wires the configured backends (decorating them with chaos, health, and
// checkpoint layers as requested), optionally replays a checkpoint, hands
// the plumbed environment to the workload, and leaves cost merging and
// result labelling to it. With no Checkpoint/Chaos/Health configured and no
// backends set, the wiring collapses to the historical direct-comparator hot
// path.
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
		naiveMemo, expertMemo = NewMemo(), NewMemo()
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
	if ckOn || chaosOn || healthOn {
		// These layers are backend decorators; manufacture simulated
		// backends around the configured comparators (and valuer, so value
		// queries keep flowing through the decorators) when none are set.
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
	// The degrade controller's MinExperts precondition reads the expert
	// pool's live active-worker count — and its MinTrust precondition the
	// naïve pool's extraction confidence; grab both pools before hedge and
	// checkpoint decorators hide them behind dispatch.Func wrappers.
	expertPool, _ := eb.(*WorkerPool)
	naivePool, _ := nb.(*WorkerPool)
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
		ck = newCkWriter(s.cfg.Checkpoint, naiveMemo, expertMemo,
			s.checkpointState(w.Kind(), items, r.Seed(), runLedger, budget, valueMemo, hooks))
		nb, eb = ck.wrap(nb, Naive), ck.wrap(eb, Expert)
	}

	no := NewOracle(s.cfg.Naive, Naive, runLedger, naiveMemo).WithBackend(nb)
	eo := NewOracle(s.cfg.Expert, Expert, runLedger, expertMemo).WithBackend(eb)
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
		naivePool:  naivePool,
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

// degradeOptions builds the degrade.Run options a supervised run shares
// across workloads: live signal sampling (budget headroom, pool health,
// deadline) and decision forwarding to obs and the user's observer.
func (s *Session) degradeOptions(ctx context.Context, env *runEnv, ropt core.RandomizedOptions) degrade.Options {
	return degrade.Options{
		Un:          s.cfg.Un,
		TrackLosses: s.cfg.TrackLosses,
		Randomized:  ropt,
		Signals: func() degrade.Signals {
			sig := degrade.Unconstrained()
			if env.budget != nil {
				sig.NaiveRemaining = env.budget.RemainingFor(worker.Naive)
				sig.ExpertRemaining = env.budget.RemainingFor(worker.Expert)
			}
			if env.expertPool != nil {
				sig.ActiveExperts = env.expertPool.ActiveWorkers()
			}
			// Trust confidence comes from whichever pool runs a graph
			// scorer; phase-1 health lives on the naïve pool, so it wins.
			if env.naivePool != nil {
				sig.TrustConfidence = env.naivePool.TrustConfidence()
			}
			if sig.TrustConfidence < 0 && env.expertPool != nil {
				sig.TrustConfidence = env.expertPool.TrustConfidence()
			}
			if dl, ok := ctx.Deadline(); ok {
				sig.HasDeadline = true
				sig.DeadlineLeft = time.Until(dl)
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
	s.ledger.Add(env.runLedger)
	rung, guarantee := out.Rung.Name, out.Rung.Guarantee
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

// TotalCost returns the monetary cost accumulated across all FindMax runs
// of this session.
func (s *Session) TotalCost() float64 { return s.ledger.Cost(s.cfg.Prices) }

// TotalComparisons returns the accumulated (naïve, expert) comparison
// counts across all runs.
func (s *Session) TotalComparisons() (naive, expert int64) {
	return s.ledger.Naive(), s.ledger.Expert()
}

// EstimateUn runs Algorithm 4 with this session's naïve workers: it
// estimates an upper bound for un(n) from a training set whose maximum is
// known (gold data), to be fed back into Config.Un. The estimation
// comparisons are billed to the session like any other naïve work.
//
// Deprecated: EstimateUn cannot be cancelled and bypasses the session's
// Config.Budget caps — estimation comparisons are billed but never held
// against the limits. Use EstimateUnContext, which honours both.
func (s *Session) EstimateUn(training []Item, perr float64, n int) (int, error) {
	return s.estimateUn(context.Background(), training, perr, n, false)
}

// EstimateUnContext is EstimateUn under a context and the session budget: the
// estimation stops promptly on cancellation, and when Config.Budget is set
// its caps apply to the estimation comparisons exactly as they do to a run —
// a capped estimation returns ErrBudgetExhausted (wrapped) rather than
// overspending.
func (s *Session) EstimateUnContext(ctx context.Context, training []Item, perr float64, n int) (int, error) {
	return s.estimateUn(ctx, training, perr, n, true)
}

func (s *Session) estimateUn(ctx context.Context, training []Item, perr float64, n int, budgeted bool) (int, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	defer s.leave()
	runLedger := NewLedger()
	no := NewOracle(s.cfg.Naive, Naive, runLedger, nil).WithBackend(s.cfg.NaiveBackend)
	if budgeted && !s.cfg.Budget.IsZero() {
		no.WithBudget(NewBudget(s.cfg.Budget))
	}
	est, err := core.EstimateUn(ctx, training, no, core.EstimateUnOptions{Perr: perr, N: n})
	if err != nil {
		return 0, err
	}
	s.ledger.Add(runLedger)
	return est, nil
}

// Bounds evaluates the paper's closed-form guarantees for an input of size
// n under this session's un: the maximum naïve comparisons (Lemma 3), the
// maximum expert comparisons with a 2-MaxFind phase 2 (Theorem 1), the
// candidate-set bound, and the worst-case cost under the session prices.
//
// Deprecated: Bounds cannot report cancellation to callers embedding it in
// request paths; use BoundsContext.
func (s *Session) Bounds(n int) (naiveMax, expertMax float64, candidates int, worstCost float64) {
	naiveMax, expertMax, candidates, worstCost, _ = s.BoundsContext(context.Background(), n)
	return naiveMax, expertMax, candidates, worstCost
}

// BoundsContext is Bounds with a context: services evaluating bounds inside
// a request handler get the standard cancellation check (the computation is
// closed-form, so the context is only consulted once, up front).
func (s *Session) BoundsContext(ctx context.Context, n int) (naiveMax, expertMax float64, candidates int, worstCost float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, 0, err
	}
	naiveMax = core.Phase1UpperBound(n, s.cfg.Un)
	expertMax = core.Phase2ExpertUpperBound(s.cfg.Un)
	candidates = core.CandidateSetBound(s.cfg.Un)
	worstCost = naiveMax*s.cfg.Prices.Unit(worker.Naive) + expertMax*s.cfg.Prices.Unit(worker.Expert)
	return naiveMax, expertMax, candidates, worstCost, nil
}
