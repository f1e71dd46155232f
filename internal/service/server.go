package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdmax"
	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/degrade"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/faults"
	"crowdmax/internal/obs"
)

// ErrDraining is returned by Submit once a drain has begun; the HTTP layer
// maps it to 503.
var ErrDraining = errors.New("service: server is draining")

// ErrBadRequest wraps job-spec validation failures; the HTTP layer maps it
// to 400.
var ErrBadRequest = errors.New("service: invalid job spec")

// RejectError is an admission refusal — the server or tenant is at capacity
// right now, and the client should retry after RetryAfter. The HTTP layer
// maps it to 429 with a Retry-After header.
type RejectError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("service: rejected: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// TenantLimits caps one tenant's concurrent jobs and cumulative spend.
// Monetary and count caps are enforced by a dispatch.Budget fed with
// worst-case reservations at admission, so a tenant can never be admitted
// into work its caps cannot cover. The zero value is unlimited.
type TenantLimits struct {
	// MaxJobs caps the tenant's admitted-but-unfinished jobs; 0 = unlimited.
	MaxJobs int
	// MaxNaive / MaxExpert / MaxTotal cap cumulative comparisons across all
	// of the tenant's jobs; 0 = unlimited.
	MaxNaive, MaxExpert, MaxTotal int64
	// MaxCost caps cumulative monetary spend under the server prices;
	// 0 = unlimited.
	MaxCost float64
}

// Options configures a Server.
type Options struct {
	// Dir is the state directory: job records under Dir/jobs, session
	// checkpoints under Dir/ck. Required.
	Dir string
	// MaxConcurrent caps concurrently admitted (queued or running) sessions;
	// submissions past the cap are rejected 429. Default 8.
	MaxConcurrent int
	// Prices values naïve and expert comparisons for job costs and tenant
	// monetary caps. Default {Naive: 1, Expert: 10}.
	Prices crowdmax.Prices
	// DefaultTenant is the cap set applied to tenants without an entry in
	// Tenants. The zero value is unlimited.
	DefaultTenant TenantLimits
	// Tenants overrides DefaultTenant per tenant name.
	Tenants map[string]TenantLimits
	// CmpLatency, when > 0, sleeps this long inside every comparison —
	// emulating crowd round-trips so smoke tests can hold jobs in flight
	// deterministically. It never changes answers or costs.
	CmpLatency time.Duration
	// CheckpointEvery is the per-job snapshot interval in paid comparisons
	// (besides phase boundaries). Default 64.
	CheckpointEvery int
	// RetryAfter is the backoff hint attached to 429 rejections. Default 1s.
	RetryAfter time.Duration
	// FS is the filesystem the store and checkpoints write through; nil uses
	// the real disk. Torture runs install a faults.Injector here.
	FS faults.FS
	// AllowFaults permits client-requested fault injection (JobSpec.Fault);
	// off by default so a production deployment cannot be panicked by a
	// request body.
	AllowFaults bool
	// WatchdogAfter flags a running job as stalled when it makes no
	// observable progress (state change, phase, decision, checkpoint) for
	// this long; 0 disables the watchdog.
	WatchdogAfter time.Duration
	// PersistAttempts bounds the retries of one job-record write before the
	// record is parked dirty for the drain-time flush. Default 4.
	PersistAttempts int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// tenant is one tenant's live admission state.
type tenant struct {
	mu     sync.Mutex
	jobs   int              // admitted and not yet settled
	max    int              // MaxJobs cap; 0 = unlimited
	budget *crowdmax.Budget // nil = unlimited
}

// Server is the long-running multi-tenant max-finding service: a pool of
// concurrent Sessions behind admission control, a persistent job store, and
// graceful drain. Create with NewServer, expose with Handler, stop with
// Drain.
type Server struct {
	opt   Options
	fsys  faults.FS
	store *store

	// slots is the session-concurrency semaphore: Submit acquires
	// non-blocking (full ⇒ 429), restart recovery acquires blocking.
	slots chan struct{}

	tmu     sync.Mutex
	tenants map[string]*tenant

	seqMu sync.Mutex
	seq   int64

	// idem maps tenant-scoped idempotency keys to their admitted jobs.
	// Guarded by admitMu — Submit is already fully serialized under it, and
	// lookup/insert must be atomic with admission anyway.
	idem map[string]*Job

	// dirty holds jobs whose latest record write failed even after retries;
	// the next transition or the drain-time flush tries again. dirtyMu also
	// guards window: the last settledWindow settled jobs, which keep their
	// event logs in memory (a ring; next is the oldest slot).
	dirtyMu sync.Mutex
	dirty   map[string]*Job
	window  []*Job
	next    int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   bool
	admitMu    sync.Mutex // serializes admission vs. drain flip
	wg         sync.WaitGroup
}

// NewServer loads the state directory, rebuilds tenant budgets from the
// records found there, schedules every non-terminal job for resume, and
// returns a serving-ready server.
func NewServer(opt Options) (*Server, error) {
	if opt.Dir == "" {
		return nil, errors.New("service: Options.Dir is required")
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 8
	}
	if opt.Prices == (crowdmax.Prices{}) {
		opt.Prices = crowdmax.Prices{Naive: 1, Expert: 10}
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 64
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.PersistAttempts <= 0 {
		opt.PersistAttempts = 4
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = faults.OS()
	}
	st, err := newStore(fsys, filepath.Join(opt.Dir, "jobs"))
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(filepath.Join(opt.Dir, "ck"), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		fsys:       fsys,
		store:      st,
		slots:      make(chan struct{}, opt.MaxConcurrent),
		tenants:    make(map[string]*tenant),
		idem:       make(map[string]*Job),
		dirty:      make(map[string]*Job),
		window:     make([]*Job, settledWindow),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	if opt.WatchdogAfter > 0 {
		go s.watchdog()
	}
	return s, nil
}

// logf writes one operational log line.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// tenant returns (creating on first use) the named tenant's admission state.
func (s *Server) tenant(name string) *tenant {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	lim, ok := s.opt.Tenants[name]
	if !ok {
		lim = s.opt.DefaultTenant
	}
	t := &tenant{max: lim.MaxJobs}
	if lim.MaxNaive > 0 || lim.MaxExpert > 0 || lim.MaxTotal > 0 || lim.MaxCost > 0 {
		t.budget = crowdmax.NewBudget(crowdmax.BudgetLimits{
			MaxNaive:  lim.MaxNaive,
			MaxExpert: lim.MaxExpert,
			MaxTotal:  lim.MaxTotal,
			MaxCost:   lim.MaxCost,
			Prices:    s.opt.Prices,
		})
	}
	s.tenants[name] = t
	return t
}

// reservation computes the worst-case per-class comparison counts a job
// could spend — the amount admission pre-charges. For a max-find it is the
// filter bound (Lemma 3) on the naïve side plus, per class, the costliest
// quality-ladder rung over the candidate-set bound (degrade.WorstCase, the
// same estimates the degrade controller holds against the budget). A topk
// job reserves k such rounds (memo reuse makes the actual spend far smaller;
// the refund covers the difference). A score job's naïve side is its vote
// count (one value query per element per vote) and its expert side 2-MaxFind
// over its min(2·un − 1, n) shortlist, the only expert work a score run does
// (its score-naive fallback only cuts that extraction short). Every rung
// spends within this envelope, so the refund at settlement is never
// negative.
func reservation(sp JobSpec) (naive, expert int64) {
	n, un := sp.size(), sp.Un
	naive, expert = degrade.WorstCase(core.CandidateSetBound(un))
	naive += int64(math.Ceil(core.Phase1UpperBound(n, un)))
	switch sp.Mode {
	case ModeTopK:
		naive *= int64(sp.K)
		expert *= int64(sp.K)
	case ModeScore:
		votes := int64(sp.Votes)
		if votes == 0 {
			votes = 3 // engine default
		}
		naive = int64(n) * votes
		expert = degrade.RungExpert2MaxFind.CostEstimate(min(core.CandidateSetBound(un), n))
	}
	return naive, expert
}

// Submit validates, admits, and starts one job. See SubmitIdempotent.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	j, _, err := s.SubmitIdempotent(spec)
	return j, err
}

// idemKey scopes an idempotency key to its tenant.
func idemKey(tenant, key string) string { return tenant + "\x00" + key }

// SubmitIdempotent validates, admits, and starts one job. The admission
// sequence is slot → tenant job cap → tenant budget reservation, each step
// rolled back if a later one refuses; on success the job is persisted as
// queued and its session starts on a pool goroutine. A spec carrying an
// IdempotencyKey already admitted for the tenant returns the existing job
// with reused=true — a retried POST (client timeout, proxy replay) never
// charges the budget twice. Errors: ErrBadRequest (invalid spec),
// ErrDraining (shutdown begun), *RejectError (capacity; retry later).
func (s *Server) SubmitIdempotent(spec JobSpec) (j *Job, reused bool, err error) {
	if err := spec.normalize(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if spec.Fault != "" && !s.opt.AllowFaults {
		return nil, false, fmt.Errorf("%w: fault injection is not enabled on this server", ErrBadRequest)
	}

	// The admit lock makes "reject new work after the drain flag flips"
	// atomic with the flip itself: Drain takes the same lock, so no
	// submission can be mid-admission when the base context is cancelled.
	s.admitMu.Lock()
	defer s.admitMu.Unlock()

	// Idempotent replay is checked before the drain gate: returning the job
	// a key already names is a read, and the retried client deserves its
	// answer even while the server winds down.
	if spec.IdempotencyKey != "" {
		if prev, ok := s.idem[idemKey(spec.Tenant, spec.IdempotencyKey)]; ok {
			if m := obs.Active(); m != nil {
				m.IdempotentReplay()
			}
			s.logf("job %s replayed for idempotency key %q (tenant %q)", prev.ID, spec.IdempotencyKey, spec.Tenant)
			return prev, true, nil
		}
	}
	if s.draining {
		return nil, false, ErrDraining
	}

	// Slot: the server-wide concurrent-session cap.
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, false, &RejectError{
			Reason:     fmt.Sprintf("server at max concurrent sessions (%d)", s.opt.MaxConcurrent),
			RetryAfter: s.opt.RetryAfter,
		}
	}

	// Tenant job-count cap.
	t := s.tenant(spec.Tenant)
	t.mu.Lock()
	if t.max > 0 && t.jobs+1 > t.max {
		t.mu.Unlock()
		<-s.slots
		return nil, false, &RejectError{
			Reason:     fmt.Sprintf("tenant %q at max concurrent jobs (%d)", spec.Tenant, t.max),
			RetryAfter: s.opt.RetryAfter,
		}
	}
	t.jobs++
	t.mu.Unlock()

	// Tenant budget: pre-charge the worst case, all-or-nothing.
	rn, re := reservation(spec)
	if err := t.budget.Spend(crowdmax.Naive, rn); err != nil {
		s.unadmit(t, 0, 0)
		return nil, false, &RejectError{
			Reason:     fmt.Sprintf("tenant %q budget: %v", spec.Tenant, err),
			RetryAfter: s.opt.RetryAfter,
		}
	}
	if err := t.budget.Spend(crowdmax.Expert, re); err != nil {
		s.unadmit(t, rn, 0)
		return nil, false, &RejectError{
			Reason:     fmt.Sprintf("tenant %q budget: %v", spec.Tenant, err),
			RetryAfter: s.opt.RetryAfter,
		}
	}

	j = &Job{
		ID:             s.nextID(),
		Spec:           spec,
		ReservedNaive:  rn,
		ReservedExpert: re,
		state:          StateQueued,
	}
	j.attachLog()
	j.touch()
	s.store.put(j)
	if err := s.store.persist(j); err != nil {
		s.unadmit(t, rn, re)
		return nil, false, err
	}
	if spec.IdempotencyKey != "" {
		s.idem[idemKey(spec.Tenant, spec.IdempotencyKey)] = j
	}
	scope := s.scope(j)
	scope.Event("job", obs.Fs("state", "queued"), obs.Fs("mode", spec.Mode),
		obs.Fs("tenant", spec.Tenant), obs.Fi("n", int64(spec.size())),
		obs.Fi("un", int64(spec.Un)), obs.Fi("reserved_naive", rn), obs.Fi("reserved_expert", re))
	s.wg.Add(1)
	go s.runJob(j, false)
	return j, false, nil
}

// unadmit rolls an admission back: slot, tenant job count, and any part of
// the budget reservation already charged.
func (s *Server) unadmit(t *tenant, rn, re int64) {
	t.budget.Refund(crowdmax.Naive, rn)
	t.budget.Refund(crowdmax.Expert, re)
	t.mu.Lock()
	t.jobs--
	t.mu.Unlock()
	<-s.slots
}

// nextID allocates the next job ID.
func (s *Server) nextID() string {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.seq++
	return fmt.Sprintf("j%08d", s.seq)
}

// scope returns the job's tracer scope: events written through it land in
// the job's streamable event log, in the obs JSONL wire format. A job whose
// log was dropped has no tracer; its scope is nil, which drops events.
func (s *Server) scope(j *Job) *obs.Scope {
	t := j.tracer()
	if t == nil {
		return nil
	}
	return t.Scope(j.ID, j.Spec.Seed)
}

// ckPath is the job's session-checkpoint file.
func (s *Server) ckPath(id string) string {
	return filepath.Join(s.opt.Dir, "ck", id+".ck")
}

// latencyWorker wraps a comparator with a fixed sleep per call, emulating a
// crowd round-trip. Answers are untouched, so determinism and resume
// invariants hold.
type latencyWorker struct {
	inner crowdmax.Comparator
	d     time.Duration
}

func (w *latencyWorker) Compare(a, b crowdmax.Item) crowdmax.Item {
	time.Sleep(w.d)
	return w.inner.Compare(a, b)
}

// uniformSet generates the job's uniform dataset from its derived stream.
func uniformSet(n int, r *crowdmax.Rand) *crowdmax.Set {
	return dataset.Uniform(n, 0, 1, r)
}

// session builds the job's Session from sessionConfig.
func (s *Server) session(j *Job, set *crowdmax.Set, scope *obs.Scope) (*crowdmax.Session, error) {
	cfg, err := s.sessionConfig(j, set, scope)
	if err != nil {
		return nil, err
	}
	return crowdmax.NewSession(cfg)
}

// sessionConfig is the job's session configuration: deterministic threshold
// workers with order-independent hash tie-breaking (the resume invariant),
// per-job checkpointing, graceful degradation, and progress hooks feeding
// the job's event stream.
func (s *Server) sessionConfig(j *Job, set *crowdmax.Set, scope *obs.Scope) (crowdmax.Config, error) {
	dn, err := set.DeltaForU(min(j.Spec.Un, set.Len()))
	if err != nil {
		return crowdmax.Config{}, err
	}
	de, err := set.DeltaForU(min(j.Spec.Ue, set.Len()))
	if err != nil {
		return crowdmax.Config{}, err
	}
	var naive crowdmax.Comparator = &crowdmax.ThresholdWorker{Delta: dn, Tie: crowdmax.HashTie{Seed: j.Spec.Seed}}
	var expert crowdmax.Comparator = &crowdmax.ThresholdWorker{Delta: de, Tie: crowdmax.HashTie{Seed: j.Spec.Seed + 1}}
	if s.opt.CmpLatency > 0 {
		naive = &latencyWorker{inner: naive, d: s.opt.CmpLatency}
		expert = &latencyWorker{inner: expert, d: s.opt.CmpLatency}
	}
	var valuer crowdmax.Valuer
	if j.Spec.Mode == ModeScore {
		// Cardinal votes from the same naive workforce: per-vote noise on
		// the order of the class's discernment threshold, deterministic per
		// (seed, element, vote) so parallel dispatch and checkpoint replay
		// reproduce identical votes.
		valuer = crowdmax.NoisyValuer{Sigma: dn, Seed: j.Spec.Seed + 2}
	}
	return crowdmax.Config{
		Naive:  naive,
		Expert: expert,
		Valuer: valuer,
		Un:     j.Spec.Un,
		Prices: s.opt.Prices,
		Rand:   crowdmax.NewRand(j.Spec.Seed),
		Checkpoint: crowdmax.CheckpointConfig{
			Path:       s.ckPath(j.ID),
			Every:      s.opt.CheckpointEvery,
			FS:         s.fsys,
			OnSnapshot: j.touch,
		},
		Degrade: &crowdmax.DegradeConfig{},
		OnPhase: func(phase string, survivors []crowdmax.Item) {
			j.touch()
			scope.Event("phase", obs.Fs("phase", phase), obs.Fi("survivors", int64(len(survivors))))
			if j.Spec.Fault == FaultPanic {
				// Injected on the session goroutine so the torture harness
				// exercises the same recovery path a real workload bug would.
				panic(fmt.Sprintf("injected fault: panic in job %s at phase %s", j.ID, phase))
			}
		},
		OnDecision: func(d crowdmax.DegradeDecision) {
			j.touch()
			scope.Event("degrade", obs.Fs("point", d.Point), obs.Fs("from", d.From),
				obs.Fs("to", d.To), obs.Fi("dir", int64(d.Direction())))
		},
	}, nil
}

// runJob executes one admitted job to a terminal or interrupted state. It
// owns the job's slot and waitgroup entry. A panicking workload — injected
// or real — is confined to its own job: the recover below settles it failed
// (full refund, since a panicked run produced no billable result) and the
// server keeps serving every other tenant.
func (s *Server) runJob(j *Job, resume bool) {
	defer s.wg.Done()
	defer func() { <-s.slots }()

	scope := s.scope(j)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if m := obs.Active(); m != nil {
			m.JobPanic()
		}
		stack := string(debug.Stack())
		scope.Event("panic", obs.Fs("value", fmt.Sprint(r)), obs.Fs("stack", stack))
		s.finishFailed(j, scope, crowdmax.Result{}, fmt.Errorf("panic: %v", r))
		s.logf("job %s panicked (isolated): %v\n%s", j.ID, r, stack)
	}()

	j.setState(StateRunning, "")
	s.persistJob(j)
	scope.Event("job", obs.Fs("state", "running"))

	set := buildSet(j.Spec)
	sess, err := s.session(j, set, scope)
	if err != nil {
		s.finishFailed(j, scope, crowdmax.Result{}, err)
		return
	}
	w, err := workloadOf(j.Spec)
	if err != nil {
		s.finishFailed(j, scope, crowdmax.Result{}, err)
		return
	}

	// The job's own deadline layers a timeout over the server context. The
	// degrade controller samples only whether it has passed (a passed
	// deadline blocks every paying rung); it has no latency model, so it
	// never sheds quality ahead of the deadline. An expiry that cuts the
	// run off settles as "expired" with the partial spend billed.
	ctx := s.baseCtx
	if d := j.Spec.DeadlineSeconds; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(d*float64(time.Second)))
		defer cancel()
	}

	var res crowdmax.Result
	ck := s.ckPath(j.ID)
	if resume {
		if _, statErr := s.fsys.Stat(ck); statErr == nil {
			// ResumeWorkload pins the snapshot to the job's recorded mode: a
			// swapped checkpoint file fails instead of silently running a
			// different workload under this job's ID.
			res, err = sess.ResumeWorkload(ctx, w, ck, set.Items())
		} else {
			// Drained before the first snapshot landed: run fresh.
			res, err = sess.Run(ctx, w, set.Items())
		}
	} else {
		res, err = sess.Run(ctx, w, set.Items())
	}

	switch {
	case err == nil:
		s.finishDone(j, scope, res)
	case errors.Is(err, context.DeadlineExceeded):
		// Checked before Canceled: a WithTimeout expiry reports both through
		// errors.Is, and the deadline is the cause here.
		s.finishExpired(j, scope, res)
	case errors.Is(err, context.Canceled):
		// Only a drain cancels the base context: the job stops at its last
		// durable checkpoint, keeps its reservation, and resumes on restart.
		j.setState(StateInterrupted, "")
		scope.Event("job", obs.Fs("state", "interrupted"))
		j.events.close()
		s.persistJob(j)
		s.logf("job %s interrupted (drain); checkpoint %s", j.ID, ck)
	default:
		s.finishFailed(j, scope, res, err)
	}
}

// workloadOf maps an admitted job spec onto its session workload.
func workloadOf(sp JobSpec) (crowdmax.Workload, error) {
	switch sp.Mode {
	case ModeMax:
		return crowdmax.MaxFind(), nil
	case ModeTopK:
		return crowdmax.TopKWorkload(sp.K), nil
	case ModeScore:
		return crowdmax.ScoreWorkload(crowdmax.ScoreConfig{Votes: sp.Votes}), nil
	default:
		return nil, fmt.Errorf("job has unknown mode %q", sp.Mode)
	}
}

// finishDone settles a completed job: validate the guarantee labels — the
// overall one and, for ranked results, every rank's own — record the
// result, refund the unspent reservation, release the tenant, persist.
func (s *Server) finishDone(j *Job, scope *obs.Scope, res crowdmax.Result) {
	if strongest, ok := crowdmax.StrongestGuaranteeFor(res.Rung); !ok {
		s.finishFailed(j, scope, res, fmt.Errorf("result names unknown rung %q", res.Rung))
		return
	} else if res.Guarantee.Strength() > strongest.Strength() {
		s.finishFailed(j, scope, res, fmt.Errorf("label %q is stronger than rung %q can deliver", res.Guarantee, res.Rung))
		return
	}
	var ranked []RankedEntry // nil when empty, matching the record round trip
	for i, rr := range res.Ranked {
		if strongest, ok := crowdmax.StrongestGuaranteeFor(rr.Rung); !ok {
			s.finishFailed(j, scope, res, fmt.Errorf("rank %d names unknown rung %q", i+1, rr.Rung))
			return
		} else if rr.Guarantee.Strength() > strongest.Strength() {
			s.finishFailed(j, scope, res, fmt.Errorf("rank %d label %q is stronger than rung %q can deliver", i+1, rr.Guarantee, rr.Rung))
			return
		}
		ranked = append(ranked, RankedEntry{
			ID:        rr.Item.ID,
			Label:     rr.Item.Label,
			Value:     rr.Item.Value,
			Rung:      rr.Rung,
			Guarantee: string(rr.Guarantee),
		})
	}
	j.setResult(StateDone, JobResult{
		Mode:              j.Spec.Mode,
		BestID:            res.Best.ID,
		BestLabel:         res.Best.Label,
		BestValue:         res.Best.Value,
		Candidates:        len(res.Candidates),
		Ranked:            ranked,
		NaiveComparisons:  res.NaiveComparisons,
		ExpertComparisons: res.ExpertComparisons,
		Cost:              res.Cost,
		Rung:              res.Rung,
		Guarantee:         string(res.Guarantee),
	})
	j.mu.Lock()
	j.result.Phase1Complete = res.Phase1Complete
	j.mu.Unlock()
	scope.Event("job", obs.Fs("state", "done"), obs.Fs("mode", j.Spec.Mode),
		obs.Fs("rung", res.Rung), obs.Fs("guarantee", string(res.Guarantee)),
		obs.Fi("ranks", int64(len(res.Ranked))),
		obs.Fi("naive", res.NaiveComparisons), obs.Fi("expert", res.ExpertComparisons))
	s.conclude(j, res)
}

// finishExpired settles a job whose own deadline cut the run off: the
// partial spend is billed (the comparisons were bought), the rest of the
// reservation refunded, and the job lands terminal as "expired".
func (s *Server) finishExpired(j *Job, scope *obs.Scope, res crowdmax.Result) {
	if m := obs.Active(); m != nil {
		m.JobExpiry()
	}
	j.setResult(StateExpired, JobResult{
		Mode:              j.Spec.Mode,
		BestID:            res.Best.ID,
		BestLabel:         res.Best.Label,
		BestValue:         res.Best.Value,
		Candidates:        len(res.Candidates),
		NaiveComparisons:  res.NaiveComparisons,
		ExpertComparisons: res.ExpertComparisons,
		Cost:              res.Cost,
		Rung:              res.Rung,
		Guarantee:         string(res.Guarantee),
		Phase1Complete:    res.Phase1Complete,
	})
	scope.Event("job", obs.Fs("state", "expired"),
		obs.Fi("naive", res.NaiveComparisons), obs.Fi("expert", res.ExpertComparisons))
	s.conclude(j, res)
	s.logf("job %s expired at its deadline (%.3fs)", j.ID, j.Spec.DeadlineSeconds)
}

// finishFailed settles a failed job.
func (s *Server) finishFailed(j *Job, scope *obs.Scope, res crowdmax.Result, err error) {
	j.setState(StateFailed, err.Error())
	scope.Event("job", obs.Fs("state", "failed"), obs.Fs("error", err.Error()))
	s.conclude(j, res)
	s.logf("job %s failed: %v", j.ID, err)
}

// settledWindow is how many of the most recently settled jobs keep their
// event log in memory. A client typically GETs a job's events right after
// submitting it; a job that settles first is then still served from
// memory, not from a record read (which crowdbench's memory filesystem
// does not even keep). Older terminal jobs are served from their records,
// so the logs held stay bounded whatever the throughput.
const settledWindow = 256

// conclude finishes a terminal job: close its event stream first
// (followers should not hang on a slow, possibly fault-retried disk), then
// settle the budget, persist the terminal record (event log included) and
// enter the job into the settled window.
func (s *Server) conclude(j *Job, res crowdmax.Result) {
	j.events.close()
	s.settle(j, res)
	s.persistJob(j)
	s.enterWindow(j)
}

// enterWindow adds a settled job to the window and drops the log of the
// job it displaces, whose terminal record was written before it entered.
// If that record is still parked dirty, landed drops the log instead.
func (s *Server) enterWindow(j *Job) {
	s.dirtyMu.Lock()
	old := s.window[s.next]
	s.window[s.next] = j
	s.next = (s.next + 1) % len(s.window)
	drop := old != nil && s.dirty[old.ID] == nil
	s.dirtyMu.Unlock()
	if drop {
		old.dropLog()
	}
}

// landed records that the job's latest record is on disk, so it is no
// longer parked dirty. A terminal job that was parked and has already left
// the settled window drops its log now: its record carries the history.
func (s *Server) landed(j *Job) {
	s.dirtyMu.Lock()
	_, parked := s.dirty[j.ID]
	delete(s.dirty, j.ID)
	drop := parked && j.State().terminal() && !slices.Contains(s.window, j)
	s.dirtyMu.Unlock()
	if drop {
		j.dropLog()
	}
}

// settle refunds the unspent part of the job's reservation (clamped at the
// actual spend, so a reservation can never be refunded past what was
// charged) and releases the tenant's job count. Settlement is exactly-once:
// a panic that unwinds through a finish path which already settled must not
// refund (or decrement the tenant) a second time.
func (s *Server) settle(j *Job, res crowdmax.Result) {
	if !j.settled.CompareAndSwap(false, true) {
		return
	}
	t := s.tenant(j.Spec.Tenant)
	if dn := j.ReservedNaive - res.NaiveComparisons; dn > 0 {
		t.budget.Refund(crowdmax.Naive, dn)
	}
	if de := j.ReservedExpert - res.ExpertComparisons; de > 0 {
		t.budget.Refund(crowdmax.Expert, de)
	}
	t.mu.Lock()
	t.jobs--
	t.mu.Unlock()
}

// persistJob persists the job record through a bounded seeded-jitter retry
// (the same backoff discipline the dispatch layer retries comparisons
// with). A record that still cannot be written is parked dirty — the
// in-memory state stays authoritative for clients, the next transition or
// the drain-time flush retries — rather than silently dropped.
func (s *Server) persistJob(j *Job) {
	h := fnv.New64a()
	h.Write([]byte(j.ID))
	bo := dispatch.NewBackoff(dispatch.RetryConfig{
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		Seed:        h.Sum64(),
	})
	var err error
	for attempt := 0; attempt < s.opt.PersistAttempts; attempt++ {
		if attempt > 0 {
			if m := obs.Active(); m != nil {
				m.PersistRetry()
			}
			time.Sleep(bo.Next())
		}
		if err = s.store.persist(j); err == nil {
			s.landed(j)
			return
		}
	}
	if m := obs.Active(); m != nil {
		m.PersistDeferred()
	}
	s.dirtyMu.Lock()
	s.dirty[j.ID] = j
	s.dirtyMu.Unlock()
	s.logf("persist of job %s deferred after %d attempts: %v", j.ID, s.opt.PersistAttempts, err)
}

// dirtyCount reports how many records are parked awaiting a rewrite.
func (s *Server) dirtyCount() int {
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	return len(s.dirty)
}

// flushDirty retries every parked record once; called at drain, after all
// sessions have stopped mutating their jobs.
func (s *Server) flushDirty() {
	s.dirtyMu.Lock()
	pending := make([]*Job, 0, len(s.dirty))
	for _, j := range s.dirty {
		pending = append(pending, j)
	}
	s.dirtyMu.Unlock()
	for _, j := range pending {
		if err := s.store.persist(j); err != nil {
			s.logf("drain flush: job %s record still unwritable: %v", j.ID, err)
			continue
		}
		s.landed(j)
	}
}

// watchdog periodically flags running jobs that show no observable forward
// progress for Options.WatchdogAfter: no state change, phase, degrade
// decision, or checkpoint write. A stall is observability, not enforcement
// — the job keeps its slot (killing it could strand a checkpoint mid-write)
// but the flag surfaces in /healthz, the job view, and the metrics, where
// an operator or the torture harness can see it.
func (s *Server) watchdog() {
	interval := s.opt.WatchdogAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.opt.WatchdogAfter).UnixNano()
		for _, j := range s.store.all() {
			if j.State() != StateRunning {
				continue
			}
			last := j.progress.Load()
			if last == 0 || last >= cutoff {
				continue
			}
			if j.stalled.CompareAndSwap(false, true) {
				if m := obs.Active(); m != nil {
					m.JobStall()
				}
				s.scope(j).Event("stall", obs.Fi("idle_ms", (time.Now().UnixNano()-last)/int64(time.Millisecond)))
				s.logf("watchdog: job %s has made no progress for %s", j.ID, s.opt.WatchdogAfter)
			}
		}
	}
}

// recover rebuilds tenant state from the loaded records and schedules every
// non-terminal job for resume. Terminal jobs re-charge their actual spend
// to the tenant budget; non-terminal jobs re-charge their full reservation
// (Preload — restoring admitted spend cannot be refused) and re-enter the
// run pool behind a blocking slot acquire.
func (s *Server) recover() error {
	jobs, err := s.store.load(s.logf)
	if err != nil {
		return err
	}
	s.sweepCheckpoints(jobs)
	// Quarantined records still pin the ID sequence: a fresh job must never
	// reuse the identity of a record that was only moved aside, or a later
	// un-quarantine would collide two different jobs under one ID.
	if q, _, _ := s.store.health(); len(q) > 0 {
		for _, rec := range q {
			id, _, _ := strings.Cut(rec.Name, ".")
			if n, perr := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); perr == nil && n > s.seq {
				s.seq = n
			}
		}
	}
	for _, j := range jobs {
		if n, perr := strconv.ParseInt(strings.TrimPrefix(j.ID, "j"), 10, 64); perr == nil && n > s.seq {
			s.seq = n
		}
		if k := j.Spec.IdempotencyKey; k != "" {
			// Terminal jobs included: a client retrying its POST after the
			// restart must still get its original job back, not a re-charge.
			s.idem[idemKey(j.Spec.Tenant, k)] = j
		}
		t := s.tenant(j.Spec.Tenant)
		if j.State().terminal() {
			// A settled job must never settle again on some later path. Its
			// history is served from the record it was loaded from.
			j.settled.Store(true)
			j.dropLog()
			if r, ok := j.Result(); ok {
				t.budget.Preload(crowdmax.Naive, r.NaiveComparisons)
				t.budget.Preload(crowdmax.Expert, r.ExpertComparisons)
			}
			continue
		}
		t.budget.Preload(crowdmax.Naive, j.ReservedNaive)
		t.budget.Preload(crowdmax.Expert, j.ReservedExpert)
		t.mu.Lock()
		t.jobs++
		t.mu.Unlock()
		j.setState(StateInterrupted, "")
		// Non-fatal: a record that cannot be rewritten right now must not
		// keep the whole server from booting; the next transition retries.
		s.persistJob(j)
		s.logf("job %s recovered; resuming", j.ID)
		s.wg.Add(1)
		go func(j *Job) {
			select {
			case s.slots <- struct{}{}:
			case <-s.baseCtx.Done():
				// Drained again before a slot freed: stay interrupted.
				s.wg.Done()
				return
			}
			s.runJob(j, true)
		}(j)
	}
	return nil
}

// sweepCheckpoints clears the checkpoint directory at boot, before any job
// resumes: temp files a crash stranded mid-write, and the segments of jobs
// already settled, which no run will extend. A job that resumes keeps its
// segments (its first snapshot removes them), and files of jobs with no
// record are left alone.
func (s *Server) sweepCheckpoints(jobs []*Job) {
	dir := filepath.Join(s.opt.Dir, "ck")
	entries, err := s.fsys.ReadDir(dir)
	if err != nil {
		s.logf("service: could not list %s: %v", dir, err)
		return
	}
	settled := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		settled[j.ID] = j.State().terminal()
	}
	swept, segments := 0, 0
	for _, e := range entries {
		name := e.Name()
		id, _, segment := strings.Cut(name, ".ck-")
		tmp := strings.Contains(name, ".tmp-")
		if !tmp && !(segment && settled[id]) {
			continue
		}
		if err := s.fsys.Remove(filepath.Join(dir, name)); err != nil {
			s.logf("service: could not sweep %s: %v", name, err)
			continue
		}
		if tmp {
			swept++
		} else {
			segments++
		}
	}
	s.store.noteSwept(swept)
	if swept+segments > 0 {
		s.logf("service: swept %d orphaned temp file(s) and %d segment(s) of settled jobs from %s", swept, segments, dir)
	}
}

// Job returns the job by ID, or nil.
func (s *Server) Job(id string) *Job { return s.store.get(id) }

// Jobs returns every job, sorted by ID.
func (s *Server) Jobs() []*Job { return s.store.all() }

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: admissions stop (Submit returns
// ErrDraining), every running session is cancelled — each stops at its last
// durable checkpoint and is persisted as interrupted — and Drain returns
// once all jobs have settled, or with ctx's error if they do not settle in
// time. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Sessions have stopped mutating their jobs: last chance to land any
		// record whose writes kept failing mid-run.
		s.flushDirty()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain did not settle in time: %w", ctx.Err())
	}
}

// Health is the server's damage report: what the store quarantined or swept
// at boot, how many records are parked dirty, and how many running jobs the
// watchdog currently flags.
type Health struct {
	Quarantined []QuarantinedRecord
	Unmovable   int
	SweptTmp    int
	Dirty       int
	Stalled     int
}

// Degraded reports whether the server is serving with known damage.
func (h Health) Degraded() bool {
	return len(h.Quarantined) > 0 || h.Unmovable > 0 || h.Dirty > 0
}

// Health snapshots the server's damage report.
func (s *Server) Health() Health {
	q, unmovable, swept := s.store.health()
	stalled := 0
	for _, j := range s.store.all() {
		if j.Stalled() {
			stalled++
		}
	}
	return Health{
		Quarantined: q,
		Unmovable:   unmovable,
		SweptTmp:    swept,
		Dirty:       s.dirtyCount(),
		Stalled:     stalled,
	}
}

// TenantUsage is one tenant's budget position for the audit endpoint.
type TenantUsage struct {
	Tenant     string   `json:"tenant"`
	Jobs       int      `json:"jobs"`
	SpentNaive *int64   `json:"spent_naive,omitempty"`
	SpentExp   *int64   `json:"spent_expert,omitempty"`
	SpentCost  *float64 `json:"spent_cost,omitempty"`
}

// TenantUsages reports every known tenant's live job count and cumulative
// budget spend (nil spends for unlimited tenants, which carry no budget).
// This is what lets an external auditor reconcile the books: after every
// job is terminal, a tenant's spend must equal the sum of its jobs'
// recorded comparisons.
func (s *Server) TenantUsages() []TenantUsage {
	s.tmu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.tmu.Unlock()
	sort.Strings(names)
	out := make([]TenantUsage, 0, len(names))
	for _, name := range names {
		t := s.tenant(name)
		t.mu.Lock()
		u := TenantUsage{Tenant: name, Jobs: t.jobs}
		t.mu.Unlock()
		if t.budget != nil {
			n := t.budget.Spent(crowdmax.Naive)
			e := t.budget.Spent(crowdmax.Expert)
			c := t.budget.SpentCost()
			u.SpentNaive, u.SpentExp, u.SpentCost = &n, &e, &c
		}
		out = append(out, u)
	}
	return out
}
