// Package service turns the single-run crowdmax Session into a long-running
// multi-tenant max-finding service: an HTTP API over a pool of concurrent
// sessions, per-tenant admission control on worst-case budget reservations,
// durable job records in the checkpoint container format, and graceful
// drain that checkpoints in-flight jobs so a restart completes them with
// bit-identical answers and costs.
//
// # Admission as reservation
//
// The paper's closed-form bounds make admission control exact rather than
// heuristic: a job over n items with filter parameter un can never spend
// more than Phase1UpperBound(n, un) naïve comparisons plus the worst rung
// of the quality ladder in each class. Submit pre-charges that worst case
// against the tenant's budget — all-or-nothing, exactly like the in-run
// dispatch.Budget — and the difference between the reservation and the
// run's actual spend is refunded on completion. A submission the budget
// cannot cover is rejected up front with 429 + Retry-After, before a single
// comparison is bought.
//
// # Drain and recovery
//
// SIGTERM (Server.Drain) stops admissions, cancels every running session —
// cancellation is fatal even under the degrade controller, so each job
// stops at its last durable checkpoint — marks the jobs interrupted, and
// returns once every record is persisted. A new server over the same state
// directory reloads the records, rebuilds tenant budgets from them, and
// re-runs interrupted jobs through Session.Resume: memo replay makes the
// recovered results bit-identical to an uninterrupted run.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crowdmax"
	"crowdmax/internal/checkpoint"
	"crowdmax/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted (slot and budget reservation held) but the
	// session has not started yet.
	StateQueued State = "queued"
	// StateRunning: the session is executing.
	StateRunning State = "running"
	// StateInterrupted: a drain stopped the session mid-run; the job keeps
	// its budget reservation and resumes from its checkpoint on restart.
	StateInterrupted State = "interrupted"
	// StateDone: the session completed; Result is set.
	StateDone State = "done"
	// StateFailed: the session returned a non-recoverable error; Err is set.
	StateFailed State = "failed"
	// StateExpired: the job's own deadline elapsed mid-run; the partial
	// result (whatever the degrade ladder could certify in the time it had)
	// is recorded and the unspent reservation refunded.
	StateExpired State = "expired"
)

// terminal reports whether the state is an endpoint of the lifecycle.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// ItemSpec is one explicit input element of a job.
type ItemSpec struct {
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

// JobSpec is the client-supplied description of one max-finding job. An
// instance is either generated (N > 0: a uniform dataset of N values derived
// from Seed, so the submission stays small and the restart can regenerate it
// verbatim) or explicit (Items). Both forms are persisted in the job record;
// together with Seed they make every job re-runnable bit-identically.
type JobSpec struct {
	// Tenant names the budget the job is billed to; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Mode selects the workload: "max" (default), "topk", or "score".
	Mode string `json:"mode,omitempty"`
	// K is the number of ranks a topk job extracts; required (≥ 1) for mode
	// "topk", invalid otherwise.
	K int `json:"k,omitempty"`
	// Votes is the per-element vote count of a score job; 0 uses the
	// engine default (3). Invalid outside mode "score".
	Votes int `json:"votes,omitempty"`
	// N requests a generated uniform instance of this size (ignored when
	// Items is set).
	N int `json:"n,omitempty"`
	// Items is the explicit instance; overrides N.
	Items []ItemSpec `json:"items,omitempty"`
	// Seed is the job's root random seed: it derives the generated dataset,
	// the worker tie-breaking, and the phase-2 randomness.
	Seed uint64 `json:"seed"`
	// Un is the filter parameter un(n) (required, ≥ 1).
	Un int `json:"un"`
	// Ue is the expert-class analogue used to derive the simulated expert's
	// threshold; defaults to max(1, Un/2).
	Ue int `json:"ue,omitempty"`
	// DeadlineSeconds bounds the job's wall-clock runtime; past it the run
	// is cut off and settles as "expired" with whatever partial answer the
	// degrade ladder certified. 0 means no per-job deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// IdempotencyKey deduplicates retried submissions: a second POST with
	// the same (tenant, key) returns the job already admitted under it
	// instead of charging the budget again. Also settable via the
	// Idempotency-Key header.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Fault injects a failure into the job's own run for torture testing —
	// only honored when the server opts in (Options.AllowFaults). "panic"
	// panics the session goroutine mid-phase.
	Fault string `json:"fault,omitempty"`
}

// FaultPanic is the only recognized JobSpec.Fault value.
const FaultPanic = "panic"

// The service's job modes, mapped one-to-one onto session workloads.
const (
	ModeMax   = "max"
	ModeTopK  = "topk"
	ModeScore = "score"
)

// maxInstance bounds the accepted instance size; a service should not let
// one request allocate arbitrarily.
const maxInstance = 1 << 20

// normalize validates the spec and fills defaults in place.
func (sp *JobSpec) normalize() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if len(sp.Items) > 0 {
		sp.N = 0
	}
	n := sp.N + len(sp.Items)
	if n < 2 {
		return errors.New("instance needs at least 2 items (set n or items)")
	}
	if n > maxInstance {
		return fmt.Errorf("instance size %d exceeds the cap %d", n, maxInstance)
	}
	if sp.Un < 1 {
		return errors.New("un must be ≥ 1")
	}
	if sp.Ue < 0 {
		return errors.New("ue must be ≥ 0")
	}
	if sp.Ue == 0 {
		sp.Ue = max(1, sp.Un/2)
	}
	if sp.Mode == "" {
		sp.Mode = ModeMax
	}
	switch sp.Mode {
	case ModeMax, ModeScore:
		if sp.K != 0 {
			return fmt.Errorf("k is only valid for mode %q", ModeTopK)
		}
	case ModeTopK:
		if sp.K < 1 || sp.K > n {
			return fmt.Errorf("mode %q requires 1 ≤ k ≤ n, got k=%d n=%d", ModeTopK, sp.K, n)
		}
	default:
		return fmt.Errorf("unknown mode %q (want %q, %q or %q)", sp.Mode, ModeMax, ModeTopK, ModeScore)
	}
	if sp.Mode != ModeScore && sp.Votes != 0 {
		return fmt.Errorf("votes is only valid for mode %q", ModeScore)
	}
	if sp.Votes < 0 {
		return errors.New("votes must be ≥ 0")
	}
	if sp.DeadlineSeconds < 0 {
		return errors.New("deadline_seconds must be ≥ 0")
	}
	switch sp.Fault {
	case "", FaultPanic:
	default:
		return fmt.Errorf("unknown fault %q (want %q)", sp.Fault, FaultPanic)
	}
	return nil
}

// size returns the instance size.
func (sp *JobSpec) size() int {
	if len(sp.Items) > 0 {
		return len(sp.Items)
	}
	return sp.N
}

// RankedEntry is one rank of a topk job's result, with its own honesty
// label: each rank reports the rung that produced it and the guarantee that
// rung can vouch for.
type RankedEntry struct {
	ID        int     `json:"id"`
	Label     string  `json:"label,omitempty"`
	Value     float64 `json:"value"`
	Rung      string  `json:"rung"`
	Guarantee string  `json:"guarantee"`
}

// JobResult is the outcome of a completed job — the subset of
// crowdmax.Result the API reports and the record persists.
type JobResult struct {
	Mode              string        `json:"mode"`
	BestID            int           `json:"best_id"`
	BestLabel         string        `json:"best_label,omitempty"`
	BestValue         float64       `json:"best_value"`
	Candidates        int           `json:"candidates"`
	Ranked            []RankedEntry `json:"ranked,omitempty"`
	NaiveComparisons  int64         `json:"naive_comparisons"`
	ExpertComparisons int64         `json:"expert_comparisons"`
	Cost              float64       `json:"cost"`
	Rung              string        `json:"rung"`
	Guarantee         string        `json:"guarantee"`
	Phase1Complete    bool          `json:"phase1_complete"`
}

// Job is one submitted max-finding run. Mutable fields (state, result,
// error) are guarded by mu; the spec, ID, and reservation are immutable
// after admission.
type Job struct {
	// ID is the server-assigned job identifier.
	ID string
	// Spec is the admitted (normalized) submission.
	Spec JobSpec
	// ReservedNaive and ReservedExpert are the worst-case comparison counts
	// pre-charged to the tenant budget at admission; the unspent part is
	// refunded when the job reaches a terminal state.
	ReservedNaive, ReservedExpert int64

	mu     sync.Mutex
	state  State
	errMsg string
	result *JobResult

	// progress is the unix-nano timestamp of the job's last observable
	// forward motion (state transition, phase event, decision, checkpoint
	// write); the watchdog compares it against the stall threshold. stalled
	// latches the watchdog's verdict so each episode is flagged once.
	// settled guards the budget settlement: refunds must happen exactly once
	// even if a panic unwinds through a path that already settled.
	progress atomic.Int64
	stalled  atomic.Bool
	settled  atomic.Bool

	// events buffers the job's JSONL trace for streaming readers; trace is
	// the tracer writing into it (one per job, so event sequence numbers
	// run continuously across the job's lifecycle). Both are dropped once
	// the job has left the server's settled window and its terminal record,
	// which carries the log, has landed; the history is read back from the
	// record after that. Both are cleared only under mu, and other
	// goroutines read them through log and tracer.
	events *eventLog
	trace  *obs.Tracer
}

// touch stamps the job's forward-progress clock and clears any stall flag.
func (j *Job) touch() {
	j.progress.Store(time.Now().UnixNano())
	j.stalled.Store(false)
}

// Stalled reports whether the watchdog currently flags the job.
func (j *Job) Stalled() bool { return j.stalled.Load() }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns a copy of the job's result and true when it completed.
func (j *Job) Result() (JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return JobResult{}, false
	}
	return *j.result, true
}

// Err returns the failure message of a failed job ("" otherwise).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// setState transitions the job's state (and error message, for
// StateFailed) under the job lock.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.errMsg = errMsg
	j.mu.Unlock()
	j.touch()
}

// setResult records a completed run's outcome under state s (StateDone, or
// StateExpired for a deadline-cut partial answer).
func (j *Job) setResult(s State, r JobResult) {
	j.mu.Lock()
	j.state = s
	j.result = &r
	j.mu.Unlock()
	j.touch()
}

// attachLog gives the job a fresh event log and its tracer. A terminal
// job's history survives restarts in its record; an interrupted job's
// stream starts over with its recovery events.
func (j *Job) attachLog() {
	j.events = newEventLog()
	j.trace = obs.NewTracer(j.events)
}

// log returns the job's in-memory event log, or nil once it was dropped
// (the history then lives only in the job's record).
func (j *Job) log() *eventLog {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// tracer returns the job's tracer, or nil once its log was dropped.
func (j *Job) tracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// dropLog drops the in-memory event log and tracer of a terminal job whose
// record — which carries the same log — has landed.
func (j *Job) dropLog() {
	j.mu.Lock()
	j.events, j.trace = nil, nil
	j.mu.Unlock()
}

// Job records are framed in the checkpoint container format under their own
// magic, so a bit-flipped or truncated record fails closed (ErrCorrupt)
// exactly like a session snapshot instead of resurrecting a corrupt job.
const (
	recordMagic = "CMJR"
	// recordVersion 4 appends a terminal job's event log (empty for other
	// states). Version 3 appended the robustness fields (idempotency key,
	// deadline, fault tag). Version 2 appended the workload-mode fields
	// (spec mode/k/votes, result mode + per-rank entries); version-1
	// records from pre-workload servers load as mode "max".
	recordVersion          = 4
	recordVersionPreLog    = 3
	recordVersionPreRobust = 2
	recordVersionPreModes  = 1
)

// encodeRecord renders the job's durable fields in the record format.
// Callers must not hold j.mu. A terminal job's record carries its event
// log, so it is never rewritten after the log is dropped.
func encodeRecord(j *Job) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	var b checkpoint.Builder
	b.Str(j.ID)
	b.Str(j.Spec.Tenant)
	b.I64(int64(j.Spec.N))
	b.U64(j.Spec.Seed)
	b.I64(int64(j.Spec.Un))
	b.I64(int64(j.Spec.Ue))
	b.I64(int64(len(j.Spec.Items)))
	for _, it := range j.Spec.Items {
		b.Str(it.Label)
		b.F64(it.Value)
	}
	b.I64(j.ReservedNaive)
	b.I64(j.ReservedExpert)
	b.Str(string(j.state))
	b.Str(j.errMsg)
	b.Bool(j.result != nil)
	if r := j.result; r != nil {
		b.I64(int64(r.BestID))
		b.Str(r.BestLabel)
		b.F64(r.BestValue)
		b.I64(int64(r.Candidates))
		b.I64(r.NaiveComparisons)
		b.I64(r.ExpertComparisons)
		b.F64(r.Cost)
		b.Str(r.Rung)
		b.Str(r.Guarantee)
		b.Bool(r.Phase1Complete)
	}
	// Version-2 appendix: the workload-mode fields.
	b.Str(j.Spec.Mode)
	b.I64(int64(j.Spec.K))
	b.I64(int64(j.Spec.Votes))
	if r := j.result; r != nil {
		b.Str(r.Mode)
		b.I64(int64(len(r.Ranked)))
		for _, e := range r.Ranked {
			b.I64(int64(e.ID))
			b.Str(e.Label)
			b.F64(e.Value)
			b.Str(e.Rung)
			b.Str(e.Guarantee)
		}
	}
	// Version-3 appendix: the robustness fields.
	b.Str(j.Spec.IdempotencyKey)
	b.F64(j.Spec.DeadlineSeconds)
	b.Str(j.Spec.Fault)
	// Version-4 appendix: the terminal job's event log.
	var log []byte
	if j.state.terminal() && j.events != nil {
		log, _, _ = j.events.since(0)
	}
	b.Blob(log)
	return checkpoint.SealEnvelope(recordMagic, recordVersion, b.Bytes())
}

// decodeRecord parses a job record, failing closed on any inconsistency.
// Version-1 records (pre-workload servers) decode as mode "max". A terminal
// job comes back with its recorded event log, complete and without a
// tracer (empty for records older than version 4); any other job gets a
// fresh log.
func decodeRecord(data []byte) (*Job, error) {
	body, ver, err := checkpoint.OpenEnvelopeAny(recordMagic, data)
	if err != nil {
		return nil, err
	}
	if ver < recordVersionPreModes || ver > recordVersion {
		return nil, fmt.Errorf("%w: unsupported job record version %d", checkpoint.ErrCorrupt, ver)
	}
	r := checkpoint.NewReader(body)
	j := &Job{}
	j.ID = r.Str()
	j.Spec.Tenant = r.Str()
	j.Spec.N = int(r.I64())
	j.Spec.Seed = r.U64()
	j.Spec.Un = int(r.I64())
	j.Spec.Ue = int(r.I64())
	if n := r.Count(9); n > 0 { // ≥ 8-byte value + 1-byte length per item
		j.Spec.Items = make([]ItemSpec, n)
		for i := range j.Spec.Items {
			j.Spec.Items[i] = ItemSpec{Label: r.Str(), Value: r.F64()}
		}
	}
	j.ReservedNaive = r.I64()
	j.ReservedExpert = r.I64()
	j.state = State(r.Str())
	j.errMsg = r.Str()
	if r.Bool() {
		res := &JobResult{}
		res.BestID = int(r.I64())
		res.BestLabel = r.Str()
		res.BestValue = r.F64()
		res.Candidates = int(r.I64())
		res.NaiveComparisons = r.I64()
		res.ExpertComparisons = r.I64()
		res.Cost = r.F64()
		res.Rung = r.Str()
		res.Guarantee = r.Str()
		res.Phase1Complete = r.Bool()
		j.result = res
	}
	if ver >= recordVersionPreRobust {
		j.Spec.Mode = r.Str()
		j.Spec.K = int(r.I64())
		j.Spec.Votes = int(r.I64())
		if j.result != nil {
			j.result.Mode = r.Str()
			if n := r.Count(40); n > 0 { // two numbers + three string length prefixes per entry
				j.result.Ranked = make([]RankedEntry, n)
				for i := range j.result.Ranked {
					j.result.Ranked[i] = RankedEntry{
						ID:        int(r.I64()),
						Label:     r.Str(),
						Value:     r.F64(),
						Rung:      r.Str(),
						Guarantee: r.Str(),
					}
				}
			}
		}
	}
	if ver >= recordVersionPreLog {
		j.Spec.IdempotencyKey = r.Str()
		j.Spec.DeadlineSeconds = r.F64()
		j.Spec.Fault = r.Str()
	}
	var log []byte
	if ver >= recordVersion {
		log = r.Blob()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	switch {
	case j.state.terminal():
		j.events = closedLog(log)
	case log != nil:
		return nil, fmt.Errorf("%w: %s record carries an event log", checkpoint.ErrCorrupt, j.state)
	default:
		j.attachLog()
	}
	if j.Spec.Mode == "" {
		// Pre-workload record: every job was a max-find.
		j.Spec.Mode = ModeMax
		if j.result != nil {
			j.result.Mode = ModeMax
		}
	}
	switch j.state {
	case StateQueued, StateRunning, StateInterrupted, StateDone, StateFailed, StateExpired:
	default:
		return nil, fmt.Errorf("%w: record names unknown state %q", checkpoint.ErrCorrupt, j.state)
	}
	switch j.Spec.Mode {
	case ModeMax, ModeTopK, ModeScore:
	default:
		return nil, fmt.Errorf("%w: record names unknown mode %q", checkpoint.ErrCorrupt, j.Spec.Mode)
	}
	return j, nil
}

// buildSet materializes the job's problem instance: the explicit items, or
// the uniform dataset its seed derives. Both are pure functions of the
// persisted spec, which is what lets a restarted server regenerate the
// exact instance a checkpoint fingerprints (Resume verifies the items
// hash).
func buildSet(sp JobSpec) *crowdmax.Set {
	if len(sp.Items) > 0 {
		items := make([]crowdmax.Item, len(sp.Items))
		for i, it := range sp.Items {
			items[i] = crowdmax.Item{ID: i, Label: it.Label, Value: it.Value}
		}
		return crowdmax.NewSetItems(items)
	}
	return uniformSet(sp.N, crowdmax.NewRand(sp.Seed).Child("data"))
}
