package crowdmax

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"crowdmax/internal/chaos"
	"crowdmax/internal/checkpoint"
	"crowdmax/internal/cost"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/faults"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
	"crowdmax/internal/trust"
)

// StorageFS is the injectable filesystem durable artifacts are written
// through; see internal/faults. Nil means the real filesystem.
type StorageFS = faults.FS

// CheckpointConfig enables crash recovery for Session runs.
type CheckpointConfig struct {
	// Path is the snapshot file; empty disables checkpointing. Run-start
	// and phase-boundary snapshots rewrite it whole (a base); the interval
	// snapshots between them write only the answers paid since the
	// previous snapshot, as segments beside it at Path-1, Path-2, …, until
	// the segments outgrow the base and the next snapshot is a base again.
	// Every file is written atomically (temp file + rename), each base
	// removes the segments it covers, and ResumeWorkload reads the base
	// plus its segments; see internal/checkpoint.
	Path string
	// Every also snapshots after every N paid backend comparisons, in
	// addition to the run-start and phase-boundary snapshots; defaults
	// to 500. Memo hits are free and do not advance the counter.
	Every int
	// FS routes snapshot reads and writes through an injectable
	// filesystem so durability is testable under injected disk faults;
	// nil uses the real filesystem.
	FS StorageFS
	// OnSnapshot, when non-nil, is called after every successfully
	// written snapshot. It runs on the snapshotting goroutine under the
	// writer's lock, so it must be fast and must not block — it exists
	// for progress stamps (the service watchdog), not for work.
	OnSnapshot func()
}

// ChaosPlan declares the semantic faults to inject into a Session run:
// an adversarial persona poisoning the naïve backend and/or a deterministic
// crash after a fixed number of comparisons. Parse one from the -chaos flag
// syntax with ParseChaosPlan.
type ChaosPlan = chaos.Plan

// ParseChaosPlan parses a comma-separated chaos spec such as "crash:500",
// "spammer:0.2" or "colluder:7,crash:1000"; see chaos.ParsePlan.
func ParseChaosPlan(spec string) (ChaosPlan, error) { return chaos.ParsePlan(spec) }

// ErrInjectedCrash marks a run killed by the chaos crash injector. It wraps
// ErrPermanentBackend, so retry decorators never retry it; resume the run
// from its checkpoint with Session.ResumeWorkload.
var ErrInjectedCrash = chaos.ErrCrash

// ErrPermanentBackend marks backend failures that retrying cannot repair;
// RetryBackend gives up on them immediately.
var ErrPermanentBackend = dispatch.ErrPermanent

// RetryError is the terminal failure of a retry backend: it carries the
// attempt count and (via errors.Unwrap) the final underlying error.
type RetryError = dispatch.RetryError

// HealthConfig configures worker health tracking: gold-set probing,
// disagreement sampling, the quarantine circuit breaker, and hedging.
type HealthConfig = dispatch.HealthConfig

// ScorerMode selects the detector feeding a WorkerPool's quarantine
// breaker: ScorerGold (gold probes + disagreement rate, the zero value),
// ScorerGraph (gold-free agreement-graph extraction), or ScorerHybrid
// (both).
type ScorerMode = dispatch.ScorerMode

// The scorer modes HealthConfig.Scorer accepts.
const (
	ScorerGold   = dispatch.ScorerGold
	ScorerGraph  = dispatch.ScorerGraph
	ScorerHybrid = dispatch.ScorerHybrid
)

// TrustConfig parameterizes the agreement-graph extractor behind
// ScorerGraph and ScorerHybrid (HealthConfig.Trust).
type TrustConfig = trust.Config

// TrustExtraction is one dense-core extraction from the worker agreement
// graph: the expert core, everyone's agreement scores, and the confidence
// the breaker demands before acting on graph verdicts. Read the latest one
// from WorkerPool.TrustExtraction.
type TrustExtraction = trust.Extraction

// GoldPair is one probe comparison with a known correct answer.
type GoldPair = dispatch.GoldPair

// GoldFromTraining builds gold probes from a training set with known
// maximum, Algorithm-4 style; see dispatch.GoldFromTraining.
func GoldFromTraining(training []Item, minGap float64, max int) []GoldPair {
	return dispatch.GoldFromTraining(training, minGap, max)
}

// WorkerPool multiplexes comparisons across named worker backends and,
// with HealthConfig enabled, quarantines workers below the reliability
// floor.
type WorkerPool = dispatch.Pool

// PoolWorker is one named worker backend in a WorkerPool.
type PoolWorker = dispatch.PoolWorker

// NewWorkerPool builds a pool over workers with seeded routing.
func NewWorkerPool(workers []PoolWorker, seed uint64) (*WorkerPool, error) {
	return dispatch.NewPool(workers, seed)
}

// ResumeWorkload continues a run of workload w truncated by a crash (or
// any permanent failure) from the snapshot at path. The snapshot must have
// been written by a run of the same workload (kind, and k or votes) under
// the same configuration fingerprint — seed and un — applied to the same
// items; anything else is refused rather than silently run. The snapshot's
// memo tables are replayed, so already-paid comparisons are served free at
// their recorded cost, and with deterministic comparators (ε = 0 and an
// order-independent tie policy such as HashTie) the resumed run returns
// answers, paid totals, and candidate sets bit-identical to an
// uninterrupted run with the same seed.
func (s *Session) ResumeWorkload(ctx context.Context, w Workload, path string, items []Item) (Result, error) {
	if w == nil {
		return Result{}, errors.New("crowdmax: nil workload")
	}
	st, err := checkpoint.LoadFS(s.cfg.Checkpoint.FS, path)
	if err != nil {
		return Result{}, err
	}
	if st.Kind != w.Kind() {
		return Result{}, fmt.Errorf("crowdmax: checkpoint belongs to workload %q, cannot resume it as %q", st.Kind, w.Kind())
	}
	if err := s.checkpointCompatible(st, items); err != nil {
		return Result{}, err
	}
	return s.run(ctx, w, items, st)
}

// checkpointCompatible refuses snapshots whose configuration fingerprint
// does not match this session and input — resuming under a different
// configuration would silently produce answers neither run would have.
func (s *Session) checkpointCompatible(st *checkpoint.State, items []Item) error {
	if s.cfg.DisableMemoization {
		return errors.New("crowdmax: ResumeWorkload requires memoization (resume replays the checkpoint's memo tables)")
	}
	seed := uint64(0)
	if s.cfg.Rand != nil {
		seed = s.cfg.Rand.Seed()
	}
	switch {
	case st.Un != s.cfg.Un:
		return fmt.Errorf("crowdmax: checkpoint was taken with un=%d, session has un=%d", st.Un, s.cfg.Un)
	case st.Phase2 != 0:
		return fmt.Errorf("crowdmax: checkpoint was taken with phase2=%d; only 2-MaxFind (0) is supported", st.Phase2)
	case st.TrackLosses:
		return errors.New("crowdmax: checkpoint was taken with TrackLosses set; loss tracking is not supported")
	case st.Seed != seed:
		return fmt.Errorf("crowdmax: checkpoint was taken with seed %d, session has %d", st.Seed, seed)
	case st.NItems != len(items):
		return fmt.Errorf("crowdmax: checkpoint covers %d items, got %d", st.NItems, len(items))
	case st.ItemsHash != itemsFingerprint(items):
		return errors.New("crowdmax: checkpoint items hash does not match the given items")
	}
	return nil
}

// itemsFingerprint hashes the input's IDs and value bits (FNV-1a) so a resume
// can detect a snapshot applied to different data.
func itemsFingerprint(items []Item) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(it.ID)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(it.Value))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// checkpointState returns the snapshot builder bound to one run's live
// state: it fills a snapshot (reused across calls) with the fingerprint,
// the ledger and budget read at snapshot time (atomic / mutex-guarded) and
// the workload hooks. The memo tables are the writer's own; see ckWriter.
func (s *Session) checkpointState(kind string, items []Item, seed uint64, led *Ledger, budget *Budget, hooks *snapHooks) func(st *checkpoint.State, phase string, survivors []int64) {
	fp := itemsFingerprint(items)
	n := len(items)
	return func(st *checkpoint.State, phase string, survivors []int64) {
		*st = checkpoint.State{
			Kind:      kind,
			Seed:      seed,
			Un:        s.cfg.Un,
			NItems:    n,
			ItemsHash: fp,
			Phase:     phase,
			Survivors: survivors,
		}
		snap := led.Snapshot()
		st.Comparisons, st.MemoHits, st.Steps = snap.Comparisons, snap.MemoHits, snap.Steps
		if budget != nil {
			for i := 0; i < cost.MaxClasses; i++ {
				st.BudgetSpent[i] = budget.Spent(Class(i))
			}
			st.BudgetCost = budget.SpentCost()
		}
		if hooks != nil {
			ctl, blob := hooks.snapshot()
			if ctl != nil {
				// The achieved rung and decision-log hash ride in the snapshot
				// so a resumed run can be audited against the walk that
				// produced it.
				st.Rung, st.DecisionHash = ctl.Snapshot()
			}
			st.Workload = blob
		}
	}
}

// pairTable is one worker class's memo table in snapshot form, kept by
// the writer instead of rescanned from the memo. Its answers are sorted
// and merged as packed integer keys, like the memo's own entries: A<<33 |
// B<<1, plus 1 when B won (A ≤ B, both memo IDs below 2^31), which order
// as (A, B) does.
type pairTable struct {
	memo *Memo
	// rows holds every answer the writer knows: the resumed snapshot's,
	// then each snapshot's fresh ones. rows[:sortedTo] is in order (the
	// last base).
	rows     []checkpoint.PairAnswer
	sortedTo int
	// pending holds the pairs paid since the last snapshot, packed with no
	// winner. A pair whose answer is not in the memo yet — the oracle
	// stores it just after the backend returns — stays pending for the
	// next snapshot. keys is scratch for sorting.
	pending, keys []uint64
}

// pairBMask extracts B from a packed key shifted right one bit.
const pairBMask = 1<<32 - 1

// pairKey packs the unordered pair (a, b) with no winner.
func pairKey(a, b int) uint64 {
	return uint64(min(a, b))<<33 | uint64(max(a, b))<<1
}

// packPair packs a canonical pair answer.
func packPair(e checkpoint.PairAnswer) uint64 {
	k := pairKey(int(e.A), int(e.B))
	if e.Winner != e.A {
		k |= 1
	}
	return k
}

// unpackPair is packPair's inverse.
func unpackPair(k uint64) checkpoint.PairAnswer {
	e := checkpoint.PairAnswer{A: int64(k >> 33), B: int64(k >> 1 & pairBMask)}
	e.Winner = e.A
	if k&1 != 0 {
		e.Winner = e.B
	}
	return e
}

// samePair reports whether two packed keys name one pair.
func samePair(a, b uint64) bool { return a>>1 == b>>1 }

// sortKeys sorts t.keys, each pair once.
func (t *pairTable) sortKeys() {
	slices.Sort(t.keys)
	t.keys = slices.CompactFunc(t.keys, samePair)
}

// seed starts the table from a loaded snapshot's canonical table.
func (t *pairTable) seed(rows []checkpoint.PairAnswer) {
	t.rows = slices.Clone(rows)
	t.sortedTo = len(rows)
}

// refresh moves the stored answers among the pending pairs onto rows and
// returns them sorted, each pair once: the table a segment writes. The
// returned slice aliases rows and is valid until the next refresh or
// sorted.
func (t *pairTable) refresh() []checkpoint.PairAnswer {
	t.keys = t.keys[:0]
	keep := t.pending[:0]
	for _, k := range t.pending {
		b := int(k >> 1 & pairBMask)
		if w, ok := t.memo.Lookup(int(k>>33), b); ok {
			if w == b {
				k |= 1
			}
			t.keys = append(t.keys, k)
		} else {
			keep = append(keep, k)
		}
	}
	t.pending = keep
	t.sortKeys()
	n := len(t.rows)
	for _, k := range t.keys {
		t.rows = append(t.rows, unpackPair(k))
	}
	return t.rows[n:]
}

// sorted puts rows in order, each pair once, and returns them: the table
// a base writes. The answers added since the last base are sorted as keys,
// then merged into the sorted prefix from the back.
func (t *pairTable) sorted() []checkpoint.PairAnswer {
	t.keys = t.keys[:0]
	for _, e := range t.rows[t.sortedTo:] {
		t.keys = append(t.keys, packPair(e))
	}
	t.sortKeys()
	i, k := t.sortedTo-1, t.sortedTo+len(t.keys)-1
	t.rows = t.rows[:k+1]
	for j := len(t.keys) - 1; j >= 0; {
		var p uint64
		if i >= 0 {
			p = packPair(t.rows[i])
		}
		switch {
		case i >= 0 && samePair(p, t.keys[j]):
			// Paid again, concurrently, after the base that holds it.
			j--
			continue
		case i >= 0 && p > t.keys[j]:
			t.rows[k], i = t.rows[i], i-1
		default:
			t.rows[k], j = unpackPair(t.keys[j]), j-1
		}
		k--
	}
	if k > i {
		// Close the gap the skipped repeats left.
		t.rows = append(t.rows[:i+1], t.rows[k+1:]...)
	}
	t.sortedTo = len(t.rows)
	return t.rows
}

// valueTable is pairTable's counterpart for the value memo (crowd
// scoring), kept as plain answers: it holds a few votes per item, so a
// base simply re-sorts it.
type valueTable struct {
	memo          *tournament.ValueMemo
	rows, pending []checkpoint.ValueAnswer
}

// refresh moves the stored answers among the pending votes onto rows and
// returns them sorted, each vote once: the table a segment writes.
func (t *valueTable) refresh() []checkpoint.ValueAnswer {
	n := len(t.rows)
	keep := t.pending[:0]
	for _, e := range t.pending {
		v, ok := t.memo.Lookup(int(e.ID), int(e.Rep))
		if ok {
			e.Value = v
			t.rows = append(t.rows, e)
		} else {
			keep = append(keep, e)
		}
	}
	t.pending = keep
	fresh := t.rows[n:]
	slices.SortFunc(fresh, checkpoint.CompareValues)
	fresh = slices.CompactFunc(fresh, sameVote)
	t.rows = t.rows[:n+len(fresh)]
	return fresh
}

// sorted puts rows in order, each vote once, and returns them: the table
// a base writes.
func (t *valueTable) sorted() []checkpoint.ValueAnswer {
	slices.SortFunc(t.rows, checkpoint.CompareValues)
	t.rows = slices.CompactFunc(t.rows, sameVote)
	return t.rows
}

func sameVote(a, b checkpoint.ValueAnswer) bool { return a.ID == b.ID && a.Rep == b.Rep }

// ckWriter drives a run's checkpointing: a backend decorator counts paid
// answers and snapshots every N of them, and the core algorithm's OnPhase
// hook snapshots at phase boundaries. A failed snapshot write fails the
// run fast — the next dispatched comparison returns the write error —
// because continuing to spend money a crash would strand defeats the point.
//
// Boundary snapshots write a full base; interval snapshots write a segment
// holding only the answers paid since the previous snapshot, unless the
// segments have outgrown the base (see checkpoint.Writer). The writer
// keeps each memo table itself (see pairTable), seeded from the resumed
// snapshot, and reuses one snapshot and one encode buffer, so an interval
// snapshot costs O(answers since the last one) in time and bytes.
type ckWriter struct {
	mu        sync.Mutex
	every     int64
	since     int64
	survivors []int64
	build     func(st *checkpoint.State, phase string, survivors []int64)
	out       *checkpoint.Writer
	onSnap    func()
	err       error
	// failed is set with err, so the per-answer check takes no lock.
	failed atomic.Bool

	pairs  [2]pairTable // indexed by class: Naive, Expert
	values valueTable
	st     checkpoint.State
}

// ckTestHook, when set by a test, is called at the start (before = true)
// and end (before = false) of every snapshot, under the writer's lock.
var ckTestHook func(w *ckWriter, before bool)

// newCkWriter returns the writer for one run over its memos, seeded with
// the tables of the snapshot it resumes (nil for a fresh run), which are
// exactly what the memos were primed with.
func newCkWriter(cfg CheckpointConfig, naive, expert *Memo, values *tournament.ValueMemo, resume *checkpoint.State, build func(*checkpoint.State, string, []int64)) *ckWriter {
	every := int64(cfg.Every)
	if every <= 0 {
		every = 500
	}
	w := &ckWriter{every: every, build: build, out: checkpoint.NewWriter(cfg.FS, cfg.Path), onSnap: cfg.OnSnapshot}
	w.pairs[Naive].memo, w.pairs[Expert].memo, w.values.memo = naive, expert, values
	if resume != nil {
		w.pairs[Naive].seed(resume.NaiveMemo)
		w.pairs[Expert].seed(resume.ExpertMemo)
		w.values.rows = slices.Clone(resume.ValueMemo)
	}
	return w
}

// wrap decorates the backend of one class's oracle so successful answers
// advance the interval counter and note the paid key in that class's pair
// table (or the value table); the decorator sits outermost, so
// chaos-injected failures and memo hits (which never reach a backend) do
// not count.
func (w *ckWriter) wrap(b Backend, class Class) Backend {
	t := &w.pairs[class]
	return dispatch.Func(func(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
		if w.failed.Load() {
			return BackendAnswer{}, w.Err()
		}
		ans, err := b.Answer(ctx, req)
		if err != nil {
			return ans, err
		}
		w.mu.Lock()
		switch req.Kind {
		case dispatch.KindCompare:
			t.pending = append(t.pending, pairKey(req.A.ID, req.B.ID))
		case dispatch.KindValue:
			w.values.pending = append(w.values.pending, checkpoint.ValueAnswer{ID: int64(req.A.ID), Rep: int64(req.Rep)})
		}
		w.since++
		if w.since >= w.every {
			w.since = 0
			w.snapshotLocked("interval", false)
		}
		w.mu.Unlock()
		return ans, nil
	})
}

// boundary records a phase boundary and writes a base immediately.
// Matches the core.FindMaxOptions.OnPhase signature.
func (w *ckWriter) boundary(phase string, survivors []Item) {
	ids := make([]int64, len(survivors))
	for i, it := range survivors {
		ids[i] = int64(it.ID)
	}
	w.mu.Lock()
	w.survivors = ids
	w.since = 0
	w.snapshotLocked(phase, true)
	w.mu.Unlock()
}

// snapshotLocked builds and atomically writes one snapshot: a base when
// base is set or the chain is due one, a segment otherwise. Callers hold
// w.mu, which also serializes concurrent interval snapshots from parallel
// batches.
func (w *ckWriter) snapshotLocked(label string, base bool) {
	if ckTestHook != nil {
		ckTestHook(w, true)
	}
	w.build(&w.st, label, w.survivors)
	naive, expert, values := w.pairs[Naive].refresh(), w.pairs[Expert].refresh(), w.values.refresh()
	var err error
	if base || w.out.Due() {
		w.st.NaiveMemo, w.st.ExpertMemo, w.st.ValueMemo = w.pairs[Naive].sorted(), w.pairs[Expert].sorted(), w.values.sorted()
		err = w.out.Base(&w.st)
	} else {
		w.st.NaiveMemo, w.st.ExpertMemo, w.st.ValueMemo = naive, expert, values
		err = w.out.Segment(&w.st)
	}
	if ckTestHook != nil {
		ckTestHook(w, false)
	}
	if err != nil {
		if w.err == nil {
			w.err = err
			w.failed.Store(true)
		}
		return
	}
	if m := obs.Active(); m != nil {
		m.CheckpointWrite()
	}
	if w.onSnap != nil {
		w.onSnap()
	}
}

// Err returns the first snapshot-write failure, if any.
func (w *ckWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
