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

// ckSource reads one run's live state into its snapshots: scalars fills
// a snapshot (reused across calls) with the fingerprint, phase, survivors
// and workload hooks; counters with the ledger and budget, read at call
// time (atomic / mutex-guarded). A snapshot reads its counters after its
// tables (see checkpoint.Live).
type ckSource struct {
	kind   string
	seed   uint64
	un, n  int
	fp     uint64
	led    *Ledger
	budget *Budget
	hooks  *snapHooks
}

// checkpointSource returns the snapshot source bound to one run.
func (s *Session) checkpointSource(kind string, items []Item, seed uint64, led *Ledger, budget *Budget, hooks *snapHooks) *ckSource {
	return &ckSource{kind: kind, seed: seed, un: s.cfg.Un, n: len(items), fp: itemsFingerprint(items), led: led, budget: budget, hooks: hooks}
}

func (c *ckSource) scalars(st *checkpoint.State, phase string, survivors []int64) {
	*st = checkpoint.State{
		Kind:      c.kind,
		Seed:      c.seed,
		Un:        c.un,
		NItems:    c.n,
		ItemsHash: c.fp,
		Phase:     phase,
		Survivors: survivors,
	}
	if c.hooks != nil {
		ctl, blob := c.hooks.snapshot()
		if ctl != nil {
			// The achieved rung and decision-log hash ride in the snapshot
			// so a resumed run can be audited against the walk that
			// produced it.
			st.Rung, st.DecisionHash = ctl.Snapshot()
		}
		st.Workload = blob
	}
}

func (c *ckSource) counters(st *checkpoint.State) {
	snap := c.led.Snapshot()
	st.Comparisons, st.MemoHits, st.Steps = snap.Comparisons, snap.MemoHits, snap.Steps
	if c.budget != nil {
		for i := 0; i < cost.MaxClasses; i++ {
			st.BudgetSpent[i] = c.budget.Spent(Class(i))
		}
		st.BudgetCost = c.budget.SpentCost()
	}
}

// Paid pairs are kept as packed integer keys, which sort as (A, B) does:
// A<<33 | B<<1 (A ≤ B, both memo IDs below 2^31), plus 1 when B won.
const pairBMask = 1<<32 - 1

// pairKey packs the unordered pair (a, b) with no winner.
func pairKey(a, b int) uint64 {
	return uint64(min(a, b))<<33 | uint64(max(a, b))<<1
}

// unpackPair is pairKey's inverse, winner bit included.
func unpackPair(k uint64) checkpoint.PairAnswer {
	e := checkpoint.PairAnswer{A: int64(k >> 33), B: int64(k >> 1 & pairBMask)}
	e.Winner = e.A
	if k&1 != 0 {
		e.Winner = e.B
	}
	return e
}

// ckWriter drives a run's checkpointing. It is the oracles' journal (see
// journal and tournament.Journal): each paid answer notes its key, and
// every N of them snapshot the run (a platform batch's, once the batch is
// stored); the core algorithm's OnPhase hook snapshots at phase
// boundaries. A failed snapshot write fails the run fast — the next paid
// comparison returns the write error — because continuing to spend money a
// crash would strand defeats the point.
//
// Boundary snapshots write a full base, streamed from the memos' row
// walks; interval snapshots write a segment holding only the answers paid
// since the previous snapshot, unless the segments have outgrown the base
// (see checkpoint.Writer). The writer keeps only the keys paid since the
// last snapshot: a key is noted before its answer is stored, and a segment
// writes it once the memo holds it. It reuses one snapshot and one encode
// buffer, so an interval snapshot costs O(answers since the last one) in
// time and bytes.
type ckWriter struct {
	mu        sync.Mutex
	every     int64
	since     int64
	survivors []int64
	src       *ckSource
	out       *checkpoint.Writer
	live      checkpoint.Live
	onSnap    func()
	err       error
	// failed is set with err, so the per-answer check takes no lock.
	failed atomic.Bool

	memos  [2]*Memo // indexed by class: Naive, Expert
	values *tournament.ValueMemo
	// pending holds per class the pairs paid since the last snapshot,
	// packed with no winner, and votes the votes. An answer not in the
	// memo yet — the oracle stores it just after noting it — stays pending
	// for the next snapshot. keys and fresh are scratch.
	pending [2][]uint64
	votes   []checkpoint.ValueAnswer
	keys    []uint64
	fresh   [2][]checkpoint.PairAnswer
	// freshV and scan are the vote tables of the last segment and
	// base.
	freshV, scan []checkpoint.ValueAnswer
	st           checkpoint.State
}

// journal returns the oracle hook of class c's oracle.
func (w *ckWriter) journal(c Class) *tournament.Journal {
	return &tournament.Journal{
		Err: w.failure,
		Pair: func(a, b int) {
			w.mu.Lock()
			w.pending[c] = append(w.pending[c], pairKey(a, b))
			w.paidLocked()
			w.mu.Unlock()
		},
		Value: func(id, rep int) {
			w.mu.Lock()
			w.votes = append(w.votes, checkpoint.ValueAnswer{ID: int64(id), Rep: int64(rep)})
			w.paidLocked()
			w.mu.Unlock()
		},
		Pairs: func(pairs [][2]Item) {
			w.mu.Lock()
			for _, p := range pairs {
				w.pending[c] = append(w.pending[c], pairKey(p[0].ID, p[1].ID))
			}
			w.since += int64(len(pairs))
			w.mu.Unlock()
		},
		Stored: func() {
			w.mu.Lock()
			w.intervalLocked()
			w.mu.Unlock()
		},
	}
}

// failure fails a paid comparison once a snapshot write has failed.
func (w *ckWriter) failure() error {
	if !w.failed.Load() {
		return nil
	}
	return w.Err()
}

// paidLocked advances the interval counter by one paid answer and
// snapshots when the interval is complete.
func (w *ckWriter) paidLocked() {
	w.since++
	w.intervalLocked()
}

// intervalLocked snapshots once when at least an interval's answers were
// paid since the last snapshot, however many intervals a platform batch
// spanned.
func (w *ckWriter) intervalLocked() {
	if w.since >= w.every {
		w.since = 0
		w.snapshotLocked("interval", false)
	}
}

// ckTestHook, when set by a test, is called at the start (before = true)
// and end (before = false) of every snapshot, under the writer's lock.
var ckTestHook func(w *ckWriter, before bool)

// newCkWriter returns the writer for one run over its memos, which hold
// everything paid so far (a resumed run's memos are primed from its
// snapshot).
func newCkWriter(cfg CheckpointConfig, naive, expert *Memo, values *tournament.ValueMemo, src *ckSource) *ckWriter {
	every := int64(cfg.Every)
	if every <= 0 {
		every = 500
	}
	w := &ckWriter{every: every, src: src, out: checkpoint.NewWriter(cfg.FS, cfg.Path), onSnap: cfg.OnSnapshot}
	w.memos = [2]*Memo{naive, expert}
	w.values = values
	w.live = checkpoint.Live{Naive: naive.Walk, Expert: expert.Walk, Counters: src.counters}
	return w
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

// freshPairs moves the stored answers among class c's pending pairs out
// of pending and returns them sorted, each pair once: the table a segment
// writes. The returned slice is valid until the next call for c.
func (w *ckWriter) freshPairs(c Class) []checkpoint.PairAnswer {
	keys, keep := w.keys[:0], w.pending[c][:0]
	for _, k := range w.pending[c] {
		b := int(k >> 1 & pairBMask)
		if win, ok := w.memos[c].Lookup(int(k>>33), b); ok {
			if win == b {
				k |= 1
			}
			keys = append(keys, k)
		} else {
			keep = append(keep, k)
		}
	}
	w.pending[c] = keep
	slices.Sort(keys)
	t := w.fresh[c][:0]
	for i, k := range keys {
		// A pair paid twice, concurrently, is written once.
		if i == 0 || k>>1 != keys[i-1]>>1 {
			t = append(t, unpackPair(k))
		}
	}
	w.keys, w.fresh[c] = keys, t
	return t
}

// freshVotes is freshPairs for the pending votes.
func (w *ckWriter) freshVotes() []checkpoint.ValueAnswer {
	t, keep := w.freshV[:0], w.votes[:0]
	for _, e := range w.votes {
		if v, ok := w.values.Lookup(int(e.ID), int(e.Rep)); ok {
			e.Value = v
			t = append(t, e)
		} else {
			keep = append(keep, e)
		}
	}
	w.votes = keep
	slices.SortFunc(t, checkpoint.CompareValues)
	t = slices.CompactFunc(t, func(a, b checkpoint.ValueAnswer) bool { return a.ID == b.ID && a.Rep == b.Rep })
	w.freshV = t
	return t
}

// allVotes returns the value memo's answers sorted, the table a base
// writes. The returned slice is valid until the next call.
func (w *ckWriter) allVotes() []checkpoint.ValueAnswer {
	t := w.scan[:0]
	for _, e := range w.values.Entries() {
		t = append(t, checkpoint.ValueAnswer(e))
	}
	w.scan = t
	return t
}

// snapshotLocked builds and atomically writes one snapshot: a base when
// base is set or the chain is due one, a segment otherwise. Callers hold
// w.mu, which also serializes concurrent interval snapshots from parallel
// batches. The pending answers already stored leave pending first: a base
// walks the memos after that, so it holds them, and an answer stored in
// between is written twice rather than lost.
func (w *ckWriter) snapshotLocked(label string, base bool) {
	if ckTestHook != nil {
		ckTestHook(w, true)
	}
	w.src.scalars(&w.st, label, w.survivors)
	naive, expert, votes := w.freshPairs(Naive), w.freshPairs(Expert), w.freshVotes()
	var err error
	if base || w.out.Due() {
		w.st.ValueMemo = w.allVotes()
		err = w.out.Base(&w.st, &w.live)
	} else {
		w.st.NaiveMemo, w.st.ExpertMemo, w.st.ValueMemo = naive, expert, votes
		w.src.counters(&w.st)
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
