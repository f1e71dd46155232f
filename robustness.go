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
	"time"

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
	// Path is the snapshot file; empty disables checkpointing. Snapshots
	// are written atomically (temp file + rename), so the file always
	// holds one complete snapshot.
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
// from its checkpoint with Session.Resume.
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

// NewHedgeBackend duplicates requests the inner backend has not answered
// within delay and returns the first successful answer. Wall-clock-driven
// and therefore not deterministic; keep it out of checkpointed runs.
func NewHedgeBackend(inner Backend, delay time.Duration) Backend {
	return dispatch.NewHedge(inner, delay)
}

// Resume continues a run truncated by a crash (or any permanent failure)
// from the snapshot at path, which must have been written by a session with
// the same configuration fingerprint — seed, un, phase-2 algorithm,
// loss-tracking setting — applied to the same items. The workload is
// reconstructed from the snapshot's kind and state blob (a top-k snapshot
// resumes as the same top-k run, a score snapshot as the same score run;
// pre-workload snapshots load as max-find). The snapshot's memo tables are
// replayed, so already-paid comparisons are served free at their recorded
// cost, and with deterministic comparators (ε = 0 and an order-independent
// tie policy such as HashTie) the resumed run returns answers, paid totals,
// and candidate sets bit-identical to an uninterrupted run with the same
// seed.
func (s *Session) Resume(ctx context.Context, path string, items []Item) (Result, error) {
	st, err := checkpoint.LoadFS(s.cfg.Checkpoint.FS, path)
	if err != nil {
		return Result{}, err
	}
	w, err := workloadFromState(st)
	if err != nil {
		return Result{}, err
	}
	if err := s.checkpointCompatible(st, items); err != nil {
		return Result{}, err
	}
	return s.run(ctx, w, items, st)
}

// ResumeWorkload is Resume for callers that know which workload the
// snapshot must belong to: it refuses a snapshot whose recorded kind differs
// from w's instead of silently running whatever the file says.
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

// workloadFromState reconstructs the workload a snapshot belongs to from its
// recorded kind and state blob.
func workloadFromState(st *checkpoint.State) (Workload, error) {
	switch st.Kind {
	case MaxFindKind:
		return MaxFind(), nil
	case TopKKind:
		k, _, err := decodeTopKBlob(st.Workload)
		if err != nil {
			return nil, err
		}
		return TopKWorkload(k), nil
	case ScoreKind:
		cfg, err := decodeScoreBlob(st.Workload)
		if err != nil {
			return nil, err
		}
		return ScoreWorkload(cfg), nil
	default:
		return nil, fmt.Errorf("crowdmax: checkpoint has unknown workload kind %q", st.Kind)
	}
}

// checkpointCompatible refuses snapshots whose configuration fingerprint
// does not match this session and input — resuming under a different
// configuration would silently produce answers neither run would have.
func (s *Session) checkpointCompatible(st *checkpoint.State, items []Item) error {
	if s.cfg.DisableMemoization {
		return errors.New("crowdmax: Resume requires memoization (resume replays the checkpoint's memo tables)")
	}
	seed := uint64(0)
	if s.cfg.Rand != nil {
		seed = s.cfg.Rand.Seed()
	}
	switch {
	case st.Un != s.cfg.Un:
		return fmt.Errorf("crowdmax: checkpoint was taken with un=%d, session has un=%d", st.Un, s.cfg.Un)
	case st.Phase2 != int(s.cfg.Phase2):
		return fmt.Errorf("crowdmax: checkpoint was taken with phase2=%d, session has %d", st.Phase2, int(s.cfg.Phase2))
	case st.TrackLosses != s.cfg.TrackLosses:
		return errors.New("crowdmax: checkpoint and session disagree on TrackLosses")
	case st.Seed != seed:
		return fmt.Errorf("crowdmax: checkpoint was taken with seed %d, session has %d", st.Seed, seed)
	case st.NItems != len(items):
		return fmt.Errorf("crowdmax: checkpoint covers %d items, got %d", st.NItems, len(items))
	case st.ItemsHash != itemsFingerprint(items):
		return errors.New("crowdmax: checkpoint items hash does not match the given items")
	}
	return nil
}

// itemsFingerprint hashes the input's IDs and value bits (FNV-1a) so Resume
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
// the ledger and budget read at snapshot time (atomic / mutex-guarded), the
// value memo and the workload hooks. The pair-memo tables are the writer's
// own incremental copies; see ckWriter.
func (s *Session) checkpointState(kind string, items []Item, seed uint64, led *Ledger, budget *Budget, vm *tournament.ValueMemo, hooks *snapHooks) func(st *checkpoint.State, phase string, survivors []int64) {
	fp := itemsFingerprint(items)
	n := len(items)
	return func(st *checkpoint.State, phase string, survivors []int64) {
		*st = checkpoint.State{
			Kind:        kind,
			Seed:        seed,
			Un:          s.cfg.Un,
			Phase2:      int(s.cfg.Phase2),
			TrackLosses: s.cfg.TrackLosses,
			NItems:      n,
			ItemsHash:   fp,
			Phase:       phase,
			Survivors:   survivors,
		}
		snap := led.Snapshot()
		st.Comparisons, st.MemoHits, st.Steps = snap.Comparisons, snap.MemoHits, snap.Steps
		if budget != nil {
			for i := 0; i < cost.MaxClasses; i++ {
				st.BudgetSpent[i] = budget.Spent(Class(i))
			}
			st.BudgetCost = budget.SpentCost()
		}
		st.ValueMemo = valueAnswers(vm)
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

// memoPairs copies a memo table into the checkpoint's sorted triple form.
func memoPairs(m *Memo) []checkpoint.PairAnswer {
	if m == nil {
		return nil
	}
	entries := m.Entries()
	out := make([]checkpoint.PairAnswer, len(entries))
	for i, e := range entries {
		out[i] = checkpoint.PairAnswer{A: int64(e[0]), B: int64(e[1]), Winner: int64(e[2])}
	}
	return out
}

// pairTable is one worker class's memo table in snapshot form, kept up to
// date in O(answers since the last snapshot) instead of rebuilt from the
// memo every time. The first snapshot seeds it with one full scan (which
// picks up the answers a resumed run primed); after that, the checkpoint
// decorator notes every paid comparison, and each snapshot looks just
// those pairs up, sorts them, and merges them into the sorted table.
type pairTable struct {
	memo   *Memo
	seeded bool
	// rows is the table: every stored answer seen so far, sorted by (A, B)
	// with A ≤ B. spare is the other half of the double buffer the merge
	// writes into.
	rows, spare []checkpoint.PairAnswer
	// pending holds the pairs paid since the last snapshot (A, B only). A
	// pair whose answer is not in the memo yet — the oracle stores it just
	// after the backend returns — stays pending for the next snapshot.
	pending []checkpoint.PairAnswer
	// fresh is scratch for the pending pairs found in the memo.
	fresh []checkpoint.PairAnswer
}

// note records one paid comparison of the pair (a, b).
func (t *pairTable) note(a, b int) {
	if a > b {
		a, b = b, a
	}
	t.pending = append(t.pending, checkpoint.PairAnswer{A: int64(a), B: int64(b)})
}

// refresh folds the stored answers among the pending pairs into the table
// and returns it. The returned slice is valid until the next refresh.
func (t *pairTable) refresh() []checkpoint.PairAnswer {
	if !t.seeded {
		t.rows, t.seeded = memoPairs(t.memo), true
	}
	t.fresh = t.fresh[:0]
	keep := t.pending[:0]
	for _, p := range t.pending {
		if w, ok := t.memo.Lookup(int(p.A), int(p.B)); ok {
			p.Winner = int64(w)
			t.fresh = append(t.fresh, p)
		} else {
			keep = append(keep, p)
		}
	}
	t.pending = keep
	if len(t.fresh) == 0 {
		return t.rows
	}
	slices.SortFunc(t.fresh, checkpoint.ComparePairs)
	t.spare = mergePairs(t.spare[:0], t.rows, t.fresh)
	t.rows, t.spare = t.spare, t.rows
	return t.rows
}

// mergePairs appends the union of the sorted tables a and b to dst in
// (A, B) order, keeping one entry per pair (a's, when both hold it: a pair
// already in the table can be noted again by the seeding scan's overlap).
// b is the short side: each of its entries binary-searches a, and the run
// of a before it is copied in bulk.
func mergePairs(dst, a, b []checkpoint.PairAnswer) []checkpoint.PairAnswer {
	for _, e := range b {
		k, found := slices.BinarySearchFunc(a, e, checkpoint.ComparePairs)
		dst = append(dst, a[:k]...)
		a = a[k:]
		if !found {
			dst = appendPair(dst, e)
		}
	}
	return append(dst, a...)
}

// appendPair appends e unless it repeats dst's last pair.
func appendPair(dst []checkpoint.PairAnswer, e checkpoint.PairAnswer) []checkpoint.PairAnswer {
	if n := len(dst); n > 0 && dst[n-1].A == e.A && dst[n-1].B == e.B {
		return dst
	}
	return append(dst, e)
}

// ckWriter drives a run's checkpointing: a backend decorator counts paid
// comparisons and snapshots every N of them, and the core algorithm's
// OnPhase hook snapshots at phase boundaries. A failed snapshot write fails
// the run fast — the next dispatched comparison returns the write error —
// because continuing to spend money a crash would strand defeats the point.
//
// The writer keeps each class's pair table incrementally (see pairTable)
// and reuses one snapshot and one encode buffer, so an interval snapshot
// costs O(answers since the last one) plus a linear merge and encode of
// the compact table, and allocates O(1) once its buffers have grown.
type ckWriter struct {
	mu        sync.Mutex
	path      string
	every     int64
	since     int64
	phase     string
	survivors []int64
	build     func(st *checkpoint.State, phase string, survivors []int64)
	fs        faults.FS
	onSnap    func()
	err       error

	tables [2]pairTable // indexed by class: Naive, Expert
	st     checkpoint.State
	enc    checkpoint.Encoder
}

// ckTestHook, when set by a test, is called at the start (before = true)
// and end (before = false) of every snapshot, under the writer's lock.
var ckTestHook func(w *ckWriter, before bool)

func newCkWriter(cfg CheckpointConfig, naive, expert *Memo, build func(*checkpoint.State, string, []int64)) *ckWriter {
	every := int64(cfg.Every)
	if every <= 0 {
		every = 500
	}
	w := &ckWriter{path: cfg.Path, every: every, phase: "start", build: build,
		fs: cfg.FS, onSnap: cfg.OnSnapshot}
	w.tables[Naive].memo, w.tables[Expert].memo = naive, expert
	return w
}

// wrap decorates the backend of one class's oracle so successful answers
// advance the interval counter and note the paid pair for that class's
// table; the decorator sits outermost, so chaos-injected failures and memo
// hits (which never reach a backend) do not count.
func (w *ckWriter) wrap(b Backend, class Class) Backend {
	t := &w.tables[class]
	return dispatch.Func(func(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
		w.mu.Lock()
		failed := w.err
		w.mu.Unlock()
		if failed != nil {
			return BackendAnswer{}, failed
		}
		ans, err := b.Answer(ctx, req)
		if err != nil {
			return ans, err
		}
		w.mu.Lock()
		if req.Kind == dispatch.KindCompare {
			t.note(req.A.ID, req.B.ID)
		}
		w.since++
		if w.since >= w.every {
			w.since = 0
			w.snapshotLocked("interval")
		}
		w.mu.Unlock()
		return ans, nil
	})
}

// boundary records a phase boundary and snapshots immediately. Matches the
// core.FindMaxOptions.OnPhase signature.
func (w *ckWriter) boundary(phase string, survivors []Item) {
	ids := make([]int64, len(survivors))
	for i, it := range survivors {
		ids[i] = int64(it.ID)
	}
	w.mu.Lock()
	w.phase = phase
	w.survivors = ids
	w.since = 0
	w.snapshotLocked(phase)
	w.mu.Unlock()
}

// snapshotLocked builds and atomically writes one snapshot; callers hold
// w.mu, which also serializes concurrent interval snapshots from parallel
// batches.
func (w *ckWriter) snapshotLocked(label string) {
	if ckTestHook != nil {
		ckTestHook(w, true)
	}
	w.build(&w.st, label, w.survivors)
	w.st.NaiveMemo = w.tables[Naive].refresh()
	w.st.ExpertMemo = w.tables[Expert].refresh()
	err := w.enc.Save(w.fs, w.path, &w.st)
	if ckTestHook != nil {
		ckTestHook(w, false)
	}
	if err != nil {
		if w.err == nil {
			w.err = err
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
