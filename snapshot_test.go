package crowdmax

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/faults"
	"crowdmax/internal/platform"
	"crowdmax/internal/tournament"
)

// discardFS is a faults.FS whose writes go nowhere: CreateTemp hands out a
// file that drops its bytes, and every other operation succeeds on nothing.
// It isolates the checkpoint layer's own cost (snapshot build, encode,
// framing) from the disk.
type discardFS struct{}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Chmod(os.FileMode) error     { return nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }
func (discardFile) Name() string                { return "discard.tmp" }

func (discardFS) ReadFile(string) ([]byte, error)                { return nil, fs.ErrNotExist }
func (discardFS) ReadDir(string) ([]fs.DirEntry, error)          { return nil, nil }
func (discardFS) Stat(string) (fs.FileInfo, error)               { return nil, fs.ErrNotExist }
func (discardFS) MkdirAll(string, os.FileMode) error             { return nil }
func (discardFS) CreateTemp(string, string) (faults.File, error) { return discardFile{}, nil }
func (discardFS) Rename(string, string) error                    { return nil }
func (discardFS) Remove(string) error                            { return nil }

// BenchmarkSessionCheckpoint is the checkpoint layer's benchmark: one
// n=500, un=6 max-find session with a snapshot every 64 paid comparisons
// (the service's default interval) into a discarding filesystem, next to
// the same run with checkpointing off. The difference between the two cells
// is what checkpointing costs per job.
func BenchmarkSessionCheckpoint(b *testing.B) {
	const n, un, ue, seed = 500, 6, 3, 11
	set := UniformDataset(n, 0, 1, NewRand(seed).Child("data"))
	dn, err := set.DeltaForU(un)
	if err != nil {
		b.Fatal(err)
	}
	de, err := set.DeltaForU(ue)
	if err != nil {
		b.Fatal(err)
	}
	items := set.Items()
	for _, cell := range []struct {
		name string
		ck   CheckpointConfig
	}{
		{"every64", CheckpointConfig{Path: "bench/run.ck", Every: 64, FS: discardFS{}}},
		{"none", CheckpointConfig{}},
	} {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSession(Config{
					Naive:      &ThresholdWorker{Delta: dn, Tie: HashTie{Seed: seed}},
					Expert:     &ThresholdWorker{Delta: de, Tie: HashTie{Seed: seed + 1}},
					Un:         un,
					Prices:     Prices{Naive: 1, Expert: 10},
					Rand:       NewRand(seed),
					Checkpoint: cell.ck,
					Degrade:    &DegradeConfig{},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(context.Background(), MaxFind(), items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sizeFS is a discardFS that remembers the size of every file it
// publishes, and counts publications at one path, without allocating.
type sizeFS struct {
	discardFS
	f      sizeFile
	base   string
	bases  int
	last   int
	writes int
}

type sizeFile struct {
	discardFile
	n int
}

func (f *sizeFile) Write(p []byte) (int, error) { f.n += len(p); return len(p), nil }

func (s *sizeFS) CreateTemp(string, string) (faults.File, error) {
	s.f.n = 0
	return &s.f, nil
}

func (s *sizeFS) Rename(_, newpath string) error {
	s.last = s.f.n
	s.writes++
	if newpath == s.base {
		s.bases++
	}
	return nil
}

// warmWriter returns a checkpoint writer over a naive memo primed with
// size pairs among 2000 items, after its start base, writing into fsys.
func warmWriter(t *testing.T, size int, fsys *sizeFS) (*ckWriter, *Memo) {
	t.Helper()
	s, err := NewSession(Config{Naive: &ThresholdWorker{}, Expert: &ThresholdWorker{}, Un: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{ID: i, Value: float64(i)}
	}
	naive, expert := NewMemo(len(items)), NewMemo(len(items))
	for a, b, i := 0, 1, 0; i < size; i++ {
		naive.Prime(a, b, b)
		if b++; b == len(items) {
			a++
			b = a + 1
		}
	}
	src := s.checkpointSource(MaxFindKind, items, 1, NewLedger(), nil, &snapHooks{})
	fsys.base = "run.ck"
	w := newCkWriter(CheckpointConfig{Path: fsys.base, Every: 64, FS: fsys}, naive, expert, tournament.NewValueMemo(), src)
	w.boundary("start", nil)
	return w, naive
}

// intervalSnapshotCost reports the allocations and the bytes of one
// interval snapshot that writes 64 new answers, on a writer warmed over
// size memo pairs.
func intervalSnapshotCost(t *testing.T, size int) (allocs float64, bytes int) {
	const runs, every = 4, 64
	fsys := &sizeFS{}
	w, naive := warmWriter(t, size, fsys)
	// Store the answers the measured snapshots write up front, so the
	// memo's own growth stays out of the measurement. They are pairs
	// (x, x+1) of items the priming never reached, the same pairs at
	// every size.
	fresh := make([][2]int, (runs+1)*every)
	for i := range fresh {
		x := 100 + i
		naive.Prime(x, x+1, x)
		fresh[i] = [2]int{x, x + 1}
	}
	var sizes []int
	snap := func() {
		w.mu.Lock()
		for _, p := range fresh[:every] {
			w.pending[Naive] = append(w.pending[Naive], pairKey(p[0], p[1]))
		}
		fresh = fresh[every:]
		w.snapshotLocked("interval", false)
		w.mu.Unlock()
	}
	bases := fsys.bases
	allocs = testing.AllocsPerRun(runs, func() {
		snap()
		sizes = append(sizes[:len(sizes):len(sizes)], fsys.last)
	})
	if w.err != nil {
		t.Fatal(w.err)
	}
	if fsys.bases != bases || fsys.writes != runs+2 {
		t.Fatalf("%d files written, %d of them bases, after the start base; want %d segments", fsys.writes-1, fsys.bases-bases, runs+1)
	}
	if len(w.pending[Naive]) != 0 || len(w.fresh[Naive]) != every {
		t.Fatalf("%d pairs still pending and %d written by the last segment, want 0 and %d", len(w.pending[Naive]), len(w.fresh[Naive]), every)
	}
	// The first segment also records the phase change from the base's
	// "start" to "interval"; the others differ from their predecessor in
	// their answers alone.
	for _, n := range sizes[2:] {
		if n != sizes[1] {
			t.Fatalf("segment sizes %v differ after the first", sizes)
		}
	}
	return allocs, sizes[1]
}

// TestIntervalSnapshotAllocsConstant is the checkpoint layer's cost gate:
// one interval snapshot of a warmed writer writes a segment of the same
// size, and allocates the same small constant, whether the memo holds a
// thousand pairs or fifty thousand.
func TestIntervalSnapshotAllocsConstant(t *testing.T) {
	smallAllocs, smallBytes := intervalSnapshotCost(t, 1000)
	largeAllocs, largeBytes := intervalSnapshotCost(t, 50000)
	t.Logf("per interval snapshot: %v allocs and %d bytes at 1k pairs, %v allocs and %d bytes at 50k pairs",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs != smallAllocs || largeAllocs > 4 {
		t.Fatalf("interval snapshot allocates %v at 1k memo pairs and %v at 50k, want the same constant ≤ 4", smallAllocs, largeAllocs)
	}
	if largeBytes != smallBytes {
		t.Fatalf("interval snapshot writes %d bytes at 1k memo pairs and %d at 50k, want the same", smallBytes, largeBytes)
	}
}

// memoPairs copies a memo table into the checkpoint's sorted form.
func memoPairs(m *Memo) []checkpoint.PairAnswer {
	var out []checkpoint.PairAnswer
	m.Walk(func(lo, hi int, hiWon bool) {
		e := checkpoint.PairAnswer{A: int64(lo), B: int64(hi), Winner: int64(lo)}
		if hiWon {
			e.Winner = e.B
		}
		out = append(out, e)
	})
	return out
}

// valueAnswers copies a value memo into the checkpoint's sorted form.
func valueAnswers(vm *tournament.ValueMemo) []checkpoint.ValueAnswer {
	var out []checkpoint.ValueAnswer
	if vm == nil {
		return out
	}
	for _, e := range vm.Entries() {
		out = append(out, checkpoint.ValueAnswer{ID: e.ID, Rep: e.Rep, Value: e.Value})
	}
	return out
}

// snapshotChecker installs the writer test hook: at every snapshot it
// loads the checkpoint back (base plus segments) and compares its tables
// with full scans of the memos taken just before and just after the
// snapshot. Every answer stored before the snapshot must be loaded, and
// every loaded answer must be stored; with no concurrent stores the two
// scans agree and the loaded tables must equal them exactly. The loaded
// scalars must be the snapshot's. A base written with no concurrent
// stores must be, byte for byte, checkpoint.Encode of the snapshot's
// state with the scanned tables.
type snapshotChecker struct {
	t         *testing.T
	path      string
	before    [3]memoScan
	baseFile  []byte // the base file before the snapshot
	snapshots int
	exact     int
	// chained counts snapshots after which the chain held a segment, and
	// bases the bases compared with an encoded scan.
	chained, bases int
}

// memoScan is one full scan of a run's three memo tables, as a
// checkpoint.State's tables.
type memoScan = checkpoint.State

func scanMemos(w *ckWriter) checkpoint.State {
	return checkpoint.State{NaiveMemo: memoPairs(w.memos[Naive]), ExpertMemo: memoPairs(w.memos[Expert]), ValueMemo: valueAnswers(w.values)}
}

// checkSnapshots installs the checker for runs checkpointing to path.
func checkSnapshots(t *testing.T, path string) *snapshotChecker {
	c := &snapshotChecker{t: t, path: path}
	ckTestHook = c.hook
	t.Cleanup(func() { ckTestHook = nil })
	return c
}

func (c *snapshotChecker) hook(w *ckWriter, before bool) {
	if before {
		c.before[0] = scanMemos(w)
		c.baseFile, _ = os.ReadFile(c.path)
		return
	}
	c.snapshots++
	after := scanMemos(w)
	loaded, err := checkpoint.Load(c.path)
	if err != nil {
		c.t.Errorf("snapshot %d (%s): load: %v", c.snapshots, w.st.Phase, err)
		return
	}
	if _, err := os.Stat(checkpoint.SegmentPath(c.path, 1)); err == nil {
		c.chained++
	}
	if loaded.Phase != w.st.Phase || loaded.Comparisons != w.st.Comparisons || loaded.Rung != w.st.Rung ||
		!bytes.Equal(loaded.Workload, w.st.Workload) {
		c.t.Errorf("snapshot %d (%s): loaded scalars (phase %q, comparisons %v) are not the snapshot's (%q, %v)",
			c.snapshots, w.st.Phase, loaded.Phase, loaded.Comparisons, w.st.Phase, w.st.Comparisons)
	}
	tables := func(s *checkpoint.State) [3]any { return [3]any{s.NaiveMemo, s.ExpertMemo, s.ValueMemo} }
	lo, hi, got := tables(&c.before[0]), tables(&after), tables(loaded)
	for i := range got {
		if !tableSubset(lo[i], got[i]) || !tableSubset(got[i], hi[i]) {
			c.t.Errorf("snapshot %d (%s), table %d: loaded table is not between the memo scans before and after", c.snapshots, w.st.Phase, i)
		}
		if reflect.DeepEqual(lo[i], hi[i]) {
			if !reflect.DeepEqual(got[i], hi[i]) {
				c.t.Errorf("snapshot %d (%s), table %d: loaded table differs from a full memo scan", c.snapshots, w.st.Phase, i)
			}
			c.exact++
		}
	}
	if base, err := os.ReadFile(c.path); err == nil && !bytes.Equal(base, c.baseFile) && reflect.DeepEqual(lo, hi) {
		want := w.st
		want.NaiveMemo, want.ExpertMemo, want.ValueMemo = after.NaiveMemo, after.ExpertMemo, after.ValueMemo
		if !bytes.Equal(base, checkpoint.Encode(&want)) {
			c.t.Errorf("snapshot %d (%s): the base written is not the encoding of a full memo scan", c.snapshots, w.st.Phase)
		}
		c.bases++
	}
}

// tableSubset reports whether every entry of the sorted table a (pair or
// value answers) is in the sorted table b with the same answer.
func tableSubset(a, b any) bool {
	switch a := a.(type) {
	case []checkpoint.PairAnswer:
		return subsetOf(a, b.([]checkpoint.PairAnswer), checkpoint.ComparePairs)
	case []checkpoint.ValueAnswer:
		return subsetOf(a, b.([]checkpoint.ValueAnswer), checkpoint.CompareValues)
	}
	panic("unknown table")
}

func subsetOf[E comparable](a, b []E, cmp func(E, E) int) bool {
	for _, e := range a {
		i, ok := slices.BinarySearchFunc(b, e, cmp)
		if !ok || b[i] != e {
			return false
		}
	}
	return true
}

// requireExact fails unless the checker saw at least min snapshots, all
// of them exact (a sequential run has no concurrent stores), at least one
// of them loaded through a segment and at least one a base it compared.
func (c *snapshotChecker) requireExact(min int) {
	c.t.Helper()
	if c.snapshots < min || c.exact != 3*c.snapshots || c.chained == 0 || c.bases == 0 {
		c.t.Fatalf("checked %d snapshots (%d exact table comparisons, %d with segments, %d bases), want ≥ %d, all exact, some with segments, some bases",
			c.snapshots, c.exact, c.chained, c.bases, min)
	}
}

// TestIncrementalTablesMatchFullScan runs max, top-k and score workloads
// fresh, crashed by chaos, and resumed, and checks at every snapshot that
// the checkpoint loaded back — base plus segments — equals a full scan of
// the memos.
func TestIncrementalTablesMatchFullScan(t *testing.T) {
	cal, err := dataset.UniformCalibrated(150, 5, 2, NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 17
	valuer := NoisyValuer{Sigma: cal.DeltaN, Seed: seed + 2}
	for _, w := range []Workload{MaxFind(), TopKWorkload(3), ScoreWorkload(ScoreConfig{Votes: 3})} {
		t.Run(w.Kind(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ck")
			config := func(crash int64) func(*Config) {
				return func(c *Config) {
					c.Valuer = valuer
					c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
					c.Degrade = &DegradeConfig{}
					if crash > 0 {
						c.Chaos = &ChaosPlan{CrashAfter: crash}
					}
				}
			}
			check := checkSnapshots(t, path)
			want, err := statelessSession(t, cal, seed, config(0)).Run(context.Background(), w, items)
			if err != nil {
				t.Fatal(err)
			}
			check.requireExact(10)

			check = checkSnapshots(t, path)
			crashAt := (want.NaiveComparisons + want.ExpertComparisons) / 2
			if _, err := statelessSession(t, cal, seed, config(crashAt)).Run(context.Background(), w, items); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
			}
			check.requireExact(5)

			check = checkSnapshots(t, path)
			got, err := statelessSession(t, cal, seed, config(0)).ResumeWorkload(context.Background(), w, path, items)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			check.requireExact(5)
			resultsEqual(t, got, want)
			requireOneFile(t, path)
		})
	}
}

// requireOneFile fails unless the base at path is the only file left in
// its directory: a finished run's last base removed every segment.
func requireOneFile(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// poolWorkers returns n pool workers answering like cmp.
func poolWorkers(n int, cmp Comparator) []PoolWorker {
	ws := make([]PoolWorker, n)
	for i := range ws {
		ws[i] = PoolWorker{Name: fmt.Sprintf("w%d", i), Backend: NewSimulatedBackend(cmp)}
	}
	return ws
}

// TestIncrementalTablesUnderConcurrency drives the writer through a hedged
// WorkerPool — inside a session, and under a ParallelBatch oracle, where
// answers are stored while a snapshot is being taken. The checkpoint
// loaded back after every snapshot must sit between the memo scans around
// it, and after the final base, taken with nothing in flight, it must
// equal the full scan.
func TestIncrementalTablesUnderConcurrency(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(42))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	naive := &ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: 5}}

	t.Run("session", func(t *testing.T) {
		pool, err := NewWorkerPool(poolWorkers(6, naive), 5)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ck")
		check := checkSnapshots(t, path)
		s := statelessSession(t, cal, 5, func(c *Config) {
			c.NaiveBackend = pool
			c.Health = HealthConfig{DisagreeEvery: 2, HedgeAfter: time.Microsecond, Seed: 5}
			c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
		})
		if _, err := s.FindMax(items); err != nil {
			t.Fatal(err)
		}
		check.requireExact(10)
	})

	t.Run("parallel-batch", func(t *testing.T) {
		pool, err := NewWorkerPool(poolWorkers(6, naive), 6)
		if err != nil {
			t.Fatal(err)
		}
		pool.EnableHealth(HealthConfig{DisagreeEvery: 2, Seed: 6})
		path := filepath.Join(t.TempDir(), "run.ck")
		check := checkSnapshots(t, path)
		s, err := NewSession(Config{Naive: naive, Expert: naive, Un: cal.Un})
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(len(items))
		ledger := NewLedger()
		src := s.checkpointSource(MaxFindKind, items, 6, ledger, nil, &snapHooks{})
		w := newCkWriter(CheckpointConfig{Path: path, Every: 8}, memo, NewMemo(len(items)), tournament.NewValueMemo(), src)
		o := NewOracle(naive, Naive, ledger, memo).
			WithBackend(dispatch.NewHedge(pool, time.Microsecond)).
			WithJournal(w.journal(Naive)).
			ParallelBatch(4)
		w.boundary("start", nil)
		if _, err := core.Filter(context.Background(), items, o, core.FilterOptions{Un: cal.Un}); err != nil {
			t.Fatal(err)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		w.boundary("done", nil)
		if check.snapshots < 50 || check.chained == 0 {
			t.Fatalf("checked %d snapshots (%d with segments), want ≥ 50, some with segments", check.snapshots, check.chained)
		}
		final, err := checkpoint.LoadFS(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(final.NaiveMemo, memoPairs(memo)) {
			t.Fatalf("final snapshot holds %d pairs, the memo %d", len(final.NaiveMemo), memo.Len())
		}
		requireOneFile(t, path)
	})
}

// segmentRun is one crash/resume scenario of a workload: the uninterrupted
// run's result and final snapshot, and a crashed run's checkpoint chain.
type segmentRun struct {
	w     Workload
	items []Item
	cfg   func(path string, crash int64) func(*Config)
	seed  uint64
	cal   dataset.Calibrated
	want  Result
	final *checkpoint.State // the uninterrupted run's final snapshot
	path  string            // the crashed run's checkpoint
}

// crashWithSegments runs w uninterrupted, then again with a snapshot
// every 16 paid answers, crashed at the first point from half-way on that
// leaves a base and at least three segments.
func crashWithSegments(t *testing.T, w Workload) *segmentRun {
	t.Helper()
	cal, err := dataset.UniformCalibrated(150, 5, 2, NewRand(43))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 19
	r := &segmentRun{w: w, items: cal.Set.Items(), seed: seed, cal: cal}
	r.cfg = func(path string, crash int64) func(*Config) {
		return func(c *Config) {
			c.Valuer = NoisyValuer{Sigma: cal.DeltaN, Seed: seed + 2}
			c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
			c.Degrade = &DegradeConfig{}
			if crash > 0 {
				c.Chaos = &ChaosPlan{CrashAfter: crash}
			}
		}
	}
	clean := filepath.Join(t.TempDir(), "clean.ck")
	if r.want, err = statelessSession(t, cal, seed, r.cfg(clean, 0)).Run(context.Background(), w, r.items); err != nil {
		t.Fatal(err)
	}
	if r.final, err = checkpoint.Load(clean); err != nil {
		t.Fatal(err)
	}
	total := r.want.NaiveComparisons + r.want.ExpertComparisons
	for crash := total / 2; crash < total; crash += 8 {
		r.path = filepath.Join(t.TempDir(), "run.ck")
		if _, err := statelessSession(t, cal, seed, r.cfg(r.path, crash)).Run(context.Background(), w, r.items); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
		}
		if _, err := os.Stat(checkpoint.SegmentPath(r.path, 3)); err == nil {
			return r
		}
	}
	t.Fatal("no crash point in the second half of the run leaves three segments")
	return nil
}

// resume resumes the run from path, requires the uninterrupted run's
// result, with the final snapshot alone in its directory, and returns
// that snapshot.
func (r *segmentRun) resume(t *testing.T, path string) []byte {
	t.Helper()
	got, err := statelessSession(t, r.cal, r.seed, r.cfg(path, 0)).ResumeWorkload(context.Background(), r.w, path, r.items)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resultsEqual(t, got, r.want)
	requireOneFile(t, path)
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestCorruptMiddleSegmentStopsReplay flips a byte in the second of a
// crashed run's segments: loading stops there, keeping the base and the
// first segment, and the run resumed from that shorter replay still
// matches the uninterrupted run bit for bit, final answers included.
func TestCorruptMiddleSegmentStopsReplay(t *testing.T) {
	for _, w := range []Workload{MaxFind(), TopKWorkload(3), ScoreWorkload(ScoreConfig{Votes: 3})} {
		t.Run(w.Kind(), func(t *testing.T) {
			r := crashWithSegments(t, w)
			full, err := checkpoint.Load(r.path)
			if err != nil {
				t.Fatal(err)
			}
			seg2 := checkpoint.SegmentPath(r.path, 2)
			data, err := os.ReadFile(seg2)
			if err != nil {
				t.Fatal(err)
			}
			// Load base plus segment 1 alone for the expected state.
			if err := os.Rename(seg2, seg2+".aside"); err != nil {
				t.Fatal(err)
			}
			want, err := checkpoint.Load(r.path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(seg2, data, 0o644); err != nil {
				t.Fatal(err)
			}
			os.Remove(seg2 + ".aside")
			got, err := checkpoint.Load(r.path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("replay did not stop at the corrupt segment")
			}
			if got.Comparisons == full.Comparisons {
				t.Fatal("the corrupt segment cost no progress: the test damaged nothing")
			}
			final, err := checkpoint.Decode(r.resume(t, r.path))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([3]any{final.NaiveMemo, final.ExpertMemo, final.ValueMemo}, [3]any{r.final.NaiveMemo, r.final.ExpertMemo, r.final.ValueMemo}) ||
				final.Comparisons != r.final.Comparisons || !bytes.Equal(final.Workload, r.final.Workload) {
				t.Fatal("the resumed run's final snapshot holds other answers or counts than the uninterrupted run's")
			}
		})
	}
}

// legacySnapshot renders st in the fixed-width v3 layout, or in the v2
// layout (no workload envelope) when v2 is set: the single files older
// builds wrote.
func legacySnapshot(st *checkpoint.State, v2 bool) []byte {
	var b checkpoint.Builder
	b.U64(st.Seed)
	b.I64(int64(st.Un))
	b.I64(int64(st.Phase2))
	b.Bool(st.TrackLosses)
	b.I64(int64(st.NItems))
	b.U64(st.ItemsHash)
	b.Str(st.Phase)
	b.I64(int64(len(st.Survivors)))
	for _, id := range st.Survivors {
		b.I64(id)
	}
	b.Str(st.Rung)
	b.U64(st.DecisionHash)
	for _, counters := range [][]int64{st.Comparisons[:], st.MemoHits[:], {st.Steps}, st.BudgetSpent[:]} {
		for _, n := range counters {
			b.I64(n)
		}
	}
	b.F64(st.BudgetCost)
	for _, table := range [][]checkpoint.PairAnswer{st.NaiveMemo, st.ExpertMemo} {
		b.I64(int64(len(table)))
		for _, e := range table {
			b.I64(e.A)
			b.I64(e.B)
			b.I64(e.Winner)
		}
	}
	if v2 {
		return checkpoint.SealEnvelope("CMCK", 2, b.Bytes())
	}
	b.Str(st.Kind)
	b.Blob(st.Workload)
	b.I64(int64(len(st.ValueMemo)))
	for _, e := range st.ValueMemo {
		b.I64(e.ID)
		b.I64(e.Rep)
		b.F64(e.Value)
	}
	return checkpoint.SealEnvelope("CMCK", 3, b.Bytes())
}

// TestSingleFileSnapshotsStillResume: a crashed run's state written as one
// file — v4 as Save writes it, and the v3 and v2 layouts of older builds
// (v2 for max-find, the only workload it knew) — resumes to the
// uninterrupted run's result and to the same final snapshot, byte for
// byte, as resuming from the base and its segments.
func TestSingleFileSnapshotsStillResume(t *testing.T) {
	for _, w := range []Workload{MaxFind(), TopKWorkload(3), ScoreWorkload(ScoreConfig{Votes: 3})} {
		t.Run(w.Kind(), func(t *testing.T) {
			r := crashWithSegments(t, w)
			st, err := checkpoint.Load(r.path)
			if err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{"v4": checkpoint.Encode(st), "v3": legacySnapshot(st, false)}
			if w.Kind() == MaxFindKind {
				files["v2"] = legacySnapshot(st, true)
			}
			want := r.resume(t, r.path)
			for name, data := range files {
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "single.ck")
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(r.resume(t, path), want) {
						t.Fatal("resuming the single file wrote another final snapshot than resuming the chain")
					}
				})
			}
		})
	}
}

// TestStaleSegmentsNeverApply runs max-find, crashed and resumed, on a
// filesystem where every segment removal fails — as if each base's
// writer died between renaming the base and removing the segments it
// covers — so every base has stale segments of older bases beside it.
// The checkpoint loaded back after every snapshot must still equal a full
// scan of the memos, and the resumed run the uninterrupted one.
func TestStaleSegmentsNeverApply(t *testing.T) {
	cal, err := dataset.UniformCalibrated(150, 5, 2, NewRand(44))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	plan, err := faults.ParsePlan("removefail%*.ck-*")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ck")
	config := func(crash int64) func(*Config) {
		return func(c *Config) {
			c.Checkpoint = CheckpointConfig{Path: path, Every: 16, FS: faults.NewInjector(faults.OS(), plan)}
			c.Degrade = &DegradeConfig{}
			if crash > 0 {
				c.Chaos = &ChaosPlan{CrashAfter: crash}
			}
		}
	}
	want, err := statelessSession(t, cal, 23, func(c *Config) { c.Degrade = &DegradeConfig{} }).Run(context.Background(), MaxFind(), items)
	if err != nil {
		t.Fatal(err)
	}
	check := checkSnapshots(t, path)
	crashAt := (want.NaiveComparisons + want.ExpertComparisons) * 2 / 3
	if _, err := statelessSession(t, cal, 23, config(crashAt)).Run(context.Background(), MaxFind(), items); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
	}
	got, err := statelessSession(t, cal, 23, config(0)).ResumeWorkload(context.Background(), MaxFind(), path, items)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	check.requireExact(10)
	resultsEqual(t, got, want)
	if _, err := os.Stat(checkpoint.SegmentPath(path, 1)); err != nil {
		t.Fatalf("no stale segment was left beside the final base: %v", err)
	}
}

// TestCheckpointKeepsPlatformBatches: checkpointing does not change how a
// session dispatches. With a platform BatchComparator as the naïve
// comparator, a run with a checkpoint sends the platform the same batches
// as the run without one, and returns the same result.
func TestCheckpointKeepsPlatformBatches(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(45))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	run := func(ck CheckpointConfig) (Result, int64) {
		plat, err := platform.New(platform.Config{R: NewRand(9)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			plat.AddWorker(&ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: uint64(i)}})
		}
		s := statelessSession(t, cal, 9, func(c *Config) {
			c.Naive = plat.BatchComparator(3)
			c.Checkpoint = ck
		})
		res, err := s.FindMax(items)
		if err != nil {
			t.Fatal(err)
		}
		return res, plat.LogicalSteps()
	}
	want, wantSteps := run(CheckpointConfig{})
	// A platform batch is noted as a whole and snapshotted once stored, so
	// no interval snapshot comes out empty.
	var intervals, empty int
	ckTestHook = func(w *ckWriter, before bool) {
		if !before && w.st.Phase == "interval" {
			intervals++
			if len(w.fresh[Naive]) == 0 {
				empty++
			}
		}
	}
	t.Cleanup(func() { ckTestHook = nil })
	got, gotSteps := run(CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ck"), Every: 64})
	resultsEqual(t, got, want)
	if intervals == 0 || empty > 0 {
		t.Fatalf("%d of %d interval snapshots carried no new answer", empty, intervals)
	}
	if gotSteps != wantSteps {
		t.Fatalf("the checkpointed run took %d platform batches, the run without a checkpoint %d", gotSteps, wantSteps)
	}
	if wantSteps*10 > want.NaiveComparisons {
		t.Fatalf("%d platform batches for %d naive comparisons: the platform was not sent batches", wantSteps, want.NaiveComparisons)
	}
}

// encodeSegmentV1 renders st as segment seq of the chain whose base has
// checksum base, following the file with checksum prev, in the version-1
// layout older builds wrote: the chain link, then a whole v4 payload
// without survivors.
func encodeSegmentV1(st checkpoint.State, seq int, base, prev uint32) []byte {
	st.Survivors = nil
	const header = 20 // the v4 file header ahead of its payload
	payload := binary.LittleEndian.AppendUint64(nil, uint64(seq))
	payload = binary.LittleEndian.AppendUint32(payload, base)
	payload = binary.LittleEndian.AppendUint32(payload, prev)
	payload = append(payload, checkpoint.Encode(&st)[header:]...)
	return checkpoint.SealEnvelope("CMSG", 1, payload)
}

// sealedCRC returns the payload checksum in a sealed file's header.
func sealedCRC(data []byte) uint32 { return binary.LittleEndian.Uint32(data[8:]) }

// loadPrefix loads the base at path with its first k segments alone.
func loadPrefix(t *testing.T, path string, k int) *checkpoint.State {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "prefix.ck")
	for i := 0; i <= k; i++ {
		from, to := path, dir
		if i > 0 {
			from, to = checkpoint.SegmentPath(path, i), checkpoint.SegmentPath(dir, i)
		}
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// without returns the entries of the sorted table a missing from the
// sorted table b.
func without[E any](a, b []E, cmp func(E, E) int) []E {
	var out []E
	for _, e := range a {
		if _, ok := slices.BinarySearchFunc(b, e, cmp); !ok {
			out = append(out, e)
		}
	}
	return out
}

// TestV1SegmentsStillResume: a crashed run's chain rewritten as older
// builds wrote it — the same v4 base, then version-1 segments that each
// repeat a whole v4 payload — loads to the same state as the chain
// written now, and resumes to the uninterrupted run's result and to the
// same final snapshot, byte for byte.
func TestV1SegmentsStillResume(t *testing.T) {
	for _, w := range []Workload{MaxFind(), TopKWorkload(3), ScoreWorkload(ScoreConfig{Votes: 3})} {
		t.Run(w.Kind(), func(t *testing.T) {
			r := crashWithSegments(t, w)
			base, err := os.ReadFile(r.path)
			if err != nil {
				t.Fatal(err)
			}
			old := filepath.Join(t.TempDir(), "v1.ck")
			if err := os.WriteFile(old, base, 0o644); err != nil {
				t.Fatal(err)
			}
			prev, before := sealedCRC(base), loadPrefix(t, r.path, 0)
			for k := 1; ; k++ {
				if _, err := os.Stat(checkpoint.SegmentPath(r.path, k)); err != nil {
					break
				}
				st := loadPrefix(t, r.path, k)
				seg := *st
				seg.NaiveMemo = without(st.NaiveMemo, before.NaiveMemo, checkpoint.ComparePairs)
				seg.ExpertMemo = without(st.ExpertMemo, before.ExpertMemo, checkpoint.ComparePairs)
				seg.ValueMemo = without(st.ValueMemo, before.ValueMemo, checkpoint.CompareValues)
				data := encodeSegmentV1(seg, k, sealedCRC(base), prev)
				if err := os.WriteFile(checkpoint.SegmentPath(old, k), data, 0o644); err != nil {
					t.Fatal(err)
				}
				prev, before = sealedCRC(data), st
			}
			got, err := checkpoint.Load(old)
			if err != nil {
				t.Fatal(err)
			}
			want, err := checkpoint.Load(r.path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the v1 chain loads to another state than the chain it was rewritten from")
			}
			if !bytes.Equal(r.resume(t, old), r.resume(t, r.path)) {
				t.Fatal("resuming the v1 chain wrote another final snapshot than resuming the current chain")
			}
		})
	}
}
