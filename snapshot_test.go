package crowdmax

import (
	"context"
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

// warmWriter returns a checkpoint writer over a naive memo primed with
// size pairs among 2000 items, after its seeding snapshot, plus a source
// of pairs the memo does not hold yet.
func warmWriter(t *testing.T, size int) (*ckWriter, *Memo, func() (int, int)) {
	t.Helper()
	s, err := NewSession(Config{Naive: &ThresholdWorker{}, Expert: &ThresholdWorker{}, Un: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{ID: i, Value: float64(i)}
	}
	a, b := 0, 0
	next := func() (int, int) {
		if b++; b == len(items) {
			a++
			b = a + 1
		}
		return a, b
	}
	naive, expert := NewMemo(), NewMemo()
	for i := 0; i < size; i++ {
		x, y := next()
		naive.Prime(x, y, y)
	}
	build := s.checkpointState(MaxFindKind, items, 1, NewLedger(), nil, nil, &snapHooks{})
	w := newCkWriter(CheckpointConfig{Path: "run.ck", Every: 64, FS: discardFS{}}, naive, expert, build)
	w.boundary("start", nil)
	return w, naive, next
}

// intervalSnapshotAllocs reports the allocations of one interval snapshot
// that folds in 64 new answers, on a writer warmed over size memo pairs.
func intervalSnapshotAllocs(t *testing.T, size int) float64 {
	const runs, every = 100, 64
	w, naive, next := warmWriter(t, size)
	// Store the answers the measured snapshots will fold in up front, so
	// the memo's own growth stays out of the measurement.
	fresh := make([][2]int, (runs+1)*every)
	for i := range fresh {
		x, y := next()
		naive.Prime(x, y, x)
		fresh[i] = [2]int{x, y}
	}
	// Warm the writer's buffers to the table's final size.
	w.tables[Naive].rows = slices.Grow(w.tables[Naive].rows, len(fresh))
	w.tables[Naive].spare = slices.Grow(w.tables[Naive].spare, size+len(fresh))
	snap := func() {
		w.mu.Lock()
		for _, p := range fresh[:every] {
			w.tables[Naive].note(p[0], p[1])
		}
		fresh = fresh[every:]
		w.snapshotLocked("interval")
		w.mu.Unlock()
	}
	allocs := testing.AllocsPerRun(runs, snap) // one warm-up call, then runs
	if w.err != nil {
		t.Fatal(w.err)
	}
	if got, want := len(w.tables[Naive].rows), size+(runs+1)*every; got != want {
		t.Fatalf("table holds %d pairs after the snapshots, want %d", got, want)
	}
	return allocs
}

// TestIntervalSnapshotAllocsConstant is the checkpoint layer's allocation
// gate: one interval snapshot of a warmed writer allocates the same small
// constant whether the memo holds a thousand pairs or fifty thousand.
func TestIntervalSnapshotAllocsConstant(t *testing.T) {
	small := intervalSnapshotAllocs(t, 1000)
	large := intervalSnapshotAllocs(t, 50000)
	t.Logf("allocs per interval snapshot: %v at 1k pairs, %v at 50k pairs", small, large)
	if large != small || large > 4 {
		t.Fatalf("interval snapshot allocates %v at 1k memo pairs and %v at 50k, want the same constant ≤ 4", small, large)
	}
}

// snapshotChecker installs the writer test hook: at every snapshot it
// compares the incrementally merged pair tables with full scans of the
// memos taken just before and just after the snapshot. Every answer stored
// before the snapshot must be in the table, and every table entry must be
// stored; with no concurrent stores the two scans agree and the table must
// equal them exactly.
type snapshotChecker struct {
	t         *testing.T
	before    [2][]checkpoint.PairAnswer
	snapshots int
	exact     int
}

func checkSnapshots(t *testing.T) *snapshotChecker {
	c := &snapshotChecker{t: t}
	ckTestHook = c.hook
	t.Cleanup(func() { ckTestHook = nil })
	return c
}

func (c *snapshotChecker) hook(w *ckWriter, before bool) {
	for class := range w.tables {
		scan := memoPairs(w.tables[class].memo)
		if before {
			c.before[class] = scan
			continue
		}
		table := w.st.NaiveMemo
		if class == int(Expert) {
			table = w.st.ExpertMemo
		}
		if !pairSubset(c.before[class], table) || !pairSubset(table, scan) {
			c.t.Errorf("snapshot %d (%s), class %d: merged table of %d pairs is not between the memo's %d pairs before and %d after",
				c.snapshots, w.st.Phase, class, len(table), len(c.before[class]), len(scan))
		}
		if reflect.DeepEqual(c.before[class], scan) {
			if !reflect.DeepEqual(table, scan) {
				c.t.Errorf("snapshot %d (%s), class %d: merged table differs from a full memo scan", c.snapshots, w.st.Phase, class)
			}
			c.exact++
		}
	}
	if !before {
		c.snapshots++
	}
}

// pairSubset reports whether every entry of the sorted table a is in the
// sorted table b with the same winner.
func pairSubset(a, b []checkpoint.PairAnswer) bool {
	for _, e := range a {
		i, ok := slices.BinarySearchFunc(b, e, checkpoint.ComparePairs)
		if !ok || b[i] != e {
			return false
		}
	}
	return true
}

// requireSnapshots fails unless the checker saw at least min snapshots, all
// of them exact (a sequential run has no concurrent stores).
func (c *snapshotChecker) requireExact(min int) {
	c.t.Helper()
	if c.snapshots < min || c.exact != 2*c.snapshots {
		c.t.Fatalf("checked %d snapshots (%d exact table comparisons), want ≥ %d, all exact", c.snapshots, c.exact, min)
	}
}

// TestIncrementalTablesMatchFullScan runs max, top-k and score workloads
// fresh, crashed by chaos, and resumed, and checks at every snapshot that
// the writer's merged tables equal a full scan of the memos.
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
			check := checkSnapshots(t)
			want, err := statelessSession(t, cal, seed, config(0)).Run(context.Background(), w, items)
			if err != nil {
				t.Fatal(err)
			}
			check.requireExact(10)

			check = checkSnapshots(t)
			crashAt := (want.NaiveComparisons + want.ExpertComparisons) / 2
			if _, err := statelessSession(t, cal, seed, config(crashAt)).Run(context.Background(), w, items); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
			}
			check.requireExact(5)

			check = checkSnapshots(t)
			got, err := statelessSession(t, cal, seed, config(0)).ResumeWorkload(context.Background(), w, path, items)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			check.requireExact(5)
			resultsEqual(t, got, want)
		})
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
// answers are stored while a snapshot is being taken. Every snapshot's
// table must sit between the memo scans around it, and the final one,
// taken with nothing in flight, must equal the full scan.
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
		check := checkSnapshots(t)
		s := statelessSession(t, cal, 5, func(c *Config) {
			c.NaiveBackend = pool
			c.Health = HealthConfig{DisagreeEvery: 2, HedgeAfter: time.Microsecond, Seed: 5}
			c.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ck"), Every: 16}
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
		check := checkSnapshots(t)
		s, err := NewSession(Config{Naive: naive, Expert: naive, Un: cal.Un})
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo()
		ledger := NewLedger()
		build := s.checkpointState(MaxFindKind, items, 6, ledger, nil, nil, &snapHooks{})
		w := newCkWriter(CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ck"), Every: 8}, memo, NewMemo(), build)
		o := NewOracle(naive, Naive, ledger, memo).
			WithBackend(w.wrap(dispatch.NewHedge(pool, time.Microsecond), Naive)).
			ParallelBatch(4)
		w.boundary("start", nil)
		if _, err := core.Filter(context.Background(), items, o, core.FilterOptions{Un: cal.Un}); err != nil {
			t.Fatal(err)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		w.boundary("done", nil)
		if check.snapshots < 50 {
			t.Fatalf("checked %d snapshots, want ≥ 50", check.snapshots)
		}
		if final := w.st.NaiveMemo; !reflect.DeepEqual(final, memoPairs(memo)) {
			t.Fatalf("final snapshot holds %d pairs, the memo %d", len(final), memo.Len())
		}
	})
}
