package checkpoint

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"crowdmax/internal/faults"
)

// mapFS is an in-memory faults.FS: files are byte slices by path.
type mapFS struct {
	files map[string][]byte
	tmp   int
}

func newMapFS() *mapFS { return &mapFS{files: map[string][]byte{}} }

type mapFile struct {
	fs   *mapFS
	name string
}

func (f *mapFile) Write(p []byte) (int, error) {
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}
func (f *mapFile) Chmod(os.FileMode) error { return nil }
func (f *mapFile) Sync() error             { return nil }
func (f *mapFile) Close() error            { return nil }
func (f *mapFile) Name() string            { return f.name }

func (m *mapFS) ReadFile(path string) ([]byte, error) {
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	return slices.Clone(b), nil
}
func (m *mapFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, errors.New("mapFS: no ReadDir") }
func (m *mapFS) Stat(path string) (fs.FileInfo, error) {
	if _, ok := m.files[path]; !ok {
		return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return mapInfo(filepath.Base(path)), nil
}
func (m *mapFS) MkdirAll(string, os.FileMode) error { return nil }
func (m *mapFS) CreateTemp(dir, pattern string) (faults.File, error) {
	m.tmp++
	name := filepath.Join(dir, strings.Replace(pattern, "*", string(rune('a'+m.tmp%26)), 1))
	m.files[name] = nil
	return &mapFile{fs: m, name: name}, nil
}
func (m *mapFS) Rename(oldpath, newpath string) error {
	b, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}
func (m *mapFS) Remove(path string) error {
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

// names lists the files, sorted.
func (m *mapFS) names() []string {
	var out []string
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type mapInfo string

func (i mapInfo) Name() string       { return string(i) }
func (i mapInfo) Size() int64        { return 0 }
func (i mapInfo) Mode() fs.FileMode  { return 0o644 }
func (i mapInfo) ModTime() time.Time { return time.Time{} }
func (i mapInfo) IsDir() bool        { return false }
func (i mapInfo) Sys() any           { return nil }

// chainBase is the base of the test chains: a scoring run at a phase
// boundary, with answers in every table.
func chainBase() *State {
	s := sampleState()
	s.Phase2, s.TrackLosses = 0, false
	s.Phase = "phase1"
	s.SortPairs()
	return s
}

// chainSegment returns segment i of the test chain over base: new
// answers in every table (one of them repeating a base pair with the
// opposite winner, which must lose to the base's), an advanced ledger
// and workload blob, and no survivors.
func chainSegment(base *State, i int64) *State {
	s := *base
	s.Survivors = nil
	s.Phase = "interval"
	s.Comparisons[0] += 10 * i
	s.Steps += i
	s.Rung = "expert-2maxfind"
	s.Workload = []byte{byte(i)}
	s.NaiveMemo = []PairAnswer{{A: 100 * i, B: 100*i + 1, Winner: 100 * i}, {A: 100 * i, B: 100*i + 7, Winner: 100*i + 7}}
	s.ExpertMemo = []PairAnswer{{A: 3, B: 7, Winner: 7}, {A: 50 + i, B: 60 + i, Winner: 60 + i}}
	s.ValueMemo = []ValueAnswer{{ID: 7, Rep: 0, Value: 99}, {ID: 40 + i, Rep: 1, Value: float64(i)}}
	s.SortPairs()
	return &s
}

// replay is the expected result of loading base plus segs: each
// segment's scalars replace the state's, its answers are added behind the
// earlier ones, the base keeps its survivors, and the first answer for a
// key wins.
func replay(base *State, segs ...*State) *State {
	s := *base
	s.NaiveMemo = slices.Clone(base.NaiveMemo)
	s.ExpertMemo = slices.Clone(base.ExpertMemo)
	s.ValueMemo = slices.Clone(base.ValueMemo)
	for _, seg := range segs {
		s.Phase, s.Rung, s.DecisionHash = seg.Phase, seg.Rung, seg.DecisionHash
		s.Comparisons, s.MemoHits, s.Steps = seg.Comparisons, seg.MemoHits, seg.Steps
		s.BudgetSpent, s.BudgetCost, s.Workload = seg.BudgetSpent, seg.BudgetCost, seg.Workload
		s.NaiveMemo = append(s.NaiveMemo, seg.NaiveMemo...)
		s.ExpertMemo = append(s.ExpertMemo, seg.ExpertMemo...)
		s.ValueMemo = append(s.ValueMemo, seg.ValueMemo...)
	}
	s.SortPairs()
	return &s
}

// encodeSegmentV1 renders s as segment seq of the chain whose base has
// checksum base, following the file with checksum prev, in the version-1
// layout older builds wrote: the chain link, then a whole v4 payload
// without survivors.
func encodeSegmentV1(s *State, seq int, base, prev uint32) []byte {
	var p payload
	p.u64(uint64(seq))
	p.b = binary.LittleEndian.AppendUint32(p.b, base)
	p.b = binary.LittleEndian.AppendUint32(p.b, prev)
	p.body(s, nil, nil)
	return SealEnvelope(segMagic, segVersionFull, p.b)
}

// writeChain writes base and n segments through a Writer at path.
func writeChain(t testing.TB, fsys faults.FS, path string, n int) (*Writer, *State, []*State) {
	t.Helper()
	w := NewWriter(fsys, path)
	base := chainBase()
	if err := w.Base(base, nil); err != nil {
		t.Fatal(err)
	}
	var segs []*State
	for i := int64(1); i <= int64(n); i++ {
		seg := chainSegment(base, i)
		if err := w.Segment(seg); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	return w, base, segs
}

func mustLoad(t testing.TB, fsys faults.FS, path string) *State {
	t.Helper()
	got, err := LoadFS(fsys, path)
	if err != nil {
		t.Fatalf("LoadFS: %v", err)
	}
	return got
}

func requireState(t *testing.T, got, want *State) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded state differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestSegmentChainReplays writes a base and three segments and loads back
// the base with every segment applied in order; a new base removes the
// segments and loads alone.
func TestSegmentChainReplays(t *testing.T) {
	fsys := newMapFS()
	const path = "run.ck"
	w, base, segs := writeChain(t, fsys, path, 3)
	if got, want := fsys.names(), []string{"run.ck", "run.ck-1", "run.ck-2", "run.ck-3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chain files %v, want %v", got, want)
	}
	got := mustLoad(t, fsys, path)
	requireState(t, got, replay(base, segs...))
	if got.NaiveMemo[0] != (PairAnswer{A: -3, B: 4, Winner: 4}) || got.Survivors == nil {
		t.Fatalf("base answers or survivors lost: %+v", got)
	}
	// The segments repeat the base's (3, 7) and vote (7, 0) with other
	// answers; the base's, the first, win.
	if i, _ := slices.BinarySearchFunc(got.ExpertMemo, PairAnswer{A: 3, B: 7}, ComparePairs); got.ExpertMemo[i].Winner != 3 {
		t.Fatalf("pair (3, 7) loaded with winner %d, want the base's 3", got.ExpertMemo[i].Winner)
	}
	if i, _ := slices.BinarySearchFunc(got.ValueMemo, ValueAnswer{ID: 7}, CompareValues); got.ValueMemo[i].Value != -1.5 {
		t.Fatalf("vote (7, 0) loaded as %v, want the base's -1.5", got.ValueMemo[i].Value)
	}

	final := replay(base, segs...)
	final.Phase = "done"
	if err := w.Base(final, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := fsys.names(), []string{"run.ck"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files after the final base %v, want %v", got, want)
	}
	requireState(t, mustLoad(t, fsys, path), final)
	if !reflect.DeepEqual(fsys.files[path], Encode(final)) {
		t.Fatal("a base is not the v4 encoding of its state")
	}
}

// TestWriterCompacts: the writer asks for a base before the first
// snapshot and as soon as the segments since the last base outweigh it.
func TestWriterCompacts(t *testing.T) {
	fsys := newMapFS()
	w := NewWriter(fsys, "run.ck")
	if !w.Due() {
		t.Fatal("a writer with no base is not due one")
	}
	base := memoState(500, 2000)
	if err := w.Base(base, nil); err != nil {
		t.Fatal(err)
	}
	baseBytes := len(fsys.files["run.ck"])
	segBytes := 0
	for i := int64(1); !w.Due(); i++ {
		if segBytes > baseBytes {
			t.Fatalf("segments hold %d bytes against a %d-byte base, and no base is due", segBytes, baseBytes)
		}
		if err := w.Segment(chainSegment(base, i)); err != nil {
			t.Fatal(err)
		}
		segBytes += len(fsys.files[SegmentPath("run.ck", int(i))])
	}
	if segBytes <= baseBytes {
		t.Fatalf("base due after %d segment bytes, before they outweigh the %d-byte base", segBytes, baseBytes)
	}
}

// TestStaleSegmentsIgnored: a crash between a base's rename and the
// removal of the segments it covers leaves segments bound to the older
// base. They must not apply, must not stop the new chain's own segments,
// and the next writer's first base removes them.
func TestStaleSegmentsIgnored(t *testing.T) {
	mem := newMapFS()
	const path = "run.ck"
	w, base, _ := writeChain(t, mem, path, 3)

	// The next base lands but every removal fails: the crash.
	in := faults.NewInjector(mem, mustFaultPlan(t, "removefail"))
	w.fsys = in
	next := replay(base)
	next.Phase = "rank"
	next.Survivors = []int64{9}
	if err := w.Base(next, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(mem.names()); got != 4 {
		t.Fatalf("%d files after the failed removals, want the base and 3 stale segments", got)
	}
	requireState(t, mustLoad(t, mem, path), next)

	// The resumed run's writer extends the new base: its segment 1
	// replaces the stale one, and the stale 2 and 3 still do not apply.
	w2 := NewWriter(mem, path)
	if err := w2.Base(next, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := mem.names(), []string{"run.ck"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first base of a new writer left %v, want %v", got, want)
	}
	w2.fsys = in // removals fail again, so the next base leaves stale segments
	for i := int64(1); i <= 3; i++ {
		if err := w2.Segment(chainSegment(base, i)); err != nil {
			t.Fatal(err)
		}
	}
	last := replay(next)
	last.Steps += 100
	if err := w2.Base(last, nil); err != nil {
		t.Fatal(err)
	}
	seg := chainSegment(last, 4)
	if err := w2.Segment(seg); err != nil {
		t.Fatal(err)
	}
	if got := len(mem.names()); got != 4 {
		t.Fatalf("%d files, want the base, a fresh segment 1 and 2 stale ones", got)
	}
	requireState(t, mustLoad(t, mem, path), replay(last, seg))
}

// TestEqualBaseOtherChainIgnored: a resumed run can rewrite a base byte
// for byte (same state, same checksum) and then pay other answers. If the
// removal of the old chain's segments failed, they are bound to that same
// base checksum; the predecessor checksum keeps them from applying after
// the new chain's first segment.
func TestEqualBaseOtherChainIgnored(t *testing.T) {
	mem := newMapFS()
	const path = "run.ck"
	_, base, _ := writeChain(t, mem, path, 3)
	w := NewWriter(faults.NewInjector(mem, mustFaultPlan(t, "removefail")), path)
	if err := w.Base(base, nil); err != nil {
		t.Fatal(err)
	}
	seg := chainSegment(base, 7)
	if err := w.Segment(seg); err != nil {
		t.Fatal(err)
	}
	if got := len(mem.names()); got != 4 {
		t.Fatalf("%d files, want the base, a new segment 1 and 2 stale ones", got)
	}
	requireState(t, mustLoad(t, mem, path), replay(base, seg))
}

// TestSegmentReplayStops: replay stops at the first segment that is
// missing, corrupt, torn, misnumbered or from another run, keeping the
// base and every segment before it.
func TestSegmentReplayStops(t *testing.T) {
	const path = "run.ck"
	for name, tc := range map[string]struct {
		damage func(m *mapFS)
		keep   int
	}{
		"missing first":  {func(m *mapFS) { delete(m.files, SegmentPath(path, 1)) }, 0},
		"missing middle": {func(m *mapFS) { delete(m.files, SegmentPath(path, 2)) }, 1},
		"bit flip": {func(m *mapFS) {
			m.files[SegmentPath(path, 2)][headerSize+20] ^= 0x40
		}, 1},
		"torn": {func(m *mapFS) {
			b := m.files[SegmentPath(path, 3)]
			m.files[SegmentPath(path, 3)] = b[:len(b)/2]
		}, 2},
		"misnumbered": {func(m *mapFS) {
			m.files[SegmentPath(path, 2)] = m.files[SegmentPath(path, 3)]
		}, 1},
		"base in its place": {func(m *mapFS) {
			m.files[SegmentPath(path, 1)] = m.files[path]
		}, 0},
		// A v2 segment is bound to its run by the base's checksum alone; a
		// v1 segment also carries the run's fingerprint, which must match.
		"other run": {func(m *mapFS) {
			other := chainSegment(chainBase(), 2)
			other.Seed++
			m.files[SegmentPath(path, 2)] = encodeSegmentV1(other, 2, sealedCRC(m.files[path]), sealedCRC(m.files[SegmentPath(path, 1)]))
		}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			m := newMapFS()
			_, base, segs := writeChain(t, m, path, 3)
			tc.damage(m)
			requireState(t, mustLoad(t, m, path), replay(base, segs[:tc.keep]...))
		})
	}
}

// TestSegmentOfOneBaseDoesNotApplyToAnother: a segment carries its base's
// checksum, so the same bytes next to a different base never apply.
func TestSegmentOfOneBaseDoesNotApplyToAnother(t *testing.T) {
	m := newMapFS()
	const path = "run.ck"
	_, base, _ := writeChain(t, m, path, 2)
	other := replay(base)
	other.Steps++
	m.files[path] = Encode(other)
	requireState(t, mustLoad(t, m, path), other)
}

// FuzzSegmentReplay is the replay property: after a valid base and valid
// segments, arbitrary bytes in place of one segment (or after the last)
// either apply or stop the replay. Loading never fails or panics, and the
// state loaded is always the base plus some prefix of the segments.
func FuzzSegmentReplay(f *testing.F) {
	const path = "run.ck"
	m := newMapFS()
	_, base, _ := writeChain(f, m, path, 3)
	for i := 1; i <= 3; i++ {
		f.Add(m.files[SegmentPath(path, i)], uint8(i-1))
	}
	f.Add([]byte{}, uint8(1))
	f.Add([]byte(segMagic), uint8(0))
	f.Add(m.files[path], uint8(2))
	f.Add(Encode(chainSegment(base, 1)), uint8(0))
	// What a torn segment write leaves on disk after the rename published
	// it: a prefix of a valid segment at several truncation fractions.
	for _, frac := range []string{"torn:0.1", "torn:0.5", "torn:0.9"} {
		dir := f.TempDir()
		in := faults.NewInjector(faults.OS(), mustFaultPlan(f, frac))
		w := NewWriter(in, filepath.Join(dir, path))
		w.fsys = faults.OS()
		if err := w.Base(base, nil); err != nil {
			f.Fatal(err)
		}
		w.fsys = in
		if err := w.Segment(chainSegment(base, 1)); err != nil {
			f.Fatalf("torn write should report success: %v", err)
		}
		torn, err := os.ReadFile(SegmentPath(filepath.Join(dir, path), 1))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(torn, uint8(0))
	}

	// One valid chain, written once; each input replaces one of its files
	// in a copy.
	chain := newMapFS()
	_, base, segs := writeChain(f, chain, path, 3)
	f.Fuzz(func(t *testing.T, data []byte, at uint8) {
		m := &mapFS{files: maps.Clone(chain.files)}
		pos := int(at)%4 + 1
		// The prev checksum the loader expects at pos, had it got there.
		prev := sealedCRC(m.files[path])
		if pos > 1 {
			prev = sealedCRC(m.files[SegmentPath(path, pos-1)])
		}
		m.files[SegmentPath(path, pos)] = data
		got, err := LoadFS(m, path)
		if err != nil {
			t.Fatalf("a valid base failed to load: %v", err)
		}
		// The sequence replay may follow: the valid segments, with the
		// fuzzed one in its place when it decodes for that place.
		var seq []*State
		seq = append(seq, segs[:pos-1]...)
		if fz, err := decodeSegment(data, pos, sealedCRC(m.files[path]), prev, replay(base, segs[:pos-1]...)); err == nil {
			seq = append(seq, fz)
			if pos < 3 {
				seq = append(seq, segs[pos:]...)
			}
		}
		for n := len(seq); n >= 0; n-- {
			if reflect.DeepEqual(got, replay(base, seq[:n]...)) {
				return
			}
		}
		t.Fatalf("loaded state is not the base plus a prefix of the segments: %+v", got)
	})
}
