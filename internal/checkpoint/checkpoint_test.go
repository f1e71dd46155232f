package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sampleState exercises every field, including negative IDs and non-trivial
// ledger/budget counters.
func sampleState() *State {
	s := &State{
		Seed:         0xDEADBEEF,
		Un:           8,
		Phase2:       1,
		TrackLosses:  true,
		NItems:       400,
		ItemsHash:    0x1234_5678_9ABC_DEF0,
		Phase:        "phase1",
		Survivors:    []int64{3, 1, 15, 7},
		Rung:         "naive-majority",
		DecisionHash: 0xFEED_FACE_CAFE_BEEF,
		Steps:        99,
		BudgetCost:   12.75,
		NaiveMemo: []PairAnswer{
			{A: 5, B: 9, Winner: 9},
			{A: 1, B: 2, Winner: 1},
			{A: -3, B: 4, Winner: 4},
		},
		ExpertMemo: []PairAnswer{{A: 3, B: 7, Winner: 3}},
		Kind:       "score",
		Workload:   []byte{0x01, 0x00, 0xFE, 0x42},
		ValueMemo: []ValueAnswer{
			{ID: 7, Rep: 1, Value: 0.25},
			{ID: 7, Rep: 0, Value: -1.5},
			{ID: 2, Rep: 0, Value: 3.125},
		},
	}
	s.Comparisons[0] = 1234
	s.Comparisons[1] = 56
	s.MemoHits[0] = 78
	s.BudgetSpent[0] = 1234
	s.BudgetSpent[1] = 56
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	want.SortPairs()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode(Encode(s)): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := sampleState()
	b := sampleState()
	// Same logical state with memo tables in different input order must
	// produce identical bytes after SortPairs (Save relies on this for the
	// bit-identical-resume property).
	b.NaiveMemo[0], b.NaiveMemo[2] = b.NaiveMemo[2], b.NaiveMemo[0]
	b.ValueMemo[0], b.ValueMemo[2] = b.ValueMemo[2], b.ValueMemo[0]
	a.SortPairs()
	b.SortPairs()
	if !reflect.DeepEqual(Encode(a), Encode(b)) {
		t.Fatal("same state encoded to different bytes")
	}
}

func TestZeroStateRoundTrip(t *testing.T) {
	got, err := Decode(Encode(&State{}))
	if err != nil {
		t.Fatalf("Decode(Encode(zero)): %v", err)
	}
	// Encode normalizes an empty Kind to the max-find kind every pre-v3
	// snapshot implicitly had, so a zero state rounds-trips to that.
	if !reflect.DeepEqual(got, &State{Kind: KindMaxFind}) {
		t.Fatalf("zero state round trip mismatch: %+v", got)
	}
}

func TestDecodeFailsClosedOnEveryByteFlip(t *testing.T) {
	data := Encode(sampleState())
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if _, err := Decode(mutated); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d/%d: err = %v, want ErrCorrupt", i, len(data), err)
		}
	}
}

func TestDecodeFailsClosedOnEveryTruncation(t *testing.T) {
	data := Encode(sampleState())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d/%d bytes: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("one trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsOldVersion(t *testing.T) {
	// A version-1 file predates the degrade-controller fields; decoding
	// must fail closed rather than misalign the payload or fabricate a
	// rung. The version word is not covered by the payload CRC, so patching
	// it exercises the version check itself.
	data := Encode(sampleState())
	data[4] = 1
	_, err := Decode(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 file: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-1 rejection %q does not name the version", err)
	}
}

func TestDecodeRejectsForgedLengths(t *testing.T) {
	// A header that promises a huge payload must fail on the length check,
	// not attempt the allocation.
	data := Encode(&State{})
	data = data[:headerSize]
	data[12] = 0xFF
	data[13] = 0xFF
	data[19] = 0x7F
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged payload length: err = %v, want ErrCorrupt", err)
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "run.ck")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Load(Save(s)) mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Save leaves no temp files behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want only the snapshot", len(entries))
	}
	// Overwriting is atomic-by-rename: a second Save still yields one file.
	want.Phase = "done"
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != "done" {
		t.Fatalf("reloaded phase %q, want %q", got.Phase, "done")
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ck"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("missing file misreported as corruption")
	}
}

// encodeV2 renders s in the historical version-2 layout (everything up to
// and including the memo tables, no workload envelope) — the byte stream a
// pre-workload-engine build wrote to disk.
func encodeV2(s *State) []byte {
	var b Builder
	b.U64(s.Seed)
	b.I64(int64(s.Un))
	b.I64(int64(s.Phase2))
	b.Bool(s.TrackLosses)
	b.I64(int64(s.NItems))
	b.U64(s.ItemsHash)
	b.Str(s.Phase)
	b.I64(int64(len(s.Survivors)))
	for _, id := range s.Survivors {
		b.I64(id)
	}
	b.Str(s.Rung)
	b.U64(s.DecisionHash)
	for i := range s.Comparisons {
		b.I64(s.Comparisons[i])
	}
	for i := range s.MemoHits {
		b.I64(s.MemoHits[i])
	}
	b.I64(s.Steps)
	for i := range s.BudgetSpent {
		b.I64(s.BudgetSpent[i])
	}
	b.F64(s.BudgetCost)
	for _, table := range [][]PairAnswer{s.NaiveMemo, s.ExpertMemo} {
		b.I64(int64(len(table)))
		for _, e := range table {
			b.I64(e.A)
			b.I64(e.B)
			b.I64(e.Winner)
		}
	}
	return SealEnvelope(magic, versionPreKinds, b.Bytes())
}

// encodeV3 renders s in the historical version-3 layout: the v2 fields,
// then the workload envelope, with every pair-memo entry as three
// fixed-width integers.
func encodeV3(s *State) []byte {
	body, _, err := OpenEnvelopeAny(magic, encodeV2(s))
	if err != nil {
		panic(err)
	}
	b := Builder{p: payload{b: body}}
	kind := s.Kind
	if kind == "" {
		kind = KindMaxFind
	}
	b.Str(kind)
	b.Blob(s.Workload)
	b.I64(int64(len(s.ValueMemo)))
	for _, e := range s.ValueMemo {
		b.I64(e.ID)
		b.I64(e.Rep)
		b.F64(e.Value)
	}
	return SealEnvelope(magic, versionFixedPairs, b.Bytes())
}

// TestV4AndV3DecodeToTheSameState encodes the same states in both layouts
// — the sample, a filter-phase memo, and one with equal-ID and extreme
// pairs — and requires identical decoded states, with v4 far smaller.
func TestV4AndV3DecodeToTheSameState(t *testing.T) {
	edge := sampleState()
	edge.NaiveMemo = append(edge.NaiveMemo,
		PairAnswer{A: 6, B: 6, Winner: 6},
		PairAnswer{A: -maxPairID + 1, B: maxPairID - 1, Winner: maxPairID - 1},
		PairAnswer{A: 1, B: 1 << 40, Winner: 1 << 40})
	for name, s := range map[string]*State{"sample": sampleState(), "memo": memoState(500, 7000), "edge": edge} {
		s.SortPairs()
		v4, v3 := Encode(s), encodeV3(s)
		got4, err := Decode(v4)
		if err != nil {
			t.Fatalf("%s: decode v4: %v", name, err)
		}
		got3, err := Decode(v3)
		if err != nil {
			t.Fatalf("%s: decode v3: %v", name, err)
		}
		if !reflect.DeepEqual(got4, got3) || !reflect.DeepEqual(got4, s) {
			t.Fatalf("%s: v4 and v3 decode differently:\nv4 %+v\nv3 %+v", name, got4, got3)
		}
		if name == "memo" && len(v4)*4 > len(v3) {
			t.Fatalf("v4 snapshot is %d bytes against v3's %d, want under a quarter", len(v4), len(v3))
		}
	}
}

// TestDecodeRejectsForeignWinner: a pair whose winner is neither of its
// IDs is corrupt in every version, not rewritten to one of them.
func TestDecodeRejectsForeignWinner(t *testing.T) {
	s := sampleState()
	s.SortPairs()
	s.ExpertMemo[0].Winner = 99
	for v, data := range map[int][]byte{2: encodeV2(s), 3: encodeV3(s)} {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "winner") {
			t.Fatalf("v%d: err = %v, want ErrCorrupt naming the winner", v, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Encode accepted a pair it cannot represent")
		}
	}()
	Encode(s)
}

// TestEncoderRequiresCanonicalTables: the reusable Encoder does not sort,
// so a table out of (A, B) order must panic rather than be written in a
// layout no decoder accepts; the package-level Encode sorts first.
func TestEncoderRequiresCanonicalTables(t *testing.T) {
	for name, table := range map[string][]PairAnswer{
		"swapped":    {{A: 2, B: 1, Winner: 1}},
		"descending": {{A: 1, B: 3, Winner: 3}, {A: 1, B: 2, Winner: 1}},
		"repeated":   {{A: 1, B: 2, Winner: 1}, {A: 1, B: 2, Winner: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Encoder.Encode accepted a non-canonical table", name)
				}
			}()
			var e Encoder
			e.Encode(&State{NaiveMemo: slices.Clone(table)})
		}()
		if _, err := Decode(Encode(&State{NaiveMemo: slices.Clone(table)})); err != nil {
			t.Errorf("%s: Encode then Decode: %v", name, err)
		}
	}
}

// TestDecodeRejectsNonIncreasingV4Table forges v4 tables that repeat a
// pair or overflow an ID step: both must fail closed.
func TestDecodeRejectsNonIncreasingV4Table(t *testing.T) {
	for name, table := range map[string][]byte{
		// (1, 2) then a zero A step and a zero B step: (1, 2) again.
		"repeat": {2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0},
		// (5, 5) then an A step of 2^64 − 1, which wraps A to 4.
		"overflow": {2, 0, 0, 0, 0, 0, 0, 0, 10, 0,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
	} {
		empty := Encode(&State{})
		body, _, err := OpenEnvelopeAny(magic, empty)
		if err != nil {
			t.Fatal(err)
		}
		// The empty state's payload ends with the naive and expert table
		// counts, the kind (length and bytes), the workload length and the
		// value-memo count; splice the forged table over the naive count.
		at := len(body) - 5*8 - len(KindMaxFind)
		forged := append(append(append([]byte(nil), body[:at]...), table...), body[at+8:]...)
		_, err = Decode(SealEnvelope(magic, version, forged))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "pair 1") {
			t.Fatalf("%s: err = %v, want ErrCorrupt at pair 1", name, err)
		}
	}
}

func TestDecodeMigratesV2AsMaxFind(t *testing.T) {
	want := sampleState()
	want.Kind = ""
	want.Workload = nil
	want.ValueMemo = nil
	want.SortPairs()
	got, err := Decode(encodeV2(want))
	if err != nil {
		t.Fatalf("Decode(v2): %v", err)
	}
	if got.Kind != KindMaxFind {
		t.Fatalf("v2 snapshot decoded with kind %q, want %q", got.Kind, KindMaxFind)
	}
	if got.Workload != nil || got.ValueMemo != nil {
		t.Fatalf("v2 snapshot fabricated workload extras: blob=%v valueMemo=%v", got.Workload, got.ValueMemo)
	}
	want.Kind = KindMaxFind
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 migration mismatch:\n got %+v\nwant %+v", got, want)
	}
	// And the migrated state re-encodes as a valid v3 snapshot.
	again, err := Decode(Encode(got))
	if err != nil {
		t.Fatalf("Decode(Encode(migrated)): %v", err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("migrated state did not round-trip through v3:\n got %+v\nwant %+v", again, got)
	}
}

func TestDecodeV2FailsClosedOnTruncation(t *testing.T) {
	data := encodeV2(sampleState())
	for n := headerSize; n < len(data); n += 7 {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v2 truncation to %d/%d bytes: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ck")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage file: err = %v, want ErrCorrupt", err)
	}
}
