package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crowdmax/internal/faults"
)

// FuzzCheckpointRoundTrip is the fail-closed property: arbitrary bytes either
// decode into a state that survives a re-encode/re-decode round trip, or are
// rejected with an error wrapping ErrCorrupt — never a panic, never a silent
// half-parse.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CMCK"))
	f.Add(Encode(&State{}))
	f.Add(Encode(sampleState()))
	big := sampleState()
	for i := int64(0); i < 100; i++ {
		big.NaiveMemo = append(big.NaiveMemo, PairAnswer{A: i, B: i + 1, Winner: i})
	}
	f.Add(Encode(big))
	degraded := sampleState()
	degraded.Rung = "expert-shrunk"
	degraded.DecisionHash = ^uint64(0)
	f.Add(Encode(degraded))
	topk := sampleState()
	topk.Kind = "top-k"
	topk.Workload = []byte{3, 0, 0, 0, 0, 0, 0, 0, 42}
	topk.ValueMemo = nil
	f.Add(Encode(topk))
	f.Add(encodeV2(sampleState()))
	f.Add(encodeV3(sampleState()))
	// v4 tables: a filter-phase memo, and pairs with equal IDs, repeated
	// A and large steps.
	f.Add(Encode(memoState(60, 300)))
	edge := sampleState()
	edge.ExpertMemo = []PairAnswer{{A: 0, B: 0, Winner: 0}, {A: 0, B: 1 << 40, Winner: 1 << 40}, {A: 1 << 41, B: 1 << 42, Winner: 1 << 41}}
	f.Add(Encode(edge))
	// Fault-injected partial writes: what a torn write actually leaves on
	// disk after the rename published it — a prefix of a valid snapshot at
	// several truncation fractions. All must be rejected, never half-parsed.
	for _, frac := range []string{"torn:0.1", "torn:0.5", "torn:0.9"} {
		dir := f.TempDir()
		in := faults.NewInjector(faults.OS(), mustFaultPlan(f, frac))
		path := filepath.Join(dir, "torn.ck")
		if err := WriteFileAtomicFS(in, path, Encode(sampleState()), 0o644); err != nil {
			f.Fatalf("torn write should report success: %v", err)
		}
		partial, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(partial)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Valid input: decoding what we re-encode must reproduce the state.
		// (Bytes may legitimately differ — Encode sorts the memo tables —
		// but the decoded states must match.)
		again, err := Decode(Encode(s))
		if err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v", err)
		}
		s.SortPairs()
		again.SortPairs()
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip mismatch:\nfirst  %+v\nsecond %+v", s, again)
		}
	})
}
