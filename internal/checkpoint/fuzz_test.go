package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// sealSegment frames body as segment seq of the chain whose base has
// checksum base, after the file with checksum prev: the chain link, then
// body, under a valid header and CRC for version v (1 or 2).
func sealSegment(body []byte, v uint32, seq int, base, prev uint32) []byte {
	var p payload
	p.u64(uint64(seq))
	p.b = binary.LittleEndian.AppendUint32(p.b, base)
	p.b = binary.LittleEndian.AppendUint32(p.b, prev)
	return SealEnvelope(segMagic, v, append(p.b, body...))
}

// FuzzSealedSegment is FuzzSegmentReplay behind the checksum: the fuzzed
// bytes are a segment's body, framed with a valid header, CRC and chain
// link for one position of a valid chain, so every input reaches the
// segment decoder (v2, or v1 when full is set). Loading never fails or
// panics, and yields the base plus a prefix of the segments, the fuzzed
// one in its place when it decodes there.
func FuzzSealedSegment(f *testing.F) {
	const path = "run.ck"
	chain := newMapFS()
	_, base, segs := writeChain(f, chain, path, 3)
	const link = 16 // the seq and two CRCs
	for i := 1; i <= 3; i++ {
		f.Add(chain.files[SegmentPath(path, i)][headerSize+link:], uint8(i-1), false)
	}
	baseCRC := sealedCRC(chain.files[path])
	f.Add(encodeSegmentV1(segs[0], 1, baseCRC, baseCRC)[headerSize+link:], uint8(0), true)
	f.Add([]byte{}, uint8(1), false)
	f.Add(binary.AppendUvarint(nil, 1<<(segFields+segCounters)-1), uint8(2), false)

	f.Fuzz(func(t *testing.T, body []byte, at uint8, full bool) {
		m := &mapFS{files: maps.Clone(chain.files)}
		pos := int(at)%4 + 1
		prev := baseCRC
		if pos > 1 {
			prev = sealedCRC(m.files[SegmentPath(path, pos-1)])
		}
		v := uint32(segVersion)
		if full {
			v = segVersionFull
		}
		data := sealSegment(body, v, pos, baseCRC, prev)
		m.files[SegmentPath(path, pos)] = data
		got, err := LoadFS(m, path)
		if err != nil {
			t.Fatalf("a valid base failed to load: %v", err)
		}
		seq := slices.Clone(segs[:pos-1])
		if fz, err := decodeSegment(data, pos, baseCRC, prev, replay(base, seq...)); err == nil {
			// The later segments follow when the fuzzed one is the
			// original, byte for byte.
			seq = append(seq, fz)
			if pos < 3 {
				seq = append(seq, segs[pos:]...)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment decode error %v does not wrap ErrCorrupt", err)
		}
		for n := len(seq); n >= 0; n-- {
			if reflect.DeepEqual(got, replay(base, seq[:n]...)) {
				return
			}
		}
		t.Fatalf("loaded state is not the base plus a prefix of the segments: %+v", got)
	})
}

// stepPatchedBody is the v4 payload of a state whose one memo pair is
// (a, a+1), with that pair's B step replaced by the raw uvarint step (the
// B offset shifted left one bit, the low bit the winner): a table no
// encoder writes, for seeds that reach the decoder's semantic rejects.
func stepPatchedBody(f *testing.F, a int64, step uint64) []byte {
	body := Encode(&State{NaiveMemo: []PairAnswer{{A: a, B: a + 1, Winner: a}}})[headerSize:]
	old := binary.AppendUvarint(binary.AppendVarint(nil, a), 1<<1)
	if bytes.Count(body, old) != 1 {
		f.Fatalf("pair (%d, %d) is not encoded exactly once", a, a+1)
	}
	return bytes.Replace(body, old, binary.AppendUvarint(binary.AppendVarint(nil, a), step), 1)
}

// FuzzSealedBase frames the fuzzed bytes as a v4 base's payload, with a
// valid header and CRC, and follows it with three valid v2 segments
// linked to it. Loading either fails closed (ErrCorrupt), exactly when
// the base does not decode, or yields the base plus a prefix of the
// segments.
func FuzzSealedBase(f *testing.F) {
	f.Add(Encode(chainBase())[headerSize:])
	f.Add(Encode(memoState(60, 300))[headerSize:])
	f.Add(Encode(&State{})[headerSize:])
	f.Add([]byte{})
	// A B step past the int64 range ("B step overflows"), and one that
	// lands B beyond maxPairID (checkPair's ID bound).
	f.Add(stepPatchedBody(f, 1<<40, 1<<64-2))
	f.Add(stepPatchedBody(f, 1<<40, maxPairID<<1))

	const path = "run.ck"
	f.Fuzz(func(t *testing.T, body []byte) {
		m := newMapFS()
		m.files[path] = SealEnvelope(magic, version, body)
		base, decodeErr := Decode(m.files[path])
		var segs []*State
		if decodeErr == nil {
			var e Encoder
			crc := sealedCRC(m.files[path])
			prev, pred := crc, base
			for i := 1; i <= 3; i++ {
				seg := chainSegment(base, int64(i))
				data := slices.Clone(e.segment(seg, i, crc, prev, pred))
				m.files[SegmentPath(path, i)] = data
				segs = append(segs, seg)
				prev, pred = sealedCRC(data), seg
			}
		}
		got, err := LoadFS(m, path)
		if err != nil {
			if decodeErr == nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load error %v (base decode error %v), want ErrCorrupt exactly when the base is corrupt", err, decodeErr)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("a base that does not decode (%v) loaded", decodeErr)
		}
		for n := len(segs); n >= 0; n-- {
			if reflect.DeepEqual(got, replay(base, segs[:n]...)) {
				return
			}
		}
		t.Fatalf("loaded state is not the base plus a prefix of the segments: %+v", got)
	})
}
