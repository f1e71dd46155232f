package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"crowdmax/internal/cost"
	"crowdmax/internal/faults"
)

// segMagic and segVersion frame a delta segment. Its payload starts with
// the chain link: the sequence number, the base's CRC and the
// predecessor's CRC. Version 2 (see segment) then writes only what changed
// since the predecessor; version 1 repeated a whole v4 payload and still
// loads.
const (
	segMagic       = "CMSG"
	segVersion     = 2
	segVersionFull = 1

	// The fields a v2 segment writes only when they changed, as the low
	// bits of its mask; the counters that moved follow from bit segFields.
	segPhase    = 1 << 0
	segRung     = 1 << 1
	segDecision = 1 << 2
	segWorkload = 1 << 3
	segCost     = 1 << 4
	segFields   = 5
)

// SegmentPath names segment seq (1-based) of the snapshot chain whose base
// is at path.
func SegmentPath(path string, seq int) string {
	return path + "-" + strconv.Itoa(seq)
}

// sealedCRC returns the payload checksum recorded in a sealed envelope's
// header.
func sealedCRC(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[8:])
}

// segment renders s as segment seq of the chain whose base has checksum
// base, following the file with checksum prev, whose state is pred. Its
// tables must be canonical; its survivor list is not written. The returned
// bytes alias the encoder's buffer and are valid until its next call.
//
// A v2 segment leaves out what the base pins (the configuration
// fingerprint and kind: the base-CRC link binds the segment to it). Of the
// rest it writes the phase, rung, decision hash, workload blob and budget
// cost only when they differ from pred's, and the ledger and budget
// counters that moved as varint deltas against pred's, all flagged in one
// uvarint mask; then the v4 tables of its answers.
func (e *Encoder) segment(s *State, seq int, base, prev uint32, pred *State) []byte {
	p := payload{b: append(e.buf[:0], make([]byte, headerSize)...)}
	p.i64(int64(seq))
	p.b = binary.LittleEndian.AppendUint32(p.b, base)
	p.b = binary.LittleEndian.AppendUint32(p.b, prev)
	var mask uint64
	for i, changed := range [segFields]bool{
		s.Phase != pred.Phase,
		s.Rung != pred.Rung,
		s.DecisionHash != pred.DecisionHash,
		!bytes.Equal(s.Workload, pred.Workload),
		math.Float64bits(s.BudgetCost) != math.Float64bits(pred.BudgetCost),
	} {
		if changed {
			mask |= 1 << i
		}
	}
	var deltas [segCounters]int64
	cur, old := counterRefs(s), counterRefs(pred)
	for i, c := range cur {
		if deltas[i] = int64(uint64(*c) - uint64(*old[i])); deltas[i] != 0 {
			mask |= 1 << (segFields + i)
		}
	}
	p.b = binary.AppendUvarint(p.b, mask)
	if mask&segPhase != 0 {
		p.str(s.Phase)
	}
	if mask&segRung != 0 {
		p.str(s.Rung)
	}
	if mask&segDecision != 0 {
		p.u64(s.DecisionHash)
	}
	if mask&segWorkload != 0 {
		p.i64(int64(len(s.Workload)))
		p.b = append(p.b, s.Workload...)
	}
	if mask&segCost != 0 {
		p.u64(math.Float64bits(s.BudgetCost))
	}
	for _, d := range deltas {
		if d != 0 {
			p.b = binary.AppendVarint(p.b, d)
		}
	}
	p.pairs(s.NaiveMemo, nil)
	p.pairs(s.ExpertMemo, nil)
	p.values(s.ValueMemo)
	e.buf = p.b
	sealHeader(segMagic, segVersion, p.b)
	return p.b
}

// segCounters is the number of ledger and budget counters a State holds.
const segCounters = 3*cost.MaxClasses + 1

// counterRefs lists the ledger and budget counters of s, in the order a
// v2 segment writes their deltas.
func counterRefs(s *State) [segCounters]*int64 {
	var out [segCounters]*int64
	for i := 0; i < cost.MaxClasses; i++ {
		out[i], out[cost.MaxClasses+i], out[2*cost.MaxClasses+1+i] = &s.Comparisons[i], &s.MemoHits[i], &s.BudgetSpent[i]
	}
	out[2*cost.MaxClasses] = &s.Steps
	return out
}

// decodeSegment parses segment seq of the chain whose base has checksum
// base, where the file before it has checksum prev and pred is the state
// loaded so far. The returned segment holds its full scalar state and only
// its own answers. A segment that fails validation, names another
// position or another chain, or (v1) fingerprints another run, is an error
// wrapping ErrCorrupt.
func decodeSegment(data []byte, seq int, base, prev uint32, pred *State) (*State, error) {
	body, v, err := OpenEnvelopeAny(segMagic, data)
	if err != nil {
		return nil, err
	}
	if v != segVersion && v != segVersionFull {
		return nil, fmt.Errorf("%w: unsupported segment version %d (want %d or %d)", ErrCorrupt, v, segVersionFull, segVersion)
	}
	r := reader{b: body}
	gotSeq := r.u64()
	link := r.take(8)
	var s *State
	if v == segVersionFull {
		s = r.body(version)
	} else {
		s = r.delta(pred)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	switch {
	case gotSeq != uint64(seq):
		return nil, fmt.Errorf("%w: segment %d found where %d belongs", ErrCorrupt, gotSeq, seq)
	case binary.LittleEndian.Uint32(link) != base || binary.LittleEndian.Uint32(link[4:]) != prev:
		return nil, fmt.Errorf("%w: segment %d extends another snapshot", ErrCorrupt, seq)
	case len(s.Survivors) > 0:
		return nil, fmt.Errorf("%w: segment %d carries survivors", ErrCorrupt, seq)
	case !s.sameRun(pred):
		return nil, fmt.Errorf("%w: segment %d belongs to another run", ErrCorrupt, seq)
	}
	return s, nil
}

// delta reads the rest of a v2 segment payload against pred (see
// segment).
func (r *reader) delta(pred *State) *State {
	s := &State{
		Seed: pred.Seed, Un: pred.Un, Phase2: pred.Phase2, TrackLosses: pred.TrackLosses,
		NItems: pred.NItems, ItemsHash: pred.ItemsHash, Kind: pred.Kind,
	}
	s.scalars(pred)
	mask := r.uvarint()
	if mask>>(segFields+segCounters) != 0 {
		r.fail("unknown fields in segment mask %#x", mask)
	}
	if mask&segPhase != 0 {
		s.Phase = r.str()
	}
	if mask&segRung != 0 {
		s.Rung = r.str()
	}
	if mask&segDecision != 0 {
		s.DecisionHash = r.u64()
	}
	if mask&segWorkload != 0 {
		s.Workload = r.blob()
	}
	if mask&segCost != 0 {
		s.BudgetCost = math.Float64frombits(r.u64())
	}
	for i, c := range counterRefs(s) {
		if mask&(1<<(segFields+i)) != 0 {
			*c = int64(uint64(*c) + uint64(r.varint()))
		}
	}
	s.NaiveMemo = r.deltaPairs()
	s.ExpertMemo = r.deltaPairs()
	s.ValueMemo = r.values()
	return s
}

// sameRun reports whether s and o carry the same configuration
// fingerprint and workload kind.
func (s *State) sameRun(o *State) bool {
	return s.Seed == o.Seed && s.Un == o.Un && s.Phase2 == o.Phase2 &&
		s.TrackLosses == o.TrackLosses && s.NItems == o.NItems &&
		s.ItemsHash == o.ItemsHash && s.Kind == o.Kind
}

// apply replays one segment onto s: the segment's scalar state replaces
// s's, its answers are appended (canonical order is restored once, after
// the last segment), and s keeps its survivors.
func (s *State) apply(seg *State) {
	s.scalars(seg)
	s.NaiveMemo = append(s.NaiveMemo, seg.NaiveMemo...)
	s.ExpertMemo = append(s.ExpertMemo, seg.ExpertMemo...)
	s.ValueMemo = append(s.ValueMemo, seg.ValueMemo...)
}

// scalars copies the state a segment carries, apart from its answers,
// from o.
func (s *State) scalars(o *State) {
	s.Phase, s.Rung, s.DecisionHash = o.Phase, o.Rung, o.DecisionHash
	s.Comparisons, s.MemoHits, s.Steps = o.Comparisons, o.MemoHits, o.Steps
	s.BudgetSpent, s.BudgetCost = o.BudgetSpent, o.BudgetCost
	s.Workload = o.Workload
}

// Writer writes one run's snapshots at a path as a chain: Base writes a
// full snapshot and removes the segments it covers, Segment writes the
// answers paid since the previous snapshot. It reuses one encode buffer
// and the segment paths, and is not safe for concurrent use.
type Writer struct {
	fsys       faults.FS
	path       string
	enc        Encoder
	based      bool   // a base has been written
	seq        int    // segments written since the base
	base, prev uint32 // checksums of the base and of the last file written
	// baseBytes is the base's size, segBytes the segments' total since.
	baseBytes, segBytes int
	// last is the state of the last file written, the predecessor the
	// next segment is encoded against; its workload blob is a copy.
	last State
	// segPaths caches SegmentPath(path, i+1).
	segPaths []string
}

// NewWriter returns a Writer for the chain at path over fsys (nil for the
// real filesystem).
func NewWriter(fsys faults.FS, path string) *Writer {
	if fsys == nil {
		fsys = faults.OS()
	}
	return &Writer{fsys: fsys, path: path}
}

// segPath returns SegmentPath(w.path, seq), built once per seq.
func (w *Writer) segPath(seq int) string {
	for len(w.segPaths) < seq {
		w.segPaths = append(w.segPaths, SegmentPath(w.path, len(w.segPaths)+1))
	}
	return w.segPaths[seq-1]
}

// Due reports whether the next snapshot must be a base: none was written
// yet, or the segments since the last one hold more bytes than it.
func (w *Writer) Due() bool {
	return !w.based || w.segBytes > w.baseBytes
}

// Base writes s as the chain's new base, then removes the segments it
// covers, last first, so a crash part-way leaves a prefix of them (which
// no longer applies). The first base also removes what an earlier chain
// at the path left there. With live nil, s's tables must be canonical and
// complete; otherwise its pair tables and counters are read from live (see
// Live), and s's counters are left holding what was written.
func (w *Writer) Base(s *State, live *Live) error {
	data := w.enc.encode(s, live)
	if err := WriteFileAtomicFS(w.fsys, w.path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.path, err)
	}
	top := w.seq
	if !w.based {
		for {
			if _, err := w.fsys.Stat(w.segPath(top + 1)); err != nil {
				break
			}
			top++
		}
	}
	for i := top; i > 0; i-- {
		// A segment that stays behind is bound to an older base and never
		// applies; removing it only tidies up, so a failure is ignored.
		_ = w.fsys.Remove(w.segPath(i))
	}
	w.based, w.seq = true, 0
	w.base = sealedCRC(data)
	w.prev = w.base
	w.baseBytes, w.segBytes = len(data), 0
	w.remember(s)
	return nil
}

// Segment writes s, whose tables must be canonical and hold only the
// answers paid since the previous snapshot, as the chain's next segment.
// It must follow a Base.
func (w *Writer) Segment(s *State) error {
	path := w.segPath(w.seq + 1)
	data := w.enc.segment(s, w.seq+1, w.base, w.prev, &w.last)
	if err := WriteFileAtomicFS(w.fsys, path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	w.seq++
	w.prev = sealedCRC(data)
	w.segBytes += len(data)
	w.remember(s)
	return nil
}

// remember keeps the scalar state of s, just written, as the next
// segment's predecessor.
func (w *Writer) remember(s *State) {
	blob := append(w.last.Workload[:0], s.Workload...)
	w.last.scalars(s)
	w.last.Workload = blob
}
