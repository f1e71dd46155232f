package checkpoint

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"crowdmax/internal/faults"
)

// segMagic and segVersion frame a delta segment; its payload is the
// segment header (sequence number, base CRC, predecessor CRC) followed by
// a v4 snapshot payload.
const (
	segMagic   = "CMSG"
	segVersion = 1
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
// base, following the file with checksum prev. Its tables must be
// canonical; its survivor list is not written. The returned bytes alias
// the encoder's buffer and are valid until its next call.
func (e *Encoder) segment(s *State, seq int, base, prev uint32) []byte {
	p := payload{b: append(e.buf[:0], make([]byte, headerSize)...)}
	p.u64(uint64(seq))
	p.b = binary.LittleEndian.AppendUint32(p.b, base)
	p.b = binary.LittleEndian.AppendUint32(p.b, prev)
	p.body(s, nil)
	e.buf = p.b
	sealHeader(segMagic, segVersion, p.b)
	return p.b
}

// decodeSegment parses segment seq of the chain whose base has checksum
// base, where the file before it has checksum prev. A segment that fails
// validation, or names another position or another chain, is an error
// wrapping ErrCorrupt.
func decodeSegment(data []byte, seq int, base, prev uint32) (*State, error) {
	body, err := OpenEnvelope(segMagic, segVersion, data)
	if err != nil {
		return nil, err
	}
	r := reader{b: body}
	gotSeq := r.u64()
	link := r.take(8)
	s := r.body(version)
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
	}
	return s, nil
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
	s.Phase, s.Rung, s.DecisionHash = seg.Phase, seg.Rung, seg.DecisionHash
	s.Comparisons, s.MemoHits, s.Steps = seg.Comparisons, seg.MemoHits, seg.Steps
	s.BudgetSpent, s.BudgetCost = seg.BudgetSpent, seg.BudgetCost
	s.Workload = seg.Workload
	s.NaiveMemo = append(s.NaiveMemo, seg.NaiveMemo...)
	s.ExpertMemo = append(s.ExpertMemo, seg.ExpertMemo...)
	s.ValueMemo = append(s.ValueMemo, seg.ValueMemo...)
}

// Writer writes one run's snapshots at a path as a chain: Base writes a
// full snapshot and removes the segments it covers, Segment writes the
// answers paid since the previous snapshot. It reuses one encode buffer
// and is not safe for concurrent use.
type Writer struct {
	fsys       faults.FS
	path       string
	enc        Encoder
	based      bool   // a base has been written
	seq        int    // segments written since the base
	base, prev uint32 // checksums of the base and of the last file written
	// baseBytes is the base's size, segBytes the segments' total since.
	baseBytes, segBytes int
}

// NewWriter returns a Writer for the chain at path over fsys (nil for the
// real filesystem).
func NewWriter(fsys faults.FS, path string) *Writer {
	if fsys == nil {
		fsys = faults.OS()
	}
	return &Writer{fsys: fsys, path: path}
}

// Due reports whether the next snapshot must be a base: none was written
// yet, or the segments since the last one hold more bytes than it.
func (w *Writer) Due() bool {
	return !w.based || w.segBytes > w.baseBytes
}

// Base writes s, whose tables must be canonical and complete, as the
// chain's new base, then removes the segments it covers, last first, so a
// crash part-way leaves a prefix of them (which no longer applies). The
// first base also removes what an earlier chain at the path left there.
func (w *Writer) Base(s *State) error {
	data := w.enc.Encode(s)
	if err := WriteFileAtomicFS(w.fsys, w.path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.path, err)
	}
	top := w.seq
	if !w.based {
		for {
			if _, err := w.fsys.Stat(SegmentPath(w.path, top+1)); err != nil {
				break
			}
			top++
		}
	}
	for i := top; i > 0; i-- {
		// A segment that stays behind is bound to an older base and never
		// applies; removing it only tidies up, so a failure is ignored.
		_ = w.fsys.Remove(SegmentPath(w.path, i))
	}
	w.based, w.seq = true, 0
	w.base = sealedCRC(data)
	w.prev = w.base
	w.baseBytes, w.segBytes = len(data), 0
	return nil
}

// Segment writes s, whose tables must be canonical and hold only the
// answers paid since the previous snapshot, as the chain's next segment.
// It must follow a Base.
func (w *Writer) Segment(s *State) error {
	path := SegmentPath(w.path, w.seq+1)
	data := w.enc.segment(s, w.seq+1, w.base, w.prev)
	if err := WriteFileAtomicFS(w.fsys, path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	w.seq++
	w.prev = sealedCRC(data)
	w.segBytes += len(data)
	return nil
}
