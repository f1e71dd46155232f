// Package checkpoint persists the state of a long max-finding run so a
// crashed session can resume without repaying for answered comparisons.
//
// # What a snapshot holds, and why resume is replay
//
// A snapshot is not a serialized call stack. It records the run's
// *knowledge*: the configuration fingerprint (seed, un, phase-2 choice,
// items hash), the current phase and survivor set, the ledger counters and
// budget spend so far, and — crucially — the full memo tables, i.e. every
// pair's frozen answer per worker class. Session.ResumeWorkload re-runs the
// algorithm from the beginning with the memo tables primed: every
// pre-checkpoint comparison is a free memo hit, the restored ledger carries
// its paid count, and the first genuinely new comparison lands exactly where
// the crashed run left off. With deterministic comparators (ε = 0 and an
// order-independent tie policy such as worker.HashTie) the resumed run's
// final answer, paid totals, and survivor sets are bit-identical to an
// uninterrupted run — replay sidesteps serializing any in-flight algorithm
// state, which is what makes the guarantee provable rather than hopeful.
//
// # Format
//
// The on-disk format is a fixed header — magic "CMCK", a version, the
// payload length, and a CRC-32C checksum — followed by a little-endian
// payload. Decoding is strictly bounds-checked and fails closed: a
// truncated, bit-flipped, or version-skewed file yields an error wrapping
// ErrCorrupt, never a panic and never a silently wrong resume. Save writes
// via a temp file in the target directory followed by an atomic rename, so
// readers observe either the previous complete snapshot or the new one.
//
// Version 4 stores each pair-memo table as varint deltas over its (A, B)
// order (see pairStream): a typical pair takes about 2 bytes instead of
// the 24 of the fixed-width version 3 layout. A running session's base
// streams its tables straight from the memos (see Live). Versions 2 and 3
// still decode.
//
// # Base and segments
//
// A checkpointing run (see Writer) keeps its snapshots as a chain: a full
// v4 snapshot at the path, the base, and delta segments beside it at
// "<path>-1", "<path>-2", … (SegmentPath). A segment has its own envelope
// (magic "CMSG"). It starts with its sequence number, the CRC-32C of the
// base it extends and the CRC-32C of its predecessor (the base, for
// segment 1), so a segment left by an earlier chain at the same path never
// applies. Version 2, which Writer writes, then holds only what changed
// since its predecessor: the phase, rung, decision hash, workload blob and
// budget cost when they differ, the ledger and budget counters that moved
// as varint deltas, and the answers paid since the previous snapshot as v4
// delta tables. The configuration fingerprint is the base's, bound by the
// base CRC. Version 1 segments, which repeated a whole v4 payload
// (survivors empty), still load.
//
// Load reads the base, then applies segments 1, 2, … in order: each
// replaces the scalar state (phase, ledger, budget, rung, decision hash,
// workload blob) and adds its answers. Replay stops at the first segment
// that is missing, corrupt or torn, or bound to another base or
// predecessor, so a bad segment loses the answers from it on — what a
// missed interval snapshot loses — and never the base. The tables are then
// put in canonical order, the first answer for a pair winning, as
// Memo.Prime does.
//
// A run writes a base at every phase and rank boundary, and instead of a
// segment whenever the segments since the last base hold more bytes than
// that base; each base removes the segments it covers. The total written
// therefore stays proportional to the answers paid, a resume reads a
// bounded number of segments, and a finished run leaves one file.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"crowdmax/internal/cost"
	"crowdmax/internal/faults"
)

// ErrCorrupt marks a checkpoint file that failed validation — wrong magic,
// unsupported version, truncation, checksum mismatch, or an inconsistent
// payload. Every Decode/Load failure mode wraps it, so callers need exactly
// one errors.Is check to distinguish "bad file" from I/O trouble.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")

// magic identifies a checkpoint file; version is the codec revision.
// Version 2 added the degrade-controller state (Rung, DecisionHash); version
// 3 added the workload envelope (Kind, the opaque per-workload state blob,
// and the value-query memo table); version 4 delta-encodes the pair-memo
// tables. Decode reads v4, v3 and — because a v2 file can only have been
// written by a max-find run — v2, which loads with Kind = KindMaxFind and
// empty extras. Anything else fails closed: a v1 file predates the quality
// ladder and silently resuming it could report a guarantee the original run
// never established.
const (
	magic             = "CMCK"
	version           = 4
	versionFixedPairs = 3 // last revision with 24-byte fixed-width pair entries
	versionPreKinds   = 2 // last revision before workload kinds; max-find only

	// headerSize = magic + u32 version + u32 crc + u64 payload length.
	headerSize = 4 + 4 + 4 + 8

	// maxStringLen bounds decoded string fields; maxPairs bounds decoded
	// memo tables and survivor sets (an n=10^6 run has < 10^8 pairs asked;
	// anything past this is a forged length, not a real run).
	maxStringLen = 256
	maxPairs     = 1 << 28
	// maxPairID bounds the magnitude of a memo pair's item IDs, so every v4
	// delta fits a uvarint with the winner bit beside it. Memo IDs are
	// below 2^31; anything near this bound is forged.
	maxPairID = 1 << 62
)

// castagnoli is the CRC-32C table (the polynomial with hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// KindMaxFind is the workload kind of the original two-phase max-finding
// session — the kind every pre-v3 snapshot implicitly has.
const KindMaxFind = "max-find"

// PairAnswer is one memoized comparison: the unordered pair's item IDs and
// the frozen winner ID.
type PairAnswer struct {
	A, B, Winner int64
}

// ValueAnswer is one memoized cardinal value query: the item ID, the vote
// index, and the frozen estimate.
type ValueAnswer struct {
	ID, Rep int64
	Value   float64
}

// State is one snapshot of a session run. Fields divide into the
// configuration fingerprint (Seed..ItemsHash — ResumeWorkload refuses a
// snapshot whose fingerprint does not match the session and items it is
// applied to), progress markers (Phase, Survivors), restored accounting
// (ledger counters, budget spend), and the replay substrate (the two memo
// tables).
type State struct {
	// Seed is the session's root rng seed; identical seeds are what make
	// resumed and uninterrupted runs comparable at all.
	Seed uint64
	// Un, Phase2 and TrackLosses fingerprint the algorithm configuration.
	// Loss tracking is gone from the algorithms; the flag is still encoded
	// so that a snapshot taken with it set is refused by name on resume.
	Un          int
	Phase2      int
	TrackLosses bool
	// NItems and ItemsHash fingerprint the input (count + FNV-1a over IDs
	// and value bits).
	NItems    int
	ItemsHash uint64

	// Phase labels the boundary or interval the snapshot was taken at
	// ("start", "phase1", "done", or "interval").
	Phase string
	// Survivors holds the item IDs of the last known survivor set (the
	// phase-1 output when taken at or past that boundary).
	Survivors []int64
	// Rung and DecisionHash carry the degrade controller's state at
	// snapshot time: the quality-ladder rung the run had reached ("" when
	// no controller ran or none was decided yet) and the FNV hash of its
	// decision log. A resumed run replays to the same rung; the hash lets
	// harnesses verify the whole ladder walk matched, not just its
	// endpoint.
	Rung         string
	DecisionHash uint64

	// Comparisons, MemoHits and Steps are the run ledger's counters at
	// snapshot time.
	Comparisons [cost.MaxClasses]int64
	MemoHits    [cost.MaxClasses]int64
	Steps       int64
	// BudgetSpent and BudgetCost are the budget's admitted totals at
	// snapshot time (zero when the run has no budget).
	BudgetSpent [cost.MaxClasses]int64
	BudgetCost  float64

	// NaiveMemo and ExpertMemo are the frozen pair answers per class,
	// sorted by (A, B) so encoding is deterministic.
	NaiveMemo, ExpertMemo []PairAnswer

	// Kind names the workload the snapshot belongs to (KindMaxFind,
	// "top-k", "score"). ResumeWorkload checks it; a v2 file decodes with
	// KindMaxFind. Encode writes KindMaxFind when empty.
	Kind string
	// Workload is the workload's opaque private state blob (nil for
	// max-find): the top-k completed-rank log, the score configuration.
	// The checkpoint codec frames and checksums it but never interprets it.
	Workload []byte
	// ValueMemo is the frozen value-query answers (crowd scoring), sorted
	// by (ID, Rep) so encoding is deterministic. Empty for comparison-only
	// workloads.
	ValueMemo []ValueAnswer
}

// SortPairs puts the state's tables in the canonical order Encode writes:
// each pair-memo entry with A ≤ B (the pair is unordered), sorted by
// (A, B) with later duplicates of a pair dropped (the first answer wins,
// as in Memo.Prime), and the value-memo table sorted by (ID, Rep), again
// with the first answer of a repeated vote kept. Encode and SaveFS call it
// first; on pair tables already in that order it only checks them.
func (s *State) SortPairs() {
	s.NaiveMemo = canonicalPairs(s.NaiveMemo)
	s.ExpertMemo = canonicalPairs(s.ExpertMemo)
	s.ValueMemo = canonicalValues(s.ValueMemo)
}

// ComparePairs orders pair answers by (A, B), the order of encoded tables.
func ComparePairs(a, b PairAnswer) int {
	return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
}

// CompareValues orders value answers by (ID, Rep), the order of encoded
// tables.
func CompareValues(a, b ValueAnswer) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Rep, b.Rep))
}

// canonicalValues sorts t in place by (ID, Rep), keeping the first answer
// of a repeated vote, and returns it (shortened when repeats were
// dropped).
func canonicalValues(t []ValueAnswer) []ValueAnswer {
	slices.SortStableFunc(t, CompareValues)
	return slices.CompactFunc(t, func(a, b ValueAnswer) bool { return a.ID == b.ID && a.Rep == b.Rep })
}

// canonicalPairs orders t in place into the canonical table form and
// returns it (shortened when duplicates were dropped). An already
// canonical table is returned untouched after one linear check.
func canonicalPairs(t []PairAnswer) []PairAnswer {
	if pairsCanonical(t) {
		return t
	}
	for i := range t {
		if t[i].A > t[i].B {
			t[i].A, t[i].B = t[i].B, t[i].A
		}
	}
	slices.SortStableFunc(t, ComparePairs)
	return slices.CompactFunc(t, func(a, b PairAnswer) bool { return a.A == b.A && a.B == b.B })
}

// pairsCanonical reports whether every entry has A ≤ B and the entries are
// strictly increasing in (A, B).
func pairsCanonical(t []PairAnswer) bool {
	for i, e := range t {
		if e.A > e.B || (i > 0 && ComparePairs(t[i-1], e) >= 0) {
			return false
		}
	}
	return true
}

// Encode renders the state in the versioned, checksummed binary format,
// after putting its tables in canonical order in place (see SortPairs).
func Encode(s *State) []byte {
	s.SortPairs()
	var e Encoder
	return e.Encode(s)
}

// Encoder renders snapshots into one reused buffer, header included, so a
// writer that snapshots the same run over and over allocates nothing once
// the buffer has grown to the snapshot's size. The zero value is ready to
// use; an Encoder must not be shared by concurrent calls.
type Encoder struct{ buf []byte }

// Encode renders s like the package-level Encode, except that s's tables
// must already be in canonical order (see SortPairs), so a writer that
// keeps them so skips that pass. The returned bytes alias the encoder's
// buffer and are valid until its next call.
func (e *Encoder) Encode(s *State) []byte { return e.encode(s, nil) }

// A PairWalk streams one pair-memo table to the encoder: it calls yield
// once per answered pair, a ≤ b, in increasing (a, b) order, with bWon set
// when b won.
type PairWalk func(yield func(a, b int, bWon bool))

// Live is what a base reads from a running session in place of its
// State's pair tables and counters: each pair table is streamed from its
// walk, and Counters fills the ledger and budget counters after both walks.
// A run charges an answer before it stores it, so counters read after the
// walks count every answer the walks saw.
type Live struct {
	Naive, Expert PairWalk
	Counters      func(*State)
}

// encode renders s, with its pair tables and counters read from live when
// it is non-nil.
func (e *Encoder) encode(s *State, live *Live) []byte {
	p := payload{b: append(e.buf[:0], make([]byte, headerSize)...)}
	p.body(s, s.Survivors, live)
	e.buf = p.b
	sealHeader(magic, version, p.b)
	return p.b
}

// body appends the v4 payload of s, with survivors as its survivor list
// and, when live is non-nil, its pair tables and counters read from live.
func (p *payload) body(s *State, survivors []int64, live *Live) {
	p.u64(s.Seed)
	p.i64(int64(s.Un))
	p.i64(int64(s.Phase2))
	p.bool(s.TrackLosses)
	p.i64(int64(s.NItems))
	p.u64(s.ItemsHash)
	p.str(s.Phase)
	p.i64(int64(len(survivors)))
	for _, id := range survivors {
		p.i64(id)
	}
	p.str(s.Rung)
	p.u64(s.DecisionHash)
	at := len(p.b)
	p.counters(s)
	if live == nil {
		p.pairs(s.NaiveMemo, nil)
		p.pairs(s.ExpertMemo, nil)
	} else {
		p.pairs(nil, live.Naive)
		p.pairs(nil, live.Expert)
		// The counters are fixed-width: rewrite them in place.
		live.Counters(s)
		(&payload{b: p.b[at:at]}).counters(s)
	}
	kind := s.Kind
	if kind == "" {
		kind = KindMaxFind
	}
	p.str(kind)
	p.i64(int64(len(s.Workload)))
	p.b = append(p.b, s.Workload...)
	p.values(s.ValueMemo)
}

// counters appends the ledger and budget counters of s.
func (p *payload) counters(s *State) {
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.Comparisons[i])
	}
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.MemoHits[i])
	}
	p.i64(s.Steps)
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.BudgetSpent[i])
	}
	p.u64(math.Float64bits(s.BudgetCost))
}

// values appends a value-memo table: its count, then its entries.
func (p *payload) values(t []ValueAnswer) {
	p.i64(int64(len(t)))
	for _, e := range t {
		p.i64(e.ID)
		p.i64(e.Rep)
		p.u64(math.Float64bits(e.Value))
	}
}

// pairs appends one v4 pair-memo table, t or the one walk yields when walk
// is non-nil: its count, then its pairs (see pairStream). It panics on a
// pair of t whose winner is neither A nor B: no run produces one, and
// writing it would lose it.
func (p *payload) pairs(t []PairAnswer, walk PairWalk) {
	ps := p.stream(len(t))
	if walk != nil {
		ps = ps.walk(walk)
	}
	for _, e := range t {
		// Neither test branches on which item won (a coin flip per pair).
		if min(uint64(e.Winner^e.A), uint64(e.Winner^e.B)) != 0 {
			panic(fmt.Sprintf("checkpoint: pair (%d, %d) with winner %d cannot be encoded", e.A, e.B, e.Winner))
		}
		ps.add(int(e.A), int(e.B), e.Winner == e.B)
	}
	p.b = ps.b[:ps.n]
	binary.LittleEndian.PutUint64(p.b[ps.at:], uint64(ps.count))
}

// pairStream encodes one pair table in the v4 delta layout, a pair per
// add: per pair, the step in A (the first pair's A is absolute), then B
// relative to the new A — or to the previous B when A repeats — shifted
// left one bit, with the low bit set when the winner is B. It panics on
// pairs out of canonical order or whose IDs exceed maxPairID: no run
// produces one, and writing it would be unreadable.
//
// This is most of a snapshot's encode time, so it writes by index into b,
// resliced to its capacity, at n — room reserved up front at about three
// bytes a pair, the typical size, and doubled whenever fewer than two
// worst-case entries fit — and does not branch on which item won (a coin
// flip per pair). EXPERIMENTS.md compares it with a plain
// binary.AppendUvarint loop, in BenchmarkEncoderEncode and end to end.
type pairStream struct {
	b      []byte
	n      int
	at     int // the offset of the table's count
	count  int
	pa, pb int64 // the previous pair
}

// stream starts a pair table of about hint pairs at the end of p.
func (p *payload) stream(hint int) pairStream {
	at := len(p.b)
	b := slices.Grow(p.b, 8+hint*3+2*binary.MaxVarintLen64)
	return pairStream{b: b[:cap(b)], n: at + 8, at: at}
}

// walk appends the pairs walk yields. It works on a copy, which the walk's
// yield makes escape, so that a table's stream stays on the stack.
func (ps pairStream) walk(walk PairWalk) pairStream {
	walk(ps.add)
	return ps
}

// add appends the pair (a, b); its signature is a PairWalk's yield.
func (ps *pairStream) add(a, b int, bWon bool) {
	if len(ps.b)-ps.n < 2*binary.MaxVarintLen64 {
		ps.grow()
	}
	buf, n := ps.b, ps.n
	x, y := int64(a), int64(b)
	d := uint64(y - x)
	switch {
	case x == ps.pa && y > ps.pb && ps.count > 0 && y < maxPairID:
		buf[n] = 0
		n++
		d = uint64(y - ps.pb)
	case x > y || x <= -maxPairID || y >= maxPairID:
		ps.bad(x, y)
	case ps.count == 0:
		n += binary.PutVarint(buf[n:], x)
	case x > ps.pa:
		n = putUvarint(buf, n, uint64(x-ps.pa))
	default:
		ps.bad(x, y)
	}
	var w uint64
	if bWon {
		w = 1
	}
	ps.n = putUvarint(buf, n, d<<1|w)
	ps.pa, ps.pb = x, y
	ps.count++
}

// grow doubles the stream's room. It is kept out of add, whose frame it
// would otherwise enlarge.
//
//go:noinline
func (ps *pairStream) grow() {
	ps.b = slices.Grow(ps.b[:ps.n], ps.n)
	ps.b = ps.b[:cap(ps.b)]
}

// bad panics on the pair (x, y): out of order, not after the stream's
// last, or out of range.
func (ps *pairStream) bad(x, y int64) {
	panic(fmt.Sprintf("checkpoint: pair (%d, %d) cannot follow (%d, %d) in a table", x, y, ps.pa, ps.pb))
}

// putUvarint writes x as a uvarint at b[n:] and returns the new offset,
// with the one-byte case inline.
func putUvarint(b []byte, n int, x uint64) int {
	if x < 0x80 {
		b[n] = byte(x)
		return n + 1
	}
	return n + binary.PutUvarint(b[n:], x)
}

// Decode parses an encoded state, failing closed (ErrCorrupt, wrapped) on
// any inconsistency. It never panics on hostile input: every read is
// bounds-checked and every count validated against the remaining bytes
// before allocation. A pair-memo entry whose winner is neither of its two
// IDs is corrupt in every version, as is a v4 table that is not strictly
// increasing in (A, B).
func Decode(data []byte) (*State, error) {
	body, v, err := OpenEnvelopeAny(magic, data)
	if err != nil {
		return nil, err
	}
	if v != version && v != versionFixedPairs && v != versionPreKinds {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d, %d or %d)",
			ErrCorrupt, v, versionPreKinds, versionFixedPairs, version)
	}

	r := reader{b: body}
	s := r.body(v)
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// body reads a payload written by codec version v.
func (r *reader) body(v uint32) *State {
	s := &State{}
	s.Seed = r.u64()
	s.Un = int(r.i64())
	s.Phase2 = int(r.i64())
	s.TrackLosses = r.bool()
	s.NItems = int(r.i64())
	s.ItemsHash = r.u64()
	s.Phase = r.str()
	if n := r.count(8); n > 0 {
		s.Survivors = make([]int64, n)
		for i := range s.Survivors {
			s.Survivors[i] = r.i64()
		}
	}
	s.Rung = r.str()
	s.DecisionHash = r.u64()
	for i := 0; i < cost.MaxClasses; i++ {
		s.Comparisons[i] = r.i64()
	}
	for i := 0; i < cost.MaxClasses; i++ {
		s.MemoHits[i] = r.i64()
	}
	s.Steps = r.i64()
	for i := 0; i < cost.MaxClasses; i++ {
		s.BudgetSpent[i] = r.i64()
	}
	s.BudgetCost = math.Float64frombits(r.u64())
	for _, table := range []*[]PairAnswer{&s.NaiveMemo, &s.ExpertMemo} {
		if v == version {
			*table = r.deltaPairs()
		} else {
			*table = r.fixedPairs()
		}
	}
	if v == versionPreKinds {
		// A v2 file was written by a max-find run; the workload envelope
		// fields did not exist yet.
		s.Kind = KindMaxFind
		return s
	}
	if s.Kind = r.str(); s.Kind == "" {
		// Encode always writes a kind; normalize a hand-forged empty
		// one the same way Encode would have.
		s.Kind = KindMaxFind
	}
	s.Workload = r.blob()
	s.ValueMemo = r.values()
	return s
}

// blob reads a length-prefixed byte string, nil when empty.
func (r *reader) blob() []byte {
	if n := r.count(1); n > 0 {
		return append([]byte(nil), r.take(int(n))...)
	}
	return nil
}

// values reads a counted value-memo table.
func (r *reader) values() []ValueAnswer {
	n := r.count(24)
	if n <= 0 {
		return nil
	}
	t := make([]ValueAnswer, n)
	for i := range t {
		t[i] = ValueAnswer{ID: r.i64(), Rep: r.i64(), Value: math.Float64frombits(r.u64())}
	}
	return t
}

// done returns the latched error, or one for unread trailing bytes.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != r.off {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// fixedPairs reads one v2/v3 pair-memo table: a count, then 24 bytes of
// (A, B, Winner) per entry.
func (r *reader) fixedPairs() []PairAnswer {
	n := r.count(24)
	if n <= 0 {
		return nil
	}
	t := make([]PairAnswer, n)
	for i := range t {
		t[i] = PairAnswer{A: r.i64(), B: r.i64(), Winner: r.i64()}
		r.checkPair(t[i])
	}
	return t
}

// deltaPairs reads one v4 pair-memo table (see pairStream for the
// layout), failing on any entry that does not strictly follow its
// predecessor in (A, B) order.
func (r *reader) deltaPairs() []PairAnswer {
	n := r.count(2) // at least one byte for the A step and one for B
	if n <= 0 {
		return nil
	}
	t := make([]PairAnswer, n)
	var prev PairAnswer
	for i := range t {
		var e PairAnswer
		if i == 0 {
			e.A = r.varint()
		} else {
			e.A = prev.A + int64(r.uvarint())
			if e.A < prev.A {
				r.fail("pair %d: A step overflows", i)
			}
		}
		d := r.uvarint()
		base := e.A
		if i > 0 && e.A == prev.A {
			if d>>1 == 0 {
				r.fail("pair %d: (%d, %d) repeats its predecessor", i, e.A, prev.B)
			}
			base = prev.B
		}
		e.B = base + int64(d>>1)
		if e.B < base {
			r.fail("pair %d: B step overflows", i)
		}
		e.Winner = e.A
		if d&1 != 0 {
			e.Winner = e.B
		}
		if r.err != nil {
			return nil
		}
		r.checkPair(e)
		t[i], prev = e, e
	}
	return t
}

// checkPair fails the decode on an entry no memo could have produced: a
// winner that is neither of the pair's IDs, or an ID beyond maxPairID.
func (r *reader) checkPair(e PairAnswer) {
	switch {
	case e.Winner != e.A && e.Winner != e.B:
		r.fail("pair (%d, %d) names winner %d", e.A, e.B, e.Winner)
	case e.A <= -maxPairID || e.A >= maxPairID || e.B <= -maxPairID || e.B >= maxPairID:
		r.fail("pair (%d, %d) exceeds the ID bound", e.A, e.B)
	}
}

// Save atomically writes the state to path: encode, write to a temp file in
// the same directory, fsync, rename. An interrupted save leaves the previous
// snapshot (or no file) behind, never a truncated one.
func Save(path string, s *State) error {
	return SaveFS(nil, path, s)
}

// SaveFS is Save over an injectable filesystem (nil for the real one), so
// snapshot durability is testable under injected disk faults.
func SaveFS(fsys faults.FS, path string, s *State) error {
	if err := WriteFileAtomicFS(fsys, path, Encode(s), 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	return nil
}

// Load reads the snapshot at path and replays its segments (see the
// package comment). Decoding failures of the base wrap ErrCorrupt; a
// missing file surfaces as the usual fs.ErrNotExist.
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load over an injectable filesystem (nil for the real one).
func LoadFS(fsys faults.FS, path string) (*State, error) {
	if fsys == nil {
		fsys = faults.OS()
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	base := sealedCRC(data)
	for seq, prev := 1, base; ; seq++ {
		data, err := fsys.ReadFile(SegmentPath(path, seq))
		if err != nil {
			break
		}
		seg, err := decodeSegment(data, seq, base, prev, s)
		if err != nil {
			break
		}
		s.apply(seg)
		prev = sealedCRC(data)
	}
	s.SortPairs()
	return s, nil
}

// payload is the append-side of the little-endian codec.
type payload struct{ b []byte }

func (p *payload) u64(v uint64) { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *payload) i64(v int64)  { p.u64(uint64(v)) }
func (p *payload) bool(v bool) {
	if v {
		p.b = append(p.b, 1)
	} else {
		p.b = append(p.b, 0)
	}
}
func (p *payload) str(s string) {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	p.i64(int64(len(s)))
	p.b = append(p.b, s...)
}

// reader is the bounds-checked decode side; the first failure latches err
// and every subsequent read returns zero, so decode loops need one error
// check at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bool() bool {
	s := r.take(1)
	return s != nil && s[0] != 0
}

func (r *reader) str() string {
	n := r.count(1)
	if n < 0 {
		return ""
	}
	if n > maxStringLen {
		r.fail("string length %d exceeds cap %d", n, maxStringLen)
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a length prefix and validates it against the remaining bytes
// at elemSize bytes per element, so a forged length can never trigger a
// huge allocation. Returns -1 after a latched error.
func (r *reader) count(elemSize int) int64 {
	n := r.i64()
	if r.err != nil {
		return -1
	}
	if n < 0 || n > maxPairs || n*int64(elemSize) > int64(len(r.b)-r.off) {
		r.fail("count %d inconsistent with %d remaining bytes", n, len(r.b)-r.off)
		return -1
	}
	return n
}
