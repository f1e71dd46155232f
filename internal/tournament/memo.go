package tournament

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Memo caches the first answer to every unordered pair for one worker class
// — the n × n comparison table of Appendix A — as one open-addressed hash
// table of packed uint64 entries (both 31-bit item IDs, a winner bit and an
// occupancy bit).
//
// Lookups are lock-free and allocation-free: one atomic pointer load and
// one linear probe of atomic words. Stores and growth serialize on one
// mutex: a store probes under it and publishes its entry with one atomic
// store. When a store would lift the table past ¾ load, the storer first
// builds a table of twice the capacity, rehashes every entry into it and
// publishes it with one atomic pointer store. A lookup still holding the
// older table sees every entry that table ever held, so no answer is lost
// or changes; stores only follow paid comparisons, so the mutex is never
// on the memo-hit path.
//
// The first store for a pair wins: a later or concurrent store of the same
// pair finds the frozen entry under the lock and leaves it alone, without
// allocating. Two goroutines that miss the same pair at once both really
// ask the crowd — both are billed — and both then serve the one frozen
// answer.
type Memo struct {
	table atomic.Pointer[memoTable]
	mu    sync.Mutex // serializes stores and growth
	n     int        // stored pairs; guarded by mu
}

// memoTable is the memo's open-addressed table. Slots hold packed entries;
// zero means empty. Occupancy stays at most ¾, so a probe always ends at an
// empty slot.
type memoTable struct {
	mask  uint64 // len(slots) − 1 (capacity is a power of two)
	slots []atomic.Uint64
}

// Packed entry layout (single uint64):
//
//	bits 63..33  lo ID (the smaller of the pair, 31 bits)
//	bits 32..2   hi ID (the larger of the pair, 31 bits)
//	bit  1       winner-is-hi
//	bit  0       occupied (keeps every entry non-zero, even pair (0, 1))
const (
	memoIDLimit   = 1 << 31
	memoKeyMask   = ^uint64(3)
	memoWinnerBit = uint64(2)
	memoLiveBit   = uint64(1)

	// memoMinSlots is the initial table capacity of NewMemo; each growth
	// doubles it.
	memoMinSlots = 1 << 10
)

// NewMemo returns an empty memo table with the default initial capacity.
func NewMemo() *Memo { return NewMemoSized(0) }

// NewMemoSized returns an empty memo pre-sized for about pairs distinct
// entries, avoiding growth when the caller can bound the number of
// comparisons up front. pairs ≤ 0 selects the default initial capacity.
func NewMemoSized(pairs int) *Memo {
	slots := memoMinSlots
	for slots*3/4 < pairs {
		slots *= 2
	}
	m := &Memo{}
	m.table.Store(newMemoTable(slots))
	return m
}

func newMemoTable(slots int) *memoTable {
	return &memoTable{mask: uint64(slots - 1), slots: make([]atomic.Uint64, slots)}
}

// packKey orders the pair and packs it into the key bits of an entry.
func packKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	if a < 0 || b >= memoIDLimit {
		panic(fmt.Sprintf("tournament: memo item IDs must be in [0, 2^31), got (%d, %d)", a, b))
	}
	return uint64(a)<<33 | uint64(b)<<2
}

// memoHash avalanches the key bits; cheap and uniform (SplitMix64 finalizer).
func memoHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// probe returns the slot holding key k, or the empty slot where k belongs,
// and the word found there (zero when k is absent).
func (t *memoTable) probe(k uint64) (*atomic.Uint64, uint64) {
	for i := memoHash(k); ; i++ {
		s := &t.slots[i&t.mask]
		if e := s.Load(); e == 0 || e&memoKeyMask == k {
			return s, e
		}
	}
}

// entryWinner decodes an entry's winner ID given its key.
func entryWinner(e uint64) int {
	lo := int(e >> 33)
	hi := int(e >> 2 & (memoIDLimit - 1))
	if e&memoWinnerBit != 0 {
		return hi
	}
	return lo
}

// Lookup returns the frozen winner ID for the unordered pair (a, b), or
// false when no answer is stored yet. Checkpoint writers use it to pick up
// just the pairs paid since their last snapshot instead of rescanning the
// whole table. Safe for concurrent use.
func (m *Memo) Lookup(a, b int) (winner int, ok bool) {
	if _, e := m.table.Load().probe(packKey(a, b)); e != 0 {
		return entryWinner(e), true
	}
	return 0, false
}

// store records the winner ID for the pair. The first stored entry for a
// pair is frozen: a later or concurrent answer does not overwrite it.
func (m *Memo) store(a, b, winner int) {
	k := packKey(a, b)
	e := k | memoLiveBit
	if hi := int(k >> 2 & (memoIDLimit - 1)); winner == hi && a != b {
		e |= memoWinnerBit
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table.Load()
	s, cur := t.probe(k)
	if cur != 0 {
		return // frozen by an earlier store
	}
	if m.n+1 > len(t.slots)*3/4 {
		t = t.grow()
		m.table.Store(t)
		s, _ = t.probe(k)
	}
	s.Store(e)
	m.n++
}

// grow returns a table of twice t's capacity holding every entry of t.
// Callers hold Memo.mu, so t does not change while it is copied.
func (t *memoTable) grow() *memoTable {
	g := newMemoTable(2 * len(t.slots))
	for i := range t.slots {
		if e := t.slots[i].Load(); e != 0 {
			s, _ := g.probe(e & memoKeyMask)
			s.Store(e)
		}
	}
	return g
}

// Len returns the number of cached pairs.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Entries returns every cached (a, b, winner) triple with a ≤ b, sorted by
// (a, b) — the deterministic serialization order the checkpoint codec
// requires. Safe for concurrent use (entries are atomic snapshots). The
// packed entries are sorted as integers: their layout puts the lower ID in
// the top bits and the higher ID below it, so integer order is (a, b) order.
func (m *Memo) Entries() [][3]int {
	var packed []uint64
	t := m.table.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != 0 {
			packed = append(packed, e)
		}
	}
	slices.Sort(packed)
	out := make([][3]int, len(packed))
	for i, e := range packed {
		out[i] = [3]int{int(e >> 33), int(e >> 2 & (memoIDLimit - 1)), entryWinner(e)}
	}
	return out
}

// Prime pre-loads the answer for one pair — how a resumed session replays a
// checkpoint's frozen answers. Like store, the first answer for a pair wins.
func (m *Memo) Prime(a, b, winner int) { m.store(a, b, winner) }
