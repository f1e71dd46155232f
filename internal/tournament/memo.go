package tournament

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Memo caches the first answer to every unordered pair for one worker class
// — the n × n comparison table of Appendix A — as a lock-free hash table.
//
// Each entry is a single packed uint64 (both 31-bit item IDs, a winner bit,
// and an occupancy bit), published with one compare-and-swap into an
// open-addressed table of atomic words. Lookups are pure atomic loads and
// stores are a bounded linear probe ending in one CAS, so the memo never
// serializes the goroutines of a parallel batch the way the previous
// 64-stripe locked design could, and both operations are allocation-free in
// the steady state — the property the zero-alloc hot-path benchmarks assert.
//
// Within one table the first store for a pair wins outright: a losing CAS
// re-reads the slot and adopts the frozen answer. When a table fills, a
// larger one is atomically chained in front of it (tables are append-only
// and never migrated, so no entry is ever lost or re-homed); lookups probe
// newest-to-oldest and return the first match. Every path through Oracle
// serializes duplicate asks of one pair (CompareBatch deduplicates within a
// batch, batches on one run are ordered), so at every batch boundary each
// pair has exactly one reachable entry and every observer agrees on its
// answer forever after.
type Memo struct {
	head atomic.Pointer[memoTable]
}

// memoTable is one fixed-capacity open-addressed table in the memo's chain.
// Slots hold packed entries; zero means empty. count reserves occupancy
// before the publishing CAS, keeping live entries strictly under limit so a
// probe always terminates at an empty slot.
type memoTable struct {
	prev  *memoTable // older and smaller; immutable once chained behind
	mask  uint64     // len(slots) − 1 (capacity is a power of two)
	limit int64      // max entries before a larger table is chained in
	count atomic.Int64
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

	// memoMinSlots is the initial table capacity of NewMemo; growth
	// quadruples, so even million-pair runs chain only a handful of tables.
	memoMinSlots = 1 << 10
	// memoGrowth is the capacity multiplier of each chained table.
	memoGrowth = 4
)

// NewMemo returns an empty memo table with the default initial capacity.
func NewMemo() *Memo { return NewMemoSized(0) }

// NewMemoSized returns an empty memo pre-sized for about pairs distinct
// entries, avoiding growth chaining when the caller can bound the number of
// comparisons up front (e.g. 4·n·un for a filter run). pairs ≤ 0 selects
// the default initial capacity.
func NewMemoSized(pairs int) *Memo {
	slots := memoMinSlots
	for int64(slots)*3/4 < int64(pairs) {
		slots *= memoGrowth
	}
	m := &Memo{}
	m.head.Store(newMemoTable(slots, nil))
	return m
}

func newMemoTable(slots int, prev *memoTable) *memoTable {
	return &memoTable{
		prev:  prev,
		mask:  uint64(slots - 1),
		limit: int64(slots) * 3 / 4,
		slots: make([]atomic.Uint64, slots),
	}
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

// get probes one table for the key; returns the packed entry when present.
// Probes terminate at the first empty slot: entries are never deleted and
// occupancy stays under limit, so an absent key always meets a zero word.
func (t *memoTable) get(k uint64) (uint64, bool) {
	h := memoHash(k)
	for i := uint64(0); ; i++ {
		e := t.slots[(h+i)&t.mask].Load()
		if e == 0 {
			return 0, false
		}
		if e&memoKeyMask == k {
			return e, true
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
	k := packKey(a, b)
	for t := m.head.Load(); t != nil; t = t.prev {
		if e, ok := t.get(k); ok {
			return entryWinner(e), true
		}
	}
	return 0, false
}

// store records the winner ID for the pair. The first published entry for a
// pair is frozen: a concurrent duplicate answer does not overwrite it.
func (m *Memo) store(a, b, winner int) {
	k := packKey(a, b)
	e := k | memoLiveBit
	if hi := int(k >> 2 & (memoIDLimit - 1)); winner == hi && a != b {
		e |= memoWinnerBit
	}
	for {
		head := m.head.Load()
		for t := head; t != nil; t = t.prev {
			if _, ok := t.get(k); ok {
				return // frozen by an earlier store
			}
		}
		if head.tryInsert(k, e) {
			return
		}
		// The newest table is full (or filled while we probed): chain a
		// larger one in front and retry. The CAS admits exactly one grower;
		// losers simply observe the new head on retry.
		m.head.CompareAndSwap(head, newMemoTable(len(head.slots)*memoGrowth, head))
	}
}

// tryInsert publishes the entry into this table, or adopts a concurrent
// store of the same key. It reports false only when the table is at
// capacity, telling the caller to grow.
func (t *memoTable) tryInsert(k, e uint64) bool {
	h := memoHash(k)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		cur := s.Load()
		if cur == 0 {
			// Reserve occupancy before publishing so live entries never
			// reach capacity and probes always terminate.
			if t.count.Add(1) > t.limit {
				t.count.Add(-1)
				return false
			}
			if s.CompareAndSwap(0, e) {
				return true
			}
			t.count.Add(-1)
			cur = s.Load()
		}
		if cur&memoKeyMask == k {
			return true // frozen by a concurrent store
		}
	}
	return false
}

// Len returns the number of cached pairs.
func (m *Memo) Len() int {
	n := 0
	m.scan(func(uint64) { n++ })
	return n
}

// scan visits every reachable entry exactly once, newest table first. An
// entry of an older table is skipped when a newer table holds the same key
// (a pair duplicated across tables by a store/grow race), so each pair
// yields the entry Lookup would return. Chains are a handful of tables
// long, so probing the newer ones is cheaper than a set of every key.
func (m *Memo) scan(fn func(e uint64)) {
	head := m.head.Load()
	for t := head; t != nil; t = t.prev {
		for i := range t.slots {
			e := t.slots[i].Load()
			if e == 0 || shadowed(head, t, e&memoKeyMask) {
				continue
			}
			fn(e)
		}
	}
}

// shadowed reports whether a table newer than t in the chain from head
// holds key k.
func shadowed(head, t *memoTable, k uint64) bool {
	for n := head; n != t; n = n.prev {
		if _, ok := n.get(k); ok {
			return true
		}
	}
	return false
}

// Entries returns every cached (a, b, winner) triple with a ≤ b, sorted by
// (a, b) — the deterministic serialization order the checkpoint codec
// requires. Safe for concurrent use (entries are atomic snapshots). The
// packed entries are sorted as integers: their layout puts the lower ID in
// the top bits and the higher ID below it, so integer order is (a, b) order.
func (m *Memo) Entries() [][3]int {
	var packed []uint64
	m.scan(func(e uint64) { packed = append(packed, e) })
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
