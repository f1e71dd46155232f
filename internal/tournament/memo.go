package tournament

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Memo caches the first answer to every unordered pair of item IDs in
// [0, n) for one worker class — literally the n × n comparison table of
// Appendix A, folded to its upper triangle. Each pair (lo, hi), lo ≤ hi,
// owns a 2-bit cell: one bit marks the pair answered, the other says the
// higher ID won.
//
// Row lo holds the cells for hi ≥ lo and is installed on its first store:
// its words are carved from slabs that double in size, and the row's
// position is published into rows[lo] by compare-and-swap. A memo that
// touches few items stays small — an expert memo's 2·un − 1 rows fit in
// the first slab, 24 KB with the row index at n = 2000 — and a full table
// costs a logarithmic number of allocations.
//
// Lookups are lock-free and allocation-free: the row's descriptor, its
// slab (one of a few, hot in cache) and the cell's word are three loads.
// A store is a compare-and-swap loop on the cell's word, so the first
// store for a pair wins: a later or concurrent store of the same pair finds
// the answered bit set and leaves the cell alone. Two goroutines that miss
// the same pair at once both really ask the crowd — both are billed — and
// both then serve the one frozen answer.
//
// Item IDs are dense indices (see item.Item.ID); an ID outside [0, n)
// panics.
type Memo struct {
	n        int
	triangle int64           // words of the whole triangle, the most the slabs need
	rows     []atomic.Uint64 // per lo: row descriptor + 1 (slab, word offset); 0 until installed
	cur      atomic.Int64    // index of the slab rows are carved from
	slabs    [memoMaxSlabs]atomic.Pointer[memoSlab]
	carved   atomic.Int64 // words of installed rows
	count    atomic.Int64 // stored pairs
}

// memoSlab is a block of row words; used counts the words claimed so far
// (it may run past len(words) when the last claims did not fit).
type memoSlab struct {
	words []atomic.Uint64
	used  atomic.Int64
}

const (
	memoIDLimit = 1 << 31

	memoAnswered = 1 // cell bit: the pair is answered
	memoHiWon    = 2 // cell bit: the higher ID won

	// A row descriptor packs its slab index above memoOffBits bits of word
	// offset into the slab.
	memoOffBits = 56
	memoOffMask = 1<<memoOffBits - 1

	// memoFirstSlabRows is the number of full-length rows the first slab
	// holds: an expert memo's few rows fit in it.
	memoFirstSlabRows = 16

	// memoMaxSlabs bounds the doubling slabs: the first holds at least 16
	// words, so 64 of them outgrow the 2^56-word triangle of n = 2^31.
	memoMaxSlabs = 64
)

// NewMemo returns an empty memo over item IDs [0, n). It allocates only the
// row index; rows are carved on first touch.
func NewMemo(n int) *Memo {
	if n < 0 || n > memoIDLimit {
		panic(fmt.Sprintf("tournament: memo size must be in [0, 2^31], got %d", n))
	}
	// Row lo spans ⌈(n − lo)/32⌉ words: summed over lo, q = ⌊n/32⌋ full
	// blocks of 32 rows and r = n mod 32 rows of q + 1 words.
	q, r := int64(n/32), int64(n%32)
	return &Memo{n: n, triangle: 16*q*(q+1) + r*(q+1), rows: make([]atomic.Uint64, n)}
}

// rowWords is the number of words row lo spans: one 2-bit cell per
// hi ∈ [lo, n), 32 cells a word.
func (m *Memo) rowWords(lo int) int { return (m.n - lo + 31) >> 5 }

// cell locates the pair's cell: its row, the row's descriptor (0 when the
// row is not installed yet), the word index within the row and the bit
// shift within the word.
func (m *Memo) cell(a, b int) (lo int, d uint64, word, shift int) {
	if uint(a) >= uint(m.n) || uint(b) >= uint(m.n) {
		m.outOfRange(a, b)
	}
	lo, hi := min(a, b), max(a, b)
	c := hi - lo
	return lo, m.rows[lo].Load(), c >> 5, 2 * (c & 31)
}

func (m *Memo) outOfRange(a, b int) {
	panic(fmt.Sprintf("tournament: memo item IDs must be in [0, %d) (the memo's n), got (%d, %d)", m.n, a, b))
}

// word returns the row word a descriptor and word index name.
func (m *Memo) word(d uint64, i int) *atomic.Uint64 {
	d--
	return &m.slabs[d>>memoOffBits].Load().words[int(d&memoOffMask)+i]
}

// Lookup returns the frozen winner ID for the unordered pair (a, b), or
// false when no answer is stored yet. Checkpoint writers use it to pick up
// the answers to the pairs paid since their last snapshot. Safe for
// concurrent use.
func (m *Memo) Lookup(a, b int) (winner int, ok bool) {
	_, d, w, shift := m.cell(a, b)
	if d == 0 {
		return 0, false
	}
	c := m.word(d, w).Load() >> shift
	if c&memoAnswered == 0 {
		return 0, false
	}
	if c&memoHiWon != 0 {
		return max(a, b), true
	}
	return min(a, b), true
}

// store records the winner ID for the pair; any winner other than the
// higher ID records the lower. The first stored answer for a pair is
// frozen: a later or concurrent answer does not overwrite it.
func (m *Memo) store(a, b, winner int) {
	lo, d, w, shift := m.cell(a, b)
	if d == 0 {
		d = m.install(lo)
	}
	c := uint64(memoAnswered)
	if winner == max(a, b) && a != b {
		c |= memoHiWon
	}
	c <<= shift
	word := m.word(d, w)
	for {
		old := word.Load()
		if old>>shift&memoAnswered != 0 {
			return // frozen by an earlier store
		}
		if word.CompareAndSwap(old, old|c) {
			m.count.Add(1)
			return
		}
	}
}

// install carves row lo from the current slab — moving on to the next
// when it is full — and publishes it by compare-and-swap; it returns the
// row's descriptor. A racing installer that loses the swap adopts the
// winner's row; the words it claimed stay unused.
func (m *Memo) install(lo int) uint64 {
	need := int64(m.rowWords(lo))
	for {
		i := m.cur.Load()
		s := m.slabs[i].Load()
		if s == nil {
			m.slabs[i].CompareAndSwap(nil, m.newSlab(int(i), need))
			continue
		}
		if off := s.used.Add(need) - need; off+need <= int64(len(s.words)) {
			d := uint64(i)<<memoOffBits | uint64(off) + 1
			if m.rows[lo].CompareAndSwap(0, d) {
				m.carved.Add(need)
				return d
			}
			return m.rows[lo].Load()
		}
		m.cur.CompareAndSwap(i, i+1)
	}
}

// newSlab allocates slab i: twice its predecessor (memoFirstSlabRows
// full-length rows for the first), but no more than the rows not yet
// installed span, and never less than the need words of the row that opens
// it.
func (m *Memo) newSlab(i int, need int64) *memoSlab {
	size := int64(memoFirstSlabRows * m.rowWords(0))
	if i > 0 {
		size = 2 * int64(len(m.slabs[i-1].Load().words))
	}
	return &memoSlab{words: make([]atomic.Uint64, max(min(size, m.triangle-m.carved.Load()), need))}
}

// Len returns the number of cached pairs.
func (m *Memo) Len() int { return int(m.count.Load()) }

// Walk calls yield once per cached pair, lo ≤ hi, in (lo, hi) order — the
// deterministic serialization order of the checkpoint codec — with hiWon
// set when the higher ID won. It walks the rows in order and jumps over
// runs of empty cells by their trailing zero bits. Safe for concurrent use
// (cells are read from atomic words): a pair stored during the walk may or
// may not be yielded.
func (m *Memo) Walk(yield func(lo, hi int, hiWon bool)) {
	for lo := range m.rows {
		d := m.rows[lo].Load()
		if d == 0 {
			continue
		}
		d--
		off := int(d & memoOffMask)
		row := m.slabs[d>>memoOffBits].Load().words[off : off+m.rowWords(lo)]
		for w := range row {
			v := row[w].Load()
			for c := w << 5; v != 0; c, v = c+1, v>>2 {
				skip := bits.TrailingZeros64(v) >> 1
				c, v = c+skip, v>>(2*skip)
				yield(lo, lo+c, v&memoHiWon != 0)
			}
		}
	}
}

// Prime pre-loads the answer for one pair — how a resumed session replays a
// checkpoint's frozen answers. Like store, the first answer for a pair wins.
func (m *Memo) Prime(a, b, winner int) { m.store(a, b, winner) }
