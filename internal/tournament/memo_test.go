package tournament

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestMemoFirstStoreWins(t *testing.T) {
	m := NewMemo(3)
	m.store(1, 2, 2)
	m.store(1, 2, 1) // later, conflicting store must lose
	m.store(2, 1, 1) // either pair order hits the same cell
	if w, ok := m.Lookup(1, 2); !ok || w != 2 {
		t.Fatalf("lookup(1,2) = %d,%v, want 2,true", w, ok)
	}
	if w, ok := m.Lookup(2, 1); !ok || w != 2 {
		t.Fatalf("lookup(2,1) = %d,%v, want 2,true", w, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMemoLookupMiss(t *testing.T) {
	m := NewMemo(6)
	if _, ok := m.Lookup(3, 4); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.store(3, 4, 4)
	if _, ok := m.Lookup(3, 5); ok {
		t.Fatal("unrelated pair in an installed row reported a hit")
	}
	if _, ok := m.Lookup(4, 5); ok {
		t.Fatal("pair in an uninstalled row reported a hit")
	}
}

func TestMemoSelfPair(t *testing.T) {
	m := NewMemo(8)
	m.store(7, 7, 7)
	if w, ok := m.Lookup(7, 7); !ok || w != 7 {
		t.Fatalf("lookup(7,7) = %d,%v, want 7,true", w, ok)
	}
}

// TestMemoEntriesSortedRoundTrip pins the contract the checkpoint codec
// depends on: Entries lists exactly the stored pairs in canonical (a, b)
// order, whatever order they were stored in, and Prime rebuilds an
// equivalent memo.
func TestMemoEntriesSortedRoundTrip(t *testing.T) {
	const n = 186
	m := NewMemo(n)
	want := map[[2]int]int{}
	// Insert in a scrambled order, either pair order, winners on both sides.
	for i := 500; i > 0; i-- {
		a, b := (i*7)%97, (i*13)%89+97
		w := b
		if i%3 == 0 {
			w = a
		}
		if i%2 == 0 {
			a, b = b, a
		}
		m.store(a, b, w)
		if _, ok := want[[2]int{min(a, b), max(a, b)}]; !ok {
			want[[2]int{min(a, b), max(a, b)}] = w
		}
	}
	entries := memoEntries(m)
	if len(entries) != m.Len() || len(entries) != len(want) {
		t.Fatalf("Entries len %d, Len %d, stored pairs %d", len(entries), m.Len(), len(want))
	}
	for i, e := range entries {
		if w, ok := want[[2]int{e[0], e[1]}]; !ok || w != e[2] {
			t.Fatalf("entry %v: stored winner %d,%v", e, w, ok)
		}
		if i > 0 {
			p := entries[i-1]
			if p[0] > e[0] || (p[0] == e[0] && p[1] >= e[1]) {
				t.Fatalf("Entries not strictly sorted at %d: %v then %v", i, p, e)
			}
		}
	}
	clone := NewMemo(n)
	for _, e := range entries {
		clone.Prime(e[0], e[1], e[2])
	}
	if got := memoEntries(clone); !slices.Equal(got, entries) {
		t.Fatalf("primed clone lists %d entries, want the original %d", len(got), len(entries))
	}
}

// TestMemoPanicsOnUnpackableID: a pair naming an ID outside [0, n) — above
// the range or negative — panics on lookup and store, and the message
// names n.
func TestMemoPanicsOnUnpackableID(t *testing.T) {
	const n = 10
	for _, bad := range [][2]int{{-1, 2}, {2, -1}, {n, 2}, {2, n}, {1 << 31, 2}} {
		for _, op := range []string{"Lookup", "store"} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, fmt.Sprintf("[0, %d)", n)) {
						t.Errorf("%s(%d,%d) panicked with %q, want a message naming n = %d", op, bad[0], bad[1], msg, n)
					}
				}()
				m := NewMemo(n)
				if op == "Lookup" {
					m.Lookup(bad[0], bad[1])
				} else {
					m.store(bad[0], bad[1], bad[0])
				}
			}()
		}
	}
}

// TestMemoRowsSizedByUse: a memo that touches a few items installs only
// their rows and stays a few KB, and a full triangle is carved from a
// handful of doubling slabs that hold little more than its words.
func TestMemoRowsSizedByUse(t *testing.T) {
	const n = 2000
	words := func(m *Memo) (total, slabs int) {
		for i := range m.slabs {
			if s := m.slabs[i].Load(); s != nil {
				total += len(s.words)
				slabs++
			}
		}
		return total, slabs
	}
	sparse := NewMemo(n)
	for a := 0; a < 15; a++ {
		for b := a + 1; b < 15; b++ {
			sparse.store(a*131, b*131, b*131)
		}
	}
	if total, _ := words(sparse); total*8 > 16<<10 {
		t.Fatalf("15 touched items hold %d bytes of rows, want at most 16 KB", total*8)
	}
	full := NewMemo(n)
	for a := 0; a < n; a++ {
		full.store(a, n-1, a)
	}
	total, slabs := words(full)
	if int64(total) > full.triangle*11/10 || slabs > 10 {
		t.Fatalf("full triangle of %d words in %d slabs of %d words, want ≤ 10 slabs and 10%% slack", full.triangle, slabs, total)
	}
}

// TestMemoConcurrentFirstStoreWins hammers one memo from many goroutines —
// concurrent stores to overlapping keys with opposing winners, interleaved
// lock-free lookups, every store of a fresh row racing to install it and
// to open slabs mid-race — and then verifies global consistency: every key
// holds one of the two proposed winners, and repeat lookups are stable.
// Run under -race this also proves that rows and slabs are published
// safely.
func TestMemoConcurrentFirstStoreWins(t *testing.T) {
	const (
		workers = 8
		keys    = 5000
	)
	m := NewMemo(2 * keys)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				a, b := k, k+keys
				winner := a
				if (w+k)%2 == 0 {
					winner = b
				}
				m.store(a, b, winner)
				if got, ok := m.Lookup(a, b); ok && got != a && got != b {
					panic(fmt.Sprintf("lookup(%d,%d) returned non-member %d", a, b, got))
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		a, b := k, k+keys
		w1, ok1 := m.Lookup(a, b)
		w2, ok2 := m.Lookup(b, a)
		if !ok1 || !ok2 || w1 != w2 {
			t.Fatalf("key (%d,%d): unstable lookups %d,%v vs %d,%v", a, b, w1, ok1, w2, ok2)
		}
		if w1 != a && w1 != b {
			t.Fatalf("key (%d,%d): winner %d is not a member", a, b, w1)
		}
	}
}

// TestMemoConcurrentStoresOneWord: goroutines storing different pairs whose
// cells share one word all land — the compare-and-swap loop retries rather
// than losing a neighbour's cell — and the first store of each pair wins.
func TestMemoConcurrentStoresOneWord(t *testing.T) {
	const workers = 8
	m := NewMemo(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for hi := 1; hi < 32; hi++ { // row 0, word 0: cells 1..31
					winner := 0
					if (w+hi+rep)%2 == 0 {
						winner = hi
					}
					m.store(0, hi, winner)
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 31 {
		t.Fatalf("Len = %d, want 31", m.Len())
	}
	for hi := 1; hi < 32; hi++ {
		if w, ok := m.Lookup(hi, 0); !ok || (w != 0 && w != hi) {
			t.Fatalf("lookup(%d,0) = %d,%v", hi, w, ok)
		}
	}
}

// TestLossTrackerShardedConcurrent drives the sharded loss tracker from many
// goroutines recording overlapping (loser, winner) pairs and checks the
// distinct-opponent counts, including cross-shard losers.
func TestLossTrackerShardedConcurrent(t *testing.T) {
	lt := NewLossTracker()
	const (
		workers = 8
		losers  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for l := 0; l < losers; l++ {
				// Every worker records the same three winners per loser:
				// duplicates across goroutines must still count once each.
				lt.Record(l, 10_000+l)
				lt.Record(l, 20_000+l)
				lt.Record(l, 30_000+w%3) // partial overlap across workers
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < losers; l++ {
		got := lt.Losses(l)
		want := 2 + min(workers, 3) // two unique winners + overlapping set {30000..30002}
		if got != want {
			t.Fatalf("Losses(%d) = %d, want %d", l, got, want)
		}
	}
	if lt.Losses(999_999) != 0 {
		t.Fatal("unknown loser has losses")
	}
}

// memoEntries lists every cached (a, b, winner) triple in the order Walk
// yields them.
func memoEntries(m *Memo) [][3]int {
	var out [][3]int
	m.Walk(func(lo, hi int, hiWon bool) {
		winner := lo
		if hiWon {
			winner = hi
		}
		out = append(out, [3]int{lo, hi, winner})
	})
	return out
}
