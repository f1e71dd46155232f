package tournament

import (
	"fmt"
	"sync"
	"testing"
)

func TestMemoFirstStoreWins(t *testing.T) {
	m := NewMemo()
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
	m := NewMemo()
	if _, ok := m.Lookup(3, 4); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.store(3, 4, 4)
	if _, ok := m.Lookup(3, 5); ok {
		t.Fatal("unrelated pair reported a hit")
	}
}

func TestMemoSelfPair(t *testing.T) {
	m := NewMemo()
	m.store(7, 7, 7)
	if w, ok := m.Lookup(7, 7); !ok || w != 7 {
		t.Fatalf("lookup(7,7) = %d,%v, want 7,true", w, ok)
	}
}

// TestMemoGrowth drives the table well past its initial capacity so the
// append-only growth chain (new tables installed by CAS, old ones retained
// and scanned newest-first) is exercised, then verifies every entry is still
// served correctly.
func TestMemoGrowth(t *testing.T) {
	m := NewMemo()
	const n = 300 // 300*299/2 = 44850 pairs ≫ the 1024-slot initial table
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			winner := a
			if (a+b)%3 == 0 {
				winner = b
			}
			m.store(a, b, winner)
		}
	}
	want := n * (n - 1) / 2
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			winner := a
			if (a+b)%3 == 0 {
				winner = b
			}
			if w, ok := m.Lookup(b, a); !ok || w != winner {
				t.Fatalf("lookup(%d,%d) = %d,%v, want %d,true", b, a, w, ok, winner)
			}
		}
	}
}

// TestMemoEntriesSortedRoundTrip pins the contract the checkpoint codec
// depends on: Entries is sorted by (a, b) and Prime reconstructs an
// equivalent memo.
func TestMemoEntriesSortedRoundTrip(t *testing.T) {
	m := NewMemo()
	// Insert in a scrambled order.
	for i := 500; i > 0; i-- {
		a, b := (i*7)%97, (i*13)%89+97
		m.store(a, b, b)
	}
	entries := m.Entries()
	if len(entries) != m.Len() {
		t.Fatalf("Entries len %d != Len %d", len(entries), m.Len())
	}
	for i := 1; i < len(entries); i++ {
		p, q := entries[i-1], entries[i]
		if p[0] > q[0] || (p[0] == q[0] && p[1] >= q[1]) {
			t.Fatalf("Entries not strictly sorted at %d: %v then %v", i, p, q)
		}
	}
	clone := NewMemo()
	for _, e := range entries {
		clone.Prime(e[0], e[1], e[2])
	}
	for _, e := range entries {
		if w, ok := clone.Lookup(e[0], e[1]); !ok || w != e[2] {
			t.Fatalf("clone.Lookup(%d,%d) = %d,%v, want %d,true", e[0], e[1], w, ok, e[2])
		}
	}
}

func TestNewMemoSized(t *testing.T) {
	m := NewMemoSized(5000)
	for i := 0; i < 5000; i++ {
		m.store(i, i+100000, i)
	}
	if m.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", m.Len())
	}
}

func TestMemoPanicsOnUnpackableID(t *testing.T) {
	for _, bad := range [][2]int{{-1, 2}, {1 << 31, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("store(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewMemo().store(bad[0], bad[1], bad[0])
		}()
	}
}

// TestMemoConcurrentFirstStoreWins hammers one table from many goroutines —
// concurrent stores to overlapping keys with opposing winners, interleaved
// lookups, enough keys to force growth mid-race — and then verifies global
// consistency: every key holds one of the two proposed winners, and repeat
// lookups are stable. Run under -race this also proves the CAS protocol
// publishes entries safely.
func TestMemoConcurrentFirstStoreWins(t *testing.T) {
	m := NewMemo()
	const (
		workers = 8
		keys    = 5000
	)
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
