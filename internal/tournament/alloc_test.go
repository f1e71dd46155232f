package tournament

import (
	"context"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

// The zero-alloc contract of the hot path, asserted hard (not just
// reported): memo lookups and steady-state stores are allocation-free, and
// a fully-memoized CompareBatchInto with retained scratch — and so a
// round-robin over a primed memo — is allocation-free end to end. These
// assertions keep the memo and batch dispatch overhead out of the
// comparison hot path.

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// allocBatch returns 2n items (ID i, value i) and the n index pairs
// (2k, 2k+1) over them.
func allocBatch(n int) ([]item.Item, [][2]int32) {
	items := make([]item.Item, 2*n)
	for i := range items {
		items[i] = item.Item{ID: i, Value: float64(i)}
	}
	pairs := make([][2]int32, n)
	for k := range pairs {
		pairs[k] = [2]int32{int32(2 * k), int32(2*k + 1)}
	}
	return items, pairs
}

func TestMemoLookupZeroAllocs(t *testing.T) {
	m := NewMemo(2000)
	for i := 0; i < 1000; i++ {
		m.store(i, i+1000, i)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 1000; i++ {
			if _, ok := m.Lookup(i, i+1000); !ok {
				t.Fatal("lost entry")
			}
			if _, ok := m.Lookup(i, i+999); ok {
				t.Fatal("phantom entry")
			}
		}
	}); n != 0 {
		t.Fatalf("memo lookup allocates %.1f per 2000 lookups, want 0", n)
	}
}

func TestMemoStoreSteadyStateZeroAllocs(t *testing.T) {
	m := NewMemo(52_000) // IDs up to 51,999
	for i := 0; i < 2000; i++ {
		m.store(48_000+i, 50_000+i, 48_000+i)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 2000; i++ {
			m.store(48_000+i, 50_000+i, 48_000+i) // re-store of an answered pair: no-op
		}
	}); n != 0 {
		t.Fatalf("memo re-store allocates %.1f per 2000 stores, want 0", n)
	}
	// Fresh stores into an installed row are also allocation-free.
	m.store(50_000, 51_999, 50_000)
	next := 50_001
	if n := testing.AllocsPerRun(100, func() {
		m.store(50_000, next, next)
		next++
	}); n != 0 {
		t.Fatalf("fresh store into an installed row allocates %.1f, want 0", n)
	}
}

func TestCompareBatchIntoMemoizedZeroAllocs(t *testing.T) {
	l := cost.NewLedger()
	items, pairs := allocBatch(256)
	o := NewOracle(worker.Truth, worker.Naive, l, NewMemo(len(items)))
	winners := make([]int32, len(pairs))
	var s BatchScratch
	ctx := context.Background()
	if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memoized CompareBatchInto allocates %.1f per batch, want 0", n)
	}
	if winners[0] != 1 {
		t.Fatalf("winner[0] = %d, want 1", winners[0])
	}
}

func TestCompareBatchIntoUnmemoizedSteadyAllocs(t *testing.T) {
	// Without a memo every call pays the comparator, but the dispatch
	// machinery itself must still reuse the caller's buffers: no per-pair
	// allocations.
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, nil)
	items, pairs := allocBatch(256)
	winners := make([]int32, len(pairs))
	var s BatchScratch
	ctx := context.Background()
	if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("unmemoized CompareBatchInto allocates %.1f per batch, want 0", n)
	}
}

// TestRoundRobinPrimedZeroAllocs is the allocation gate of the filter's
// group tournaments: once its buffers have grown, RoundScratch.RoundRobin
// over a fully primed memo allocates nothing — the index pairs, index
// winners, batch scratch and wins are all retained.
func TestRoundRobinPrimedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	its := make([]item.Item, 32)
	for i := range its {
		its[i] = item.Item{ID: 3 * i, Value: float64(i % 7)}
	}
	o := NewOracle(worker.Truth, worker.Naive, cost.NewLedger(), NewMemo(3*len(its)))
	var s RoundScratch
	ctx := context.Background()
	if _, err := s.RoundRobin(ctx, its, o); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.RoundRobin(ctx, its, o); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("primed RoundRobin allocates %.1f per tournament, want 0", n)
	}
}

// benchMemoN is the item count of one lib-mixed job in crowdbench (n=2000).
const benchMemoN = 2000

// benchSink keeps the compiler from discarding measured calls.
var benchSink any

// fillMemo stores about 40k pairs into a fresh memo over benchMemoN items
// — roughly the naive memo of one lib-mixed max job (un=8) — as pairs
// (i, i+1..i+20), so every row is installed.
func fillMemo() *Memo {
	m := NewMemo(benchMemoN)
	for i := 0; i < benchMemoN; i++ {
		for j := i + 1; j <= min(i+20, benchMemoN-1); j++ {
			m.store(i, j, j)
		}
	}
	return m
}

// BenchmarkMemo times the dense memo at n=2000: lookups that hit, lookups
// that miss in an installed row, and filling a fresh memo with ~40k pairs.
func BenchmarkMemo(b *testing.B) {
	m := fillMemo()
	for _, c := range []struct {
		name   string
		offset int
	}{{"hit", 7}, {"miss", 100}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				k := i % (benchMemoN - c.offset)
				if _, ok := m.Lookup(k, k+c.offset); ok {
					hits++
				}
			}
			benchSink = hits
		})
	}
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = fillMemo()
		}
	})
}

func BenchmarkCompareBatchIntoMemoized(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(itoa(size), func(b *testing.B) {
			items, pairs := allocBatch(size)
			o := NewOracle(worker.Truth, worker.Naive, cost.NewLedger(), NewMemo(len(items)))
			winners := make([]int32, len(pairs))
			var s BatchScratch
			ctx := context.Background()
			if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.CompareBatchInto(ctx, items, pairs, winners, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
