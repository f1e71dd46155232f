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
// a fully-memoized CompareBatchInto with retained scratch is allocation-free
// end to end. These assertions keep the memo and batch dispatch overhead
// out of the comparison hot path.

func allocPairs(n int) [][2]item.Item {
	pairs := make([][2]item.Item, n)
	for i := range pairs {
		pairs[i] = [2]item.Item{
			{ID: 2 * i, Value: float64(2 * i)},
			{ID: 2*i + 1, Value: float64(2*i + 1)},
		}
	}
	return pairs
}

func TestMemoLookupZeroAllocs(t *testing.T) {
	m := NewMemo()
	for i := 0; i < 1000; i++ {
		m.store(i, i+1000, i)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 1000; i++ {
			if _, ok := m.Lookup(i, i+1000); !ok {
				t.Fatal("lost entry")
			}
		}
	}); n != 0 {
		t.Fatalf("memo lookup allocates %.1f per 1000 lookups, want 0", n)
	}
}

func TestMemoStoreSteadyStateZeroAllocs(t *testing.T) {
	m := NewMemoSized(4096) // pre-sized: steady state has no growth
	for i := 0; i < 2000; i++ {
		m.store(i, i+10000, i)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 2000; i++ {
			m.store(i, i+10000, i) // re-store of an existing key: CAS no-op path
		}
	}); n != 0 {
		t.Fatalf("memo re-store allocates %.1f per 2000 stores, want 0", n)
	}
	// Fresh stores into pre-sized headroom are also allocation-free.
	next := 50000
	if n := testing.AllocsPerRun(1, func() {
		m.store(next, next+1, next)
		next += 2
	}); n != 0 {
		t.Fatalf("fresh store into headroom allocates %.1f, want 0", n)
	}
}

func TestCompareBatchIntoMemoizedZeroAllocs(t *testing.T) {
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, NewMemo())
	pairs := allocPairs(256)
	winners := make([]item.Item, len(pairs))
	var s BatchScratch
	ctx := context.Background()
	if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memoized CompareBatchInto allocates %.1f per batch, want 0", n)
	}
	if winners[0].ID != 1 {
		t.Fatalf("winner[0] = %d, want 1", winners[0].ID)
	}
}

func TestCompareBatchIntoUnmemoizedSteadyAllocs(t *testing.T) {
	// Without a memo every call pays the comparator, but the dispatch
	// machinery itself must still reuse the caller's buffers: allow only
	// the scratch map-clear path, no per-pair allocations.
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, nil)
	pairs := allocPairs(256)
	winners := make([]item.Item, len(pairs))
	var s BatchScratch
	ctx := context.Background()
	if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("unmemoized CompareBatchInto allocates %.1f per batch, want 0", n)
	}
}

func BenchmarkMemoLookup(b *testing.B) {
	m := NewMemo()
	for i := 0; i < 4096; i++ {
		m.store(i, i+100000, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(i%4096, i%4096+100000)
	}
}

func BenchmarkMemoStore(b *testing.B) {
	m := NewMemoSized(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (1 << 19)
		m.store(k, k+1<<20, k)
	}
}

func BenchmarkCompareBatchIntoMemoized(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(itoa(size), func(b *testing.B) {
			o := NewOracle(worker.Truth, worker.Naive, cost.NewLedger(), NewMemo())
			pairs := allocPairs(size)
			winners := make([]item.Item, len(pairs))
			var s BatchScratch
			ctx := context.Background()
			if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.CompareBatchInto(ctx, pairs, winners, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompareBatchLegacyAlloc(b *testing.B) {
	// The allocating wrapper, for comparison against the Into variant.
	o := NewOracle(worker.Truth, worker.Naive, cost.NewLedger(), NewMemo())
	pairs := allocPairs(256)
	ctx := context.Background()
	if _, err := o.CompareBatch(ctx, pairs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.CompareBatch(ctx, pairs); err != nil {
			b.Fatal(err)
		}
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
