package tournament

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/worker"
)

func TestMemoConcurrentAccess(t *testing.T) {
	// Memo documents safety for concurrent use: goroutines racing to
	// answer overlapping pairs must converge on one answer per pair. Two
	// goroutines that miss the same pair at once both really ask, so both
	// are billed: the ledger charges exactly the asks the comparators saw,
	// the memo holds exactly the distinct pairs asked, and every request is
	// either a charge or a memo hit.
	const goroutines = 32
	const perGoroutine = 300
	root := rng.New(1)
	ledger := cost.NewLedger()
	items := make([]item.Item, 10)
	for i := range items {
		items[i] = item.Item{ID: i, Value: float64(i) * 0.1}
	}
	memo := NewMemo(len(items))
	var (
		asks  atomic.Int64
		mu    sync.Mutex
		asked = map[[2]int]bool{}
		wg    sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine worker and oracle sharing the memo and the
			// ledger; workers are documented single-goroutine.
			r := root.ChildN("g", g)
			w := worker.NewThreshold(10, 0, r) // all arbitrary: only memo makes it consistent
			counted := worker.Func(func(a, b item.Item) item.Item {
				asks.Add(1)
				mu.Lock()
				asked[[2]int{min(a.ID, b.ID), max(a.ID, b.ID)}] = true
				mu.Unlock()
				return w.Compare(a, b)
			})
			o := NewOracle(counted, worker.Naive, ledger, memo)
			for i := 0; i < perGoroutine; i++ {
				a, b := items[i%10], items[(i+3)%10]
				o.Compare(context.Background(), a, b)
			}
		}(g)
	}
	wg.Wait()
	if got := ledger.Comparisons(worker.Naive); got != asks.Load() {
		t.Fatalf("charged %d comparisons but the comparators were asked %d times", got, asks.Load())
	}
	if memo.Len() != len(asked) {
		t.Fatalf("memo holds %d pairs but %d distinct pairs were asked", memo.Len(), len(asked))
	}
	// Every request was either charged or a memo hit; no update was lost.
	total := ledger.Comparisons(worker.Naive) + ledger.MemoHits(worker.Naive)
	if want := int64(goroutines * perGoroutine); total != want {
		t.Fatalf("charges+hits = %d, want %d", total, want)
	}
	// After the dust settles, answers are frozen.
	o := NewOracle(worker.NewThreshold(10, 0, root.Child("final")), worker.Naive, nil, memo)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			first, err := o.Compare(context.Background(), items[i], items[j])
			if err != nil {
				t.Fatal(err)
			}
			second, err := o.Compare(context.Background(), items[i], items[j])
			if err != nil {
				t.Fatal(err)
			}
			if second.ID != first.ID {
				t.Fatalf("pair (%d,%d) not frozen", i, j)
			}
		}
	}
}

func TestParallelBatchConcurrentOracles(t *testing.T) {
	// Many goroutines driving parallel batches through one memoized,
	// ledgered oracle: the worker is a stateless HashTie threshold
	// comparator, so this exercises every concurrent code path at once.
	items := make([]item.Item, 16)
	for i := range items {
		items[i] = item.Item{ID: i, Value: float64(i)}
	}
	var pairs [][2]item.Item
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			pairs = append(pairs, [2]item.Item{items[i], items[j]})
		}
	}
	ledger := cost.NewLedger()
	w := &worker.Threshold{Delta: 100, Tie: worker.HashTie{Seed: 42}}
	o := NewOracle(w, worker.Expert, ledger, NewMemo(len(items))).ParallelBatch(4)
	want, err := compareItemPairs(context.Background(), o, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := compareItemPairs(context.Background(), o, pairs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Errorf("pair %d: got %d, want %d", i, got[i].ID, want[i].ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ledger.Expert() != int64(len(pairs)) {
		t.Fatalf("expert comparisons = %d, want %d (every repeat a memo hit)",
			ledger.Expert(), len(pairs))
	}
}
