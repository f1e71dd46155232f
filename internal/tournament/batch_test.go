package tournament

import (
	"context"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/worker"
)

// recordingBatcher counts batch calls and forwards to Truth.
type recordingBatcher struct {
	batches int
	pairs   int
}

func (r *recordingBatcher) Compare(a, b item.Item) item.Item {
	return worker.Truth.Compare(a, b)
}

func (r *recordingBatcher) CompareBatch(pairs [][2]item.Item) []item.Item {
	r.batches++
	r.pairs += len(pairs)
	out := make([]item.Item, len(pairs))
	for i, p := range pairs {
		out[i] = worker.Truth.Compare(p[0], p[1])
	}
	return out
}

func TestCompareBatchEmpty(t *testing.T) {
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, nil)
	got, err := compareItemPairs(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %d winners", len(got))
	}
	if l.Steps() != 0 {
		t.Fatal("empty batch billed a step")
	}
}

func TestCompareBatchSequentialFallback(t *testing.T) {
	// A plain comparator (no batch support) is answered element-wise but
	// still billed as one logical step.
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, nil)
	pairs := [][2]item.Item{
		{it2(0, 1), it2(1, 2)},
		{it2(2, 9), it2(3, 4)},
	}
	winners, err := compareItemPairs(context.Background(), o, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if winners[0].ID != 1 || winners[1].ID != 2 {
		t.Fatalf("winners = %v", winners)
	}
	if l.Naive() != 2 || l.Steps() != 1 {
		t.Fatalf("billing: %s", l)
	}
}

func TestCompareBatchUsesBatchComparator(t *testing.T) {
	rb := &recordingBatcher{}
	l := cost.NewLedger()
	o := NewOracle(rb, worker.Naive, l, nil)
	pairs := [][2]item.Item{
		{it2(0, 1), it2(1, 2)},
		{it2(2, 9), it2(3, 4)},
		{it2(4, 5), it2(5, 6)},
	}
	winners, err := compareItemPairs(context.Background(), o, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rb.batches != 1 || rb.pairs != 3 {
		t.Fatalf("batcher saw %d batches / %d pairs", rb.batches, rb.pairs)
	}
	if winners[1].ID != 2 {
		t.Fatalf("winners = %v", winners)
	}
	if l.Naive() != 3 || l.Steps() != 1 {
		t.Fatalf("billing: %s", l)
	}
}

func TestCompareBatchMemoServesRepeats(t *testing.T) {
	rb := &recordingBatcher{}
	l := cost.NewLedger()
	o := NewOracle(rb, worker.Naive, l, NewMemo(6))
	pairs := [][2]item.Item{{it2(0, 1), it2(1, 2)}}
	mustBatch(t, o, pairs)
	// Second batch fully memoized: no step, no forwarding, a memo hit.
	mustBatch(t, o, pairs)
	if rb.batches != 1 {
		t.Fatalf("memoized batch forwarded: %d batches", rb.batches)
	}
	if l.Steps() != 1 || l.Naive() != 1 || l.MemoHits(worker.Naive) != 1 {
		t.Fatalf("billing: %s", l)
	}
}

func TestCompareBatchDedupesWithinBatch(t *testing.T) {
	rb := &recordingBatcher{}
	l := cost.NewLedger()
	o := NewOracle(rb, worker.Naive, l, NewMemo(6))
	p := [2]item.Item{it2(0, 1), it2(1, 2)}
	rev := [2]item.Item{it2(1, 2), it2(0, 1)}
	winners := mustBatch(t, o, [][2]item.Item{p, p, rev})
	if rb.pairs != 1 {
		t.Fatalf("duplicates not deduped: batcher saw %d pairs", rb.pairs)
	}
	for i, w := range winners {
		if w.ID != 1 {
			t.Fatalf("winner %d = %v", i, w)
		}
	}
	if l.Naive() != 1 || l.MemoHits(worker.Naive) != 2 {
		t.Fatalf("billing: %s", l)
	}
}

func TestCompareBatchDuplicatesWithoutMemoAskedIndependently(t *testing.T) {
	rb := &recordingBatcher{}
	l := cost.NewLedger()
	o := NewOracle(rb, worker.Naive, l, nil)
	p := [2]item.Item{it2(0, 1), it2(1, 2)}
	mustBatch(t, o, [][2]item.Item{p, p})
	if rb.pairs != 2 {
		t.Fatalf("without memo duplicates should be asked twice, saw %d", rb.pairs)
	}
	if l.Naive() != 2 {
		t.Fatalf("billing: %s", l)
	}
}

func TestCompareBatchMixedSequentialDuplicates(t *testing.T) {
	// Sequential fallback + memo: the second copy within one batch is a
	// memo hit.
	l := cost.NewLedger()
	o := NewOracle(worker.Truth, worker.Naive, l, NewMemo(6))
	p := [2]item.Item{it2(0, 1), it2(1, 2)}
	winners := mustBatch(t, o, [][2]item.Item{p, p})
	if winners[0].ID != 1 || winners[1].ID != 1 {
		t.Fatalf("winners = %v", winners)
	}
	if l.Naive() != 1 || l.MemoHits(worker.Naive) != 1 {
		t.Fatalf("billing: %s", l)
	}
}

func TestRoundRobinStepsWithBatcher(t *testing.T) {
	rb := &recordingBatcher{}
	l := cost.NewLedger()
	o := NewOracle(rb, worker.Naive, l, nil)
	RoundRobin(context.Background(), items(1, 2, 3, 4, 5), o)
	if rb.batches != 1 {
		t.Fatalf("tournament used %d batches, want 1", rb.batches)
	}
	if l.Steps() != 1 || l.Naive() != 10 {
		t.Fatalf("billing: %s", l)
	}
}

func TestRoundRobinConsistencyBatchVsSequential(t *testing.T) {
	// With a deterministic comparator, the batch path must give exactly
	// the same tournament outcome as the sequential path.
	r := rng.New(9)
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = r.Float64()
	}
	seqRes := mustRR(t, items(vals...), NewOracle(worker.Truth, worker.Naive, nil, nil))
	rb := &recordingBatcher{}
	batchRes := mustRR(t, items(vals...), NewOracle(rb, worker.Naive, nil, nil))
	for i := range seqRes.Wins {
		if seqRes.Wins[i] != batchRes.Wins[i] {
			t.Fatalf("wins diverge at %d: %d vs %d", i, seqRes.Wins[i], batchRes.Wins[i])
		}
	}
}

func it2(id int, v float64) item.Item { return item.Item{ID: id, Value: v} }

// mustBatch runs compareItemPairs under a background context and fails the
// test on error.
func mustBatch(t *testing.T, o *Oracle, pairs [][2]item.Item) []item.Item {
	t.Helper()
	winners, err := compareItemPairs(context.Background(), o, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return winners
}

// compareItemPairs batches pairs of items through CompareBatchInto: pair k
// becomes the index pair (2k, 2k+1) over the pairs' elements laid out in
// order, and the winning indices are mapped back to items.
func compareItemPairs(ctx context.Context, o *Oracle, pairs [][2]item.Item) ([]item.Item, error) {
	items := make([]item.Item, 0, 2*len(pairs))
	idx := make([][2]int32, len(pairs))
	for k, p := range pairs {
		items = append(items, p[0], p[1])
		idx[k] = [2]int32{int32(2 * k), int32(2*k + 1)}
	}
	winners := make([]int32, len(pairs))
	if err := o.CompareBatchInto(ctx, items, idx, winners, new(BatchScratch)); err != nil {
		return nil, err
	}
	out := make([]item.Item, len(pairs))
	for k, w := range winners {
		out[k] = items[w]
	}
	return out, nil
}
