package tournament

import (
	"context"
	"sync/atomic"

	"crowdmax/internal/item"
	"crowdmax/internal/parallel"
)

// BatchComparator is implemented by comparison sources that can answer a
// batch of independent comparisons in one logical step — the execution
// model of Section 3 (following Venetis et al.): "In the s-th logical step,
// a batch Bs of pairwise comparisons is sent to the crowdsourcing
// platform." The platform simulator implements it; plain workers answer
// batches element-wise.
type BatchComparator interface {
	// CompareBatch returns the winner of each pair, parallel to pairs.
	CompareBatch(pairs [][2]item.Item) []item.Item
}

// BatchScratch holds the reusable working buffers of CompareBatchInto. The
// zero value is ready to use; a scratch retained across calls (the bracket
// loop keeps one per run) makes the fully-memoized batch path
// allocation-free. A BatchScratch must not be shared by concurrent calls.
type BatchScratch struct {
	todo   []int
	sub    [][2]item.Item
	subIdx []int
	dups   []int
	seen   map[uint64]struct{}
}

// markSeen records the unordered ID pair (a, b), reporting whether it was
// already present. The map is lazily created and reused (cleared) across
// calls.
func (s *BatchScratch) markSeen(a, b int) bool {
	k := uint64(min(a, b))<<32 | uint64(max(a, b))
	if s.seen == nil {
		s.seen = make(map[uint64]struct{})
	}
	if _, ok := s.seen[k]; ok {
		return true
	}
	s.seen[k] = struct{}{}
	return false
}

// CompareBatchInto answers a batch of comparisons among items: pairs[k]
// names its two elements by index into items, and winners[k] receives the
// index of the winner (pairs[k][0] or pairs[k][1]), so winners must have
// len(pairs) slots. Memoized pairs are served for free, looked up by item
// ID without copying an item; the remainder is forwarded to the underlying
// comparator — in one call when it implements BatchComparator, element-wise
// otherwise — and exactly one logical step is billed when anything is
// actually sent. scratch provides the working buffers, reused across calls:
// with every pair memoized — the steady state of repeated tournaments — the
// call performs no allocation at all (asserted by the allocs/op tests).
// RoundScratch.RoundRobin, PivotPass and the bracket loop all batch through
// it.
//
// A batch submitted to a BatchComparator is pre-charged against the budget
// all-or-nothing, so a hard cap is never exceeded even by a platform batch;
// element-wise paths charge pair by pair through the dispatch seam.
//
// Duplicate pairs within one batch are asked only once when memoization is
// enabled (the platform would be asked once and the answer reused), and
// independently otherwise.
//
// On cancellation, budget exhaustion or backend failure the error is
// returned and winners is unusable; comparisons already performed remain
// billed (they really happened) and memoized.
//
// Observability counters are aggregated per batch: one atomic add for the
// paid comparisons and one for the memo hits, instead of one per pair, so
// the cost of an attached scope is negligible and the cost of a detached
// one (the default) is a nil check.
func (o *Oracle) CompareBatchInto(ctx context.Context, items []item.Item, pairs [][2]int32, winners []int32, s *BatchScratch) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.todo = s.todo[:0]
	for i, p := range pairs {
		if o.memo != nil {
			if w, ok := o.memo.Lookup(items[p[0]].ID, items[p[1]].ID); ok {
				winners[i] = pick(items, p, w)
				continue
			}
		}
		s.todo = append(s.todo, i)
	}
	hits := int64(len(pairs) - len(s.todo))
	if o.ledger != nil && hits > 0 {
		o.ledger.MemoHitN(o.class, hits)
	}
	if len(s.todo) == 0 {
		o.observeBatch(0, hits)
		return nil
	}
	if o.ledger != nil {
		o.ledger.Step()
	}
	if bc, ok := o.cmp.(BatchComparator); ok && o.backend == nil {
		return o.comparePlatform(bc, items, pairs, hits, winners, s)
	}
	if o.batchWorkers > 1 && len(s.todo) > 1 {
		paid, dupHits, err := o.compareParallel(ctx, items, pairs, winners, s)
		o.observeBatch(paid, hits+dupHits)
		return err
	}
	var paid int64
	for _, i := range s.todo {
		p := pairs[i]
		a, b := &items[p[0]], &items[p[1]]
		// A duplicate may have been memoized by an earlier element of
		// this same batch.
		if o.memo != nil {
			if w, ok := o.memo.Lookup(a.ID, b.ID); ok {
				if o.ledger != nil {
					o.ledger.MemoHit(o.class)
				}
				hits++
				winners[i] = pick(items, p, w)
				continue
			}
		}
		w, err := o.ask(ctx, *a, *b)
		if err != nil {
			o.observeBatch(paid, hits)
			return err
		}
		paid++
		if o.memo != nil {
			o.memo.store(a.ID, b.ID, w.ID)
		}
		winners[i] = pick(items, p, w.ID)
	}
	o.observeBatch(paid, hits)
	return nil
}

// comparePlatform answers the batch's todo remainder through a
// BatchComparator in one platform call, deduplicating repeated pairs when
// memoization is enabled. The whole platform batch is admitted or refused
// as a unit: a budget that cannot cover it refuses before anything is sent.
// Only the pairs actually sent are built as item pairs.
func (o *Oracle) comparePlatform(bc BatchComparator, items []item.Item, pairs [][2]int32, hits int64, winners []int32, s *BatchScratch) error {
	s.sub, s.subIdx, s.dups = s.sub[:0], s.subIdx[:0], s.dups[:0]
	if o.memo == nil {
		s.subIdx = append(s.subIdx, s.todo...)
	} else {
		clear(s.seen)
		for _, i := range s.todo {
			if s.markSeen(items[pairs[i][0]].ID, items[pairs[i][1]].ID) {
				s.dups = append(s.dups, i)
				continue
			}
			s.subIdx = append(s.subIdx, i)
		}
	}
	for _, i := range s.subIdx {
		s.sub = append(s.sub, [2]item.Item{items[pairs[i][0]], items[pairs[i][1]]})
	}
	if o.journal != nil {
		if err := o.journal.Err(); err != nil {
			return err
		}
	}
	if o.budget != nil {
		if err := o.budget.Spend(o.class, int64(len(s.sub))); err != nil {
			return err
		}
	}
	res := bc.CompareBatch(s.sub)
	if o.journal != nil {
		o.journal.Pairs(s.sub)
	}
	if o.ledger != nil {
		o.ledger.ChargeN(o.class, int64(len(s.subIdx)))
	}
	for j, i := range s.subIdx {
		if o.memo != nil {
			o.memo.store(s.sub[j][0].ID, s.sub[j][1].ID, res[j].ID)
		}
		winners[i] = pick(items, pairs[i], res[j].ID)
	}
	if o.journal != nil {
		o.journal.Stored()
	}
	o.serveDups(items, pairs, winners, s)
	o.observeBatch(int64(len(s.subIdx)), hits+int64(len(s.dups)))
	return nil
}

// serveDups answers the batch's in-batch duplicates from the memo, which
// the pairs they repeat have just filled, and bills them as memo hits.
func (o *Oracle) serveDups(items []item.Item, pairs [][2]int32, winners []int32, s *BatchScratch) {
	if o.ledger != nil && len(s.dups) > 0 {
		o.ledger.MemoHitN(o.class, int64(len(s.dups)))
	}
	for _, i := range s.dups {
		w, _ := o.memo.Lookup(items[pairs[i][0]].ID, items[pairs[i][1]].ID)
		winners[i] = pick(items, pairs[i], w)
	}
}

// observeBatch records one batch's aggregate counts on the attached
// observability scope: paid comparisons, and — for memoized oracles — the
// memo table's hit/miss split (every paid comparison of a memoized oracle
// is a miss).
func (o *Oracle) observeBatch(paid, hits int64) {
	if o.obs == nil {
		return
	}
	o.obs.Comparisons(int(o.class), paid)
	if o.memo != nil {
		o.obs.Memo(int(o.class), hits, paid)
	}
}

// compareParallel answers the todo indices of pairs concurrently on the
// oracle's batch pool (see ParallelBatch) and returns the paid-comparison
// and duplicate-hit counts for the caller's observability aggregation.
// Duplicate pairs are separated first when memoization is enabled — exactly
// like the sequential path, which serves them as memo hits — so billing and
// answers are identical to a sequential run whenever the comparator is
// order-independent. Each worker writes only its own winners slot; ledger,
// memo and budget are concurrency-safe. Every pair goes through the same
// dispatch seam as Compare (ctx check, budget pre-charge, backend), so a
// cancelled or exhausted run stops promptly; parallel.For reports the error
// of the lowest failing index.
func (o *Oracle) compareParallel(ctx context.Context, items []item.Item, pairs [][2]int32, winners []int32, s *BatchScratch) (paid, dupHits int64, err error) {
	sub := s.todo
	s.dups = s.dups[:0]
	if o.memo != nil {
		s.subIdx = s.subIdx[:0]
		clear(s.seen)
		for _, i := range s.todo {
			if s.markSeen(items[pairs[i][0]].ID, items[pairs[i][1]].ID) {
				s.dups = append(s.dups, i)
				continue
			}
			s.subIdx = append(s.subIdx, i)
		}
		sub = s.subIdx
	}
	var nPaid atomic.Int64
	err = parallel.For(o.batchWorkers, len(sub), func(j int) error {
		i := sub[j]
		a, b := &items[pairs[i][0]], &items[pairs[i][1]]
		w, askErr := o.ask(ctx, *a, *b)
		if askErr != nil {
			return askErr
		}
		nPaid.Add(1)
		if o.memo != nil {
			o.memo.store(a.ID, b.ID, w.ID)
		}
		winners[i] = pick(items, pairs[i], w.ID)
		return nil
	})
	if err != nil {
		return nPaid.Load(), 0, err
	}
	o.serveDups(items, pairs, winners, s)
	return nPaid.Load(), int64(len(s.dups)), nil
}

// pick returns the index of the pair's element whose ID is winnerID: the
// first element when it matches, the second otherwise.
func pick(items []item.Item, p [2]int32, winnerID int) int32 {
	if winnerID == items[p[0]].ID {
		return p[0]
	}
	return p[1]
}
