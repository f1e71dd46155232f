// Package tournament provides the comparison-tournament machinery shared by
// the paper's algorithms: billed (and optionally memoized) comparison
// oracles, all-play-all (round-robin) tournaments, pivot elimination passes,
// and the cross-iteration loss counters of Appendix A.
//
// Memoization implements the first Appendix A optimization — "avoid
// repeating the comparison of two elements multiple times by the same type
// of workers. … The algorithm will keep an n × n table containing in cell
// (i, j) the result of the first comparison between element ei and ej."
// Besides saving money, memoization is what makes 2-MaxFind terminate
// against adversarial tie-breaking: the pivot's tournament wins must carry
// over to its elimination pass.
//
// # Dispatch
//
// Every comparison flows through the internal/dispatch layer: an Oracle
// consults its hard Budget (when attached) before performing a comparison,
// checks its context for cancellation, and — when a dispatch.Backend is
// attached — submits the comparison as a cancellable, fallible request
// instead of calling the in-process comparator directly. An attached
// Journal (a checkpoint writer) is told of every paid answer, whichever
// path produced it. The default oracle (no backend, budget or journal)
// keeps the historical hot path: a direct comparator call behind nil
// checks.
//
// # Concurrency
//
// Memo, LossTracker, Budget, and Oracle's billing are safe for concurrent
// use: the memo is a triangle of 2-bit cells with lock-free lookups and
// compare-and-swap stores, the loss tracker is
// sharded across independently locked stripes, the budget is mutex-guarded
// with all-or-nothing spending, and the ledger (cost.Ledger) is atomic. An
// Oracle may therefore be shared by the goroutines of a parallel batch
// evaluation provided its underlying worker.Comparator (or dispatch.Backend)
// is itself safe for concurrent use — see Oracle.ParallelBatch.
package tournament

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"crowdmax/internal/cost"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/parallel"
	"crowdmax/internal/worker"
)

// The observability layer mirrors the ledger's class space with its own
// constant (obs must not import cost, so the low-level parallel pool can use
// it). Fail the build if they ever drift.
const (
	_ = uint(cost.MaxClasses - obs.NumClasses)
	_ = uint(obs.NumClasses - cost.MaxClasses)
)

// Oracle answers comparison requests by dispatching them to a worker
// comparator (or a dispatch.Backend), billing each paid comparison to a
// ledger under the worker's class, and optionally serving repeats from a
// memo table for free. A hard dispatch.Budget may be attached: every paid
// comparison is pre-charged against it all-or-nothing, so a cap is never
// exceeded, and a refused comparison surfaces dispatch.ErrBudgetExhausted
// to the algorithm.
//
// The oracle's own bookkeeping (ledger, memo, budget) is safe for
// concurrent use; whether concurrent Compare calls are safe overall depends
// solely on the underlying comparator or backend. See ParallelBatch for the
// opt-in that lets CompareBatchInto exploit this.
type Oracle struct {
	cmp          worker.Comparator
	backend      dispatch.Backend
	budget       *dispatch.Budget
	class        worker.Class
	ledger       *cost.Ledger
	memo         *Memo
	valuer       worker.Valuer
	vmemo        *ValueMemo
	batchWorkers int
	obs          *obs.Scope
	journal      *Journal
}

// A Journal is told of every answer its oracle pays for (see WithJournal).
// A checkpoint writer is one: it notes the paid keys and snapshots the run
// every so many of them. Every func is required.
type Journal struct {
	// Err is consulted before every paid comparison or vote: a non-nil
	// error fails it before anything is spent or sent.
	Err func() error
	// Pair notes the paid answer to the pair (a, b) of item IDs, and Value
	// the paid vote rep on item id. Both are called once the answer has
	// returned, before it is charged to the ledger and stored in the memo.
	Pair  func(a, b int)
	Value func(id, rep int)
	// Pairs notes a platform batch's paid answers like Pair, all at once
	// and without snapshotting; Stored follows once they are charged and
	// stored, so a snapshot the batch completes holds them.
	Pairs  func(pairs [][2]item.Item)
	Stored func()
}

// NewOracle binds a comparator of the given class to a ledger. memo may be
// nil to disable memoization (used by the ablation benchmarks).
func NewOracle(cmp worker.Comparator, class worker.Class, ledger *cost.Ledger, memo *Memo) *Oracle {
	return &Oracle{cmp: cmp, class: class, ledger: ledger, memo: memo}
}

// NewBackendOracle binds a dispatch backend of the given class to a ledger;
// every comparison is submitted as a dispatch request (cancellable,
// fallible) instead of an in-process comparator call. memo may be nil to
// disable memoization.
func NewBackendOracle(b dispatch.Backend, class worker.Class, ledger *cost.Ledger, memo *Memo) *Oracle {
	return &Oracle{backend: b, class: class, ledger: ledger, memo: memo}
}

// WithBackend routes the oracle's comparisons through b (replacing the
// direct comparator call); returns the oracle for chaining. The underlying
// comparator, if any, is still used for the BatchComparator fast path when b
// is nil.
func (o *Oracle) WithBackend(b dispatch.Backend) *Oracle {
	o.backend = b
	return o
}

// WithBudget attaches a hard spend budget: every paid comparison is
// pre-charged against it and refused with dispatch.ErrBudgetExhausted once
// a cap would be exceeded. Memo hits stay free. A nil budget (the default)
// costs one nil check per comparison. Returns the oracle for chaining.
func (o *Oracle) WithBudget(b *dispatch.Budget) *Oracle {
	o.budget = b
	return o
}

// Budget returns the attached budget, nil when unconstrained.
func (o *Oracle) Budget() *dispatch.Budget { return o.budget }

// WithValuer attaches an in-process cardinal scorer answering AskValue
// queries when no backend is attached (the backendless counterpart of
// dispatch.NewSimulatedValuer); returns the oracle for chaining.
func (o *Oracle) WithValuer(v worker.Valuer) *Oracle {
	o.valuer = v
	return o
}

// WithValueMemo attaches a value-query memo: each (item, rep) vote is paid
// once and served free thereafter, and the memo's entries ride in
// checkpoints so a resumed scoring run replays its votes bit-identically.
// Returns the oracle for chaining.
func (o *Oracle) WithValueMemo(m *ValueMemo) *Oracle {
	o.vmemo = m
	return o
}

// ParallelBatch opts the oracle into evaluating the non-memoized remainder
// of each CompareBatchInto concurrently on up to workers goroutines
// (workers ≤ 0 selects runtime.GOMAXPROCS(0)); it returns the oracle for
// chaining.
//
// The caller asserts that the underlying comparator is stateless-safe: its
// Compare must be callable from multiple goroutines and its answers must not
// depend on call order (e.g. worker.Truth, or a worker.Threshold with
// Epsilon == 0 and an order-independent tie policy such as worker.HashTie).
// An order-dependent comparator would make results vary with scheduling,
// destroying the engine's bit-for-bit determinism guarantee. Comparators
// that implement BatchComparator (the platform simulator) are never fanned
// out — they receive the whole batch in one call, as before.
func (o *Oracle) ParallelBatch(workers int) *Oracle {
	o.batchWorkers = parallel.Normalize(workers)
	return o
}

// WithObs attaches an observability scope: comparison and memo-table
// counters accrue to the scope's metrics, and the algorithms driving this
// oracle label their trace events with the scope's trial and phase. A nil
// scope (the default) keeps the hot path at a single nil check. Returns the
// oracle for chaining.
func (o *Oracle) WithObs(s *obs.Scope) *Oracle {
	o.obs = s
	return o
}

// WithJournal attaches a journal told of every paid answer; nil (the
// default) detaches it. Returns the oracle for chaining.
func (o *Oracle) WithJournal(j *Journal) *Oracle {
	o.journal = j
	return o
}

// Obs returns the oracle's observability scope, nil when detached.
func (o *Oracle) Obs() *obs.Scope { return o.obs }

// LedgerSnapshot copies the oracle's ledger counters (zero snapshot for an
// un-billed oracle); algorithms difference snapshots at phase boundaries to
// attribute costs per phase.
func (o *Oracle) LedgerSnapshot() cost.Snapshot { return o.ledger.Snapshot() }

// Class returns the billing class of this oracle.
func (o *Oracle) Class() worker.Class { return o.class }

// Memoized reports whether this oracle serves repeated pairs from a memo
// table. Algorithms that rely on independent repeated answers (majority
// vote over repetitions) must use a non-memoized oracle.
func (o *Oracle) Memoized() bool { return o.memo != nil }

// Compare returns the winner of the comparison, billing it unless served
// from the memo. Memo hits are free and never consult the budget or the
// context; a paid comparison first checks ctx, then pre-charges the budget
// (all-or-nothing), then dispatches — through the backend when one is
// attached, directly to the comparator otherwise. On a backend failure the
// budget charge is refunded, so failed dispatches never consume spend.
func (o *Oracle) Compare(ctx context.Context, a, b item.Item) (item.Item, error) {
	if o.memo != nil {
		if w, ok := o.memo.Lookup(a.ID, b.ID); ok {
			if o.ledger != nil {
				o.ledger.MemoHit(o.class)
			}
			if o.obs != nil {
				o.obs.Memo(int(o.class), 1, 0)
			}
			if w == a.ID {
				return a, nil
			}
			return b, nil
		}
	}
	var winner item.Item
	if o.backend == nil && o.budget == nil && o.journal == nil {
		// Hot path (default configuration): direct comparator call behind
		// the cancellation check alone, no extra call frame.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return item.Item{}, err
			}
		}
		winner = o.cmp.Compare(a, b)
		if o.ledger != nil {
			o.ledger.Charge(o.class)
		}
	} else {
		var err error
		winner, err = o.ask(ctx, a, b)
		if err != nil {
			return item.Item{}, err
		}
	}
	if o.obs != nil {
		o.obs.Comparisons(int(o.class), 1)
		if o.memo != nil {
			o.obs.Memo(int(o.class), 0, 1)
		}
	}
	if o.memo != nil {
		o.memo.store(a.ID, b.ID, winner.ID)
	}
	return winner, nil
}

// ask performs one paid (non-memoized) comparison: ctx check, journal
// check, budget pre-charge, dispatch, journal note, ledger charge. The
// nil-backend, nil-budget, nil-journal path — the default configuration and
// the hot path of every benchmark — costs four nil checks and one ctx.Err()
// call on top of the historical direct comparator call.
func (o *Oracle) ask(ctx context.Context, a, b item.Item) (item.Item, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return item.Item{}, err
		}
	}
	if o.journal != nil {
		if err := o.journal.Err(); err != nil {
			return item.Item{}, err
		}
	}
	if o.budget != nil {
		if err := o.budget.Spend(o.class, 1); err != nil {
			return item.Item{}, err
		}
	}
	var winner item.Item
	if o.backend != nil {
		ans, err := o.backend.Answer(ctx, dispatch.Request{A: a, B: b, Class: o.class})
		if err != nil {
			if o.budget != nil {
				o.budget.Refund(o.class, 1)
			}
			return item.Item{}, err
		}
		winner = ans.Winner
	} else {
		winner = o.cmp.Compare(a, b)
	}
	if o.journal != nil {
		o.journal.Pair(a.ID, b.ID)
	}
	if o.ledger != nil {
		o.ledger.Charge(o.class)
	}
	return winner, nil
}

// AskValue obtains one cardinal value estimate for it (vote index rep),
// billing it to the oracle's class unless served from the value memo. The
// paid path follows the exact discipline of Compare's: ctx check, journal
// check, budget pre-charge (all-or-nothing, refunded on dispatch failure),
// dispatch through the backend when one is attached (as a
// dispatch.KindValue request) or the in-process valuer otherwise, then the
// journal note and the ledger charge.
// An oracle with neither backend nor valuer fails the query permanently.
func (o *Oracle) AskValue(ctx context.Context, it item.Item, rep int) (float64, error) {
	if o.vmemo != nil {
		if v, ok := o.vmemo.Lookup(it.ID, rep); ok {
			if o.ledger != nil {
				o.ledger.MemoHit(o.class)
			}
			if o.obs != nil {
				o.obs.Memo(int(o.class), 1, 0)
			}
			return v, nil
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if o.journal != nil {
		if err := o.journal.Err(); err != nil {
			return 0, err
		}
	}
	if o.budget != nil {
		if err := o.budget.Spend(o.class, 1); err != nil {
			return 0, err
		}
	}
	var v float64
	switch {
	case o.backend != nil:
		ans, err := o.backend.Answer(ctx, dispatch.Request{A: it, Class: o.class, Kind: dispatch.KindValue, Rep: rep})
		if err != nil {
			if o.budget != nil {
				o.budget.Refund(o.class, 1)
			}
			return 0, err
		}
		v = ans.Value
	case o.valuer != nil:
		v = o.valuer.Value(it, rep)
	default:
		if o.budget != nil {
			o.budget.Refund(o.class, 1)
		}
		return 0, fmt.Errorf("tournament: oracle has no valuer or backend for value queries: %w", dispatch.ErrPermanent)
	}
	if o.journal != nil {
		o.journal.Value(it.ID, rep)
	}
	if o.ledger != nil {
		o.ledger.Charge(o.class)
	}
	if o.obs != nil {
		o.obs.Comparisons(int(o.class), 1)
		if o.vmemo != nil {
			o.obs.Memo(int(o.class), 0, 1)
		}
	}
	if o.vmemo != nil {
		o.vmemo.store(it.ID, rep, v)
	}
	return v, nil
}

// Step records one logical step (batch round) on the oracle's ledger.
func (o *Oracle) Step() {
	if o.ledger != nil {
		o.ledger.Step()
	}
}

// ValueEntry is one frozen value-query answer: the element's ID, the vote
// index, and the estimate the crowd returned.
type ValueEntry struct {
	ID, Rep int64
	Value   float64
}

// ValueMemo caches cardinal value answers keyed by (item ID, vote index).
// First store wins; safe for concurrent use. It is the value-query
// counterpart of Memo: besides saving money on repeated votes, its entries
// are what checkpoints freeze so a resumed scoring run replays every
// pre-crash vote for free with the original answer.
type ValueMemo struct {
	mu sync.RWMutex
	m  map[[2]int]float64
}

// NewValueMemo returns an empty value memo.
func NewValueMemo() *ValueMemo {
	return &ValueMemo{m: make(map[[2]int]float64)}
}

// Lookup returns the frozen answer for (id, rep), if any. Checkpoint
// writers use it, like Memo.Lookup, to pick up just the votes paid since
// their last snapshot. Safe for concurrent use.
func (m *ValueMemo) Lookup(id, rep int) (float64, bool) {
	m.mu.RLock()
	v, ok := m.m[[2]int{id, rep}]
	m.mu.RUnlock()
	return v, ok
}

// store freezes the first answer for (id, rep); later stores are no-ops.
func (m *ValueMemo) store(id, rep int, v float64) {
	m.mu.Lock()
	if _, ok := m.m[[2]int{id, rep}]; !ok {
		m.m[[2]int{id, rep}] = v
	}
	m.mu.Unlock()
}

// Prime inserts a frozen answer during checkpoint replay.
func (m *ValueMemo) Prime(id, rep int, v float64) { m.store(id, rep, v) }

// Entries returns every frozen answer sorted by (ID, Rep), the deterministic
// order checkpoints encode.
func (m *ValueMemo) Entries() []ValueEntry {
	m.mu.RLock()
	out := make([]ValueEntry, 0, len(m.m))
	for k, v := range m.m {
		out = append(out, ValueEntry{ID: int64(k[0]), Rep: int64(k[1]), Value: v})
	}
	m.mu.RUnlock()
	slices.SortFunc(out, func(a, b ValueEntry) int {
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		if a.Rep != b.Rep {
			if a.Rep < b.Rep {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// Result holds the outcome of an all-play-all tournament.
type Result struct {
	// Items are the participants, in input order.
	Items []item.Item
	// Wins[i] is the number of comparisons Items[i] won.
	Wins []int
	// Losers[i] lists, for Items[i], the IDs of the opponents it lost to.
	// Populated only with RoundRobinOpts.RecordLosers set; nil otherwise.
	Losers [][]int
}

// TopByWins returns the participant with the most wins, ties broken by
// input order.
func (r Result) TopByWins() item.Item {
	best := 0
	for i := 1; i < len(r.Items); i++ {
		if r.Wins[i] > r.Wins[best] {
			best = i
		}
	}
	return r.Items[best]
}

// MinByWins returns the participant with the fewest wins, ties broken by
// input order (used by the randomized Algorithm 5, which removes "the
// minimal element … with ties broken arbitrarily").
func (r Result) MinByWins() item.Item {
	best := 0
	for i := 1; i < len(r.Items); i++ {
		if r.Wins[i] < r.Wins[best] {
			best = i
		}
	}
	return r.Items[best]
}

// RoundRobinOpts configures RoundRobinWith.
type RoundRobinOpts struct {
	// RecordLosers fills Result.Losers with each participant's defeaters.
	// Recording costs one slice and up to n−1 appends per participant, so
	// it is off by default; only callers that consume the loss lists (the
	// Appendix A loss tracking, 2-MaxFind's victim carry-over) opt in.
	RecordLosers bool
}

// RoundScratch is the working storage of round-robin tournaments — pair
// list, winners, batch buffers and Result.Wins — retained across calls to
// its RoundRobin method, so a caller playing tournament after tournament
// (the filter's groups) allocates nothing once the buffers have grown. The
// pairs and winners are pointer-free indices into the group's items. The
// zero value is ready to use. A RoundScratch must not be shared by
// concurrent calls.
type RoundScratch struct {
	pairs   [][2]int32
	winners []int32
	batch   BatchScratch
	wins    []int
}

// RoundRobin plays an all-play-all tournament among items using the oracle:
// every unordered pair is compared exactly once. The whole tournament is
// submitted as one batch of independent comparisons — a single logical step
// in the Section 3 execution model. Result.Losers is not recorded; use
// RoundRobinWith to opt in. On cancellation or budget exhaustion the error
// is returned and the Result is unusable.
func RoundRobin(ctx context.Context, items []item.Item, o *Oracle) (Result, error) {
	return RoundRobinWith(ctx, items, o, RoundRobinOpts{})
}

// RoundRobinWith is RoundRobin with options.
func RoundRobinWith(ctx context.Context, items []item.Item, o *Oracle, opts RoundRobinOpts) (Result, error) {
	return new(RoundScratch).RoundRobin(ctx, items, o, opts)
}

// RoundRobin is RoundRobinWith playing in the scratch's retained buffers.
// The returned Result.Wins aliases the scratch: it is valid only until the
// next call on s.
func (s *RoundScratch) RoundRobin(ctx context.Context, items []item.Item, o *Oracle, opts RoundRobinOpts) (Result, error) {
	n := len(items)
	if m := obs.Active(); m != nil {
		m.ObserveGroup(n)
	}
	// Every unordered pair, in the canonical (i, j), i < j order.
	pairs := slices.Grow(s.pairs[:0], n*(n-1)/2)
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			pairs = append(pairs, [2]int32{i, j})
		}
	}
	s.pairs = pairs
	winners := resize(&s.winners, len(pairs))
	if err := o.CompareBatchInto(ctx, items, pairs, winners, &s.batch); err != nil {
		return Result{}, err
	}
	r := Result{
		Items: items,
		Wins:  resize(&s.wins, n),
	}
	clear(r.Wins)
	if opts.RecordLosers {
		r.Losers = make([][]int, n)
	}
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if winners[p] == int32(i) {
				r.Wins[i]++
				if opts.RecordLosers {
					r.Losers[j] = append(r.Losers[j], items[i].ID)
				}
			} else {
				r.Wins[j]++
				if opts.RecordLosers {
					r.Losers[i] = append(r.Losers[i], items[j].ID)
				}
			}
			p++
		}
	}
	return r, nil
}

// resize returns *buf resliced to length n, reallocating it when its
// capacity falls short. Contents are not cleared.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// PivotPass compares pivot x against every element of candidates (skipping x
// itself) in one logical step and returns the survivors — the elements that
// did NOT lose to x — and the IDs of the eliminated elements. This is
// step 4 of 2-MaxFind: "Compare x against all candidate elements and
// eliminate all elements that lose to x." The pivot itself always survives.
// On cancellation or budget exhaustion the error is returned with nil
// survivors.
func PivotPass(ctx context.Context, x item.Item, candidates []item.Item, o *Oracle) (survivors []item.Item, eliminated []int, err error) {
	if len(candidates) == 0 {
		return nil, nil, nil
	}
	// The pairs index into candidates; x is found there (2-MaxFind draws it
	// from the candidates) or appended to a copy.
	items := candidates
	xi := slices.Index(candidates, x)
	if xi < 0 {
		items = append(candidates[:len(candidates):len(candidates)], x)
		xi = len(candidates)
	}
	pairs := make([][2]int32, 0, len(candidates))
	for i, c := range candidates {
		if c.ID != x.ID {
			pairs = append(pairs, [2]int32{int32(xi), int32(i)})
		}
	}
	winners := make([]int32, len(pairs))
	if err := o.CompareBatchInto(ctx, items, pairs, winners, new(BatchScratch)); err != nil {
		return nil, nil, err
	}
	survivors = make([]item.Item, 0, len(candidates))
	p := 0
	for _, c := range candidates {
		if c.ID == x.ID {
			survivors = append(survivors, c)
			continue
		}
		if winners[p] == int32(xi) {
			eliminated = append(eliminated, c.ID)
		} else {
			survivors = append(survivors, c)
		}
		p++
	}
	return survivors, eliminated, nil
}

// lossShards is the number of independently locked stripes of a
// LossTracker, fixed at a power of two so the stripe index is a mask.
const lossShards = 64

// lossShard is one stripe: a mutex and the loser → distinct-winner sets it
// owns.
type lossShard struct {
	mu     sync.Mutex
	losses map[int]map[int]struct{}
}

// LossTracker implements the second Appendix A optimization: it counts, for
// every element, losses against *distinct* opponents across all filter
// iterations. By Lemma 1, an element with more than un(n) distinct-opponent
// losses cannot be the maximum and can be discarded early.
//
// Safe for concurrent use, and — unlike the previous single-mutex design —
// not a serialization point under the batch scheduler: entries are striped
// across 64 independently locked shards by loser ID, so goroutines
// recording losses for different elements almost never share a lock. The
// counts are set cardinalities, so recording order is irrelevant to the
// final state.
type LossTracker struct {
	shards [lossShards]lossShard
}

// NewLossTracker returns an empty tracker.
func NewLossTracker() *LossTracker {
	t := &LossTracker{}
	for i := range t.shards {
		t.shards[i].losses = make(map[int]map[int]struct{})
	}
	return t
}

// lossShard returns the stripe owning the loser ID.
func (t *LossTracker) shard(loser int) *lossShard {
	h := uint64(loser) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return &t.shards[h&(lossShards-1)]
}

// Record notes that loser lost a comparison to winner.
func (t *LossTracker) Record(loser, winner int) {
	s := t.shard(loser)
	s.mu.Lock()
	set, ok := s.losses[loser]
	if !ok {
		set = make(map[int]struct{})
		s.losses[loser] = set
	}
	set[winner] = struct{}{}
	s.mu.Unlock()
}

// Losses returns the number of distinct opponents the element has lost to.
func (t *LossTracker) Losses(id int) int {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.losses[id])
}
