// Package crowdmax finds the maximum of a set of elements using two classes
// of crowd workers — cheap naïve workers and scarce, expensive experts — as
// introduced in "The Importance of Being Expert: Efficient Max-Finding in
// Crowdsourcing" (Anagnostopoulos, Becchetti, Fazzone, Mele, Riondato;
// SIGMOD 2015).
//
// # Model
//
// Workers compare two elements at a time and follow the threshold model
// T(δ, ε): when the elements' values differ by more than δ the worker
// returns the larger one with probability 1 − ε; when they are within δ the
// answer is arbitrary, and no amount of repetition or majority voting can
// recover the truth. Naïve workers have a large threshold δn; experts have
// δe ≪ δn and cost ce ≫ cn per comparison.
//
// # Algorithm
//
// FindMax runs the paper's two-phase algorithm: naïve workers filter the n
// elements down to at most 2·un − 1 candidates guaranteed (for ε = 0) to
// contain the maximum, using at most 4·n·un comparisons, where un counts
// the elements naïve-indistinguishable from the maximum; experts then
// extract an element within 2·δe of the maximum from the candidates using
// O(un^{3/2}) comparisons. Both phases are optimal up to constant factors.
//
// # Quick start
//
//	set := crowdmax.NewSet(values)
//	session, err := crowdmax.NewSession(crowdmax.Config{
//		Naive:  crowdmax.NewThresholdWorker(0.1, 0, rand1),
//		Expert: crowdmax.NewThresholdWorker(0.01, 0, rand2),
//		Un:     10,
//		Prices: crowdmax.Prices{Naive: 1, Expert: 50},
//	})
//	res, err := session.FindMax(set.Items())
//	// res.Best, res.Candidates, res.Cost, ...
//
// Session.Run runs the same engine on any workload — MaxFind, TopKWorkload
// or ScoreWorkload — under a context, and Session.ResumeWorkload continues
// a checkpointed run after a crash. Each Result reports its own run's paid
// comparisons and cost.
//
// The subpackages under internal implement the full system: worker error
// models (including the empirical pair-bias model fitted to the paper's
// CrowdFlower measurements), a crowdsourcing-platform simulator with gold
// questions and spam filtering, dataset generators, and a harness that
// regenerates every table and figure of the paper's evaluation (see
// cmd/benchrun).
package crowdmax

import (
	"context"

	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// Item is one element of the universe: an ID, a ground-truth value v(e),
// and an optional label.
type Item = item.Item

// Set is an immutable collection of items with precomputed order
// statistics (true ranks, un/ue counts, threshold calibration).
type Set = item.Set

// NewSet builds a Set from raw values; items receive IDs 0..n−1.
func NewSet(values []float64) *Set { return item.NewSet(values) }

// NewSetItems builds a Set from labelled items, reassigning dense IDs.
func NewSetItems(items []Item) *Set { return item.NewSetItems(items) }

// Rand is a deterministic, splittable random stream; see NewRand.
type Rand = rng.Source

// NewRand returns a Rand seeded with seed. Use Child/ChildN to derive
// independent streams for workers and trials.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Comparator is any source of pairwise comparison answers — typically a
// simulated worker, or an adapter calling out to a real crowdsourcing
// platform.
type Comparator = worker.Comparator

// ComparatorFunc adapts a function to the Comparator interface.
type ComparatorFunc = worker.Func

// Class identifies a worker's billing/accuracy class.
type Class = worker.Class

// Worker classes.
const (
	Naive  = worker.Naive
	Expert = worker.Expert
)

// ThresholdWorker is a worker following the threshold model T(δ, ε).
type ThresholdWorker = worker.Threshold

// NewThresholdWorker returns a T(δ, ε) worker with uniformly random
// tie-breaking below the threshold, the paper's simulation default.
func NewThresholdWorker(delta, epsilon float64, r *Rand) *ThresholdWorker {
	return worker.NewThreshold(delta, epsilon, r)
}

// HashTie breaks under-threshold ties by a deterministic hash of the pair —
// a pure function of its Seed and the two item IDs, independent of
// evaluation order. A ThresholdWorker with ε = 0 and a HashTie is safe for
// concurrent use, which makes it the tie-breaker to pair with
// Oracle.ParallelBatch.
type HashTie = worker.HashTie

// Valuer is any source of cardinal value estimates — the crowd-scoring
// query: "how good is this element?", answered per (element, repetition).
// The score workload asks each element Votes independent value queries and
// aggregates them robustly.
type Valuer = worker.Valuer

// NoisyValuer is a crowd scorer with additive seeded noise: each vote is the
// element's true value plus deterministic pseudo-Gaussian noise, a pure
// function of (Seed, element ID, rep) — so it is concurrency-safe and
// replay-stable, the value-query analogue of a HashTie comparator.
type NoisyValuer = worker.NoisyValuer

// Prices holds the per-comparison prices cn and ce of the cost model
// C(n) = xe·ce + xn·cn.
type Prices = cost.Prices

// Ledger accumulates comparison counts, memoization hits and logical steps.
type Ledger = cost.Ledger

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return cost.NewLedger() }

// FindMaxResult reports the outcome of a two-phase run.
type FindMaxResult = core.FindMaxResult

// Oracle answers comparison requests through a worker, billing a ledger and
// optionally memoizing answers (Appendix A optimization).
type Oracle = tournament.Oracle

// Memo caches comparison answers per worker class: the n × n table of
// Appendix A over item IDs [0, n).
type Memo = tournament.Memo

// NewMemo returns an empty memo table over item IDs [0, n) — the dense IDs
// a dataset's Items carry; pass the set's Len. Comparing an item whose ID
// lies outside the range through a memoized oracle panics.
func NewMemo(n int) *Memo { return tournament.NewMemo(n) }

// NewOracle binds a comparator of the given class to a ledger; memo may be
// nil to disable memoization. Call Oracle.ParallelBatch to evaluate batch
// comparisons concurrently when the comparator is concurrency-safe and
// order-independent (e.g. a ThresholdWorker with ε = 0 and a HashTie).
func NewOracle(cmp Comparator, class Class, ledger *Ledger, memo *Memo) *Oracle {
	return tournament.NewOracle(cmp, class, ledger, memo)
}

// FindMax runs Algorithm 1 with explicit oracles. Most callers should use
// Session.FindMax instead. ctx cancels the run; on cancellation or budget
// exhaustion the partial result is returned alongside the error (see
// core.FindMax).
func FindMax(ctx context.Context, items []Item, naive, expert *Oracle, opt core.FindMaxOptions) (FindMaxResult, error) {
	return core.FindMax(ctx, items, naive, expert, opt)
}

// FindMaxOptions configures FindMax; see core.FindMaxOptions.
type FindMaxOptions = core.FindMaxOptions

// Filter runs phase 1 alone (Algorithm 2): it returns at most 2·un − 1
// candidates guaranteed to contain the maximum under T(δn, 0).
func Filter(ctx context.Context, items []Item, naive *Oracle, opt core.FilterOptions) ([]Item, error) {
	return core.Filter(ctx, items, naive, opt)
}

// FilterOptions configures Filter; see core.FilterOptions.
type FilterOptions = core.FilterOptions

// TwoMaxFind runs the deterministic 2-MaxFind of Ajtai et al. over items:
// O(s^{3/2}) comparisons, result within 2δ of the maximum under T(δ, 0).
func TwoMaxFind(ctx context.Context, items []Item, o *Oracle) (Item, error) {
	return core.TwoMaxFind(ctx, items, o)
}

// RandomizedMaxFind runs the randomized Algorithm 5 of Ajtai et al.: Θ(s)
// comparisons (large constants), result within 3δ of the maximum w.h.p.
func RandomizedMaxFind(ctx context.Context, items []Item, o *Oracle, opt core.RandomizedOptions) (Item, error) {
	return core.RandomizedMaxFind(ctx, items, o, opt)
}

// RandomizedOptions configures RandomizedMaxFind.
type RandomizedOptions = core.RandomizedOptions

// EstimateUn runs Algorithm 4: it estimates an upper bound for un(N) from a
// training set with known maximum (gold data).
func EstimateUn(ctx context.Context, training []Item, naive *Oracle, opt core.EstimateUnOptions) (int, error) {
	return core.EstimateUn(ctx, training, naive, opt)
}

// EstimateUnOptions configures EstimateUn.
type EstimateUnOptions = core.EstimateUnOptions

// EstimatePerr estimates the under-threshold error probability perr from
// consensus probes on training data (Section 4.4).
func EstimatePerr(ctx context.Context, training []Item, naive *Oracle, opt core.EstimatePerrOptions) (float64, error) {
	return core.EstimatePerr(ctx, training, naive, opt)
}

// EstimatePerrOptions configures EstimatePerr.
type EstimatePerrOptions = core.EstimatePerrOptions

// TopKOptions configures TopK.
type TopKOptions = core.TopKOptions

// TopK returns k elements ordered best-first by running the two-phase
// algorithm k times, removing each round's winner — turning max-finding
// into the ranking tasks the paper's introduction motivates. Memoized
// oracles make later rounds substantially cheaper.
func TopK(ctx context.Context, items []Item, naive, expert *Oracle, opt TopKOptions) ([]Item, error) {
	return core.TopK(ctx, items, naive, expert, opt)
}

// RoundError reports a truncated TopK run: the 1-based round that failed,
// how many ranks completed, and the failed round's best-so-far leader.
// errors.As recovers it from a TopK error to salvage partial progress.
type RoundError = core.RoundError

// BracketOptions configures TournamentMax.
type BracketOptions = core.BracketOptions

// TournamentMax runs the classic single-elimination tournament baseline
// (related work, Venetis et al.): (n−1)·Repetitions comparisons, ⌈log2 n⌉
// logical steps, no accuracy guarantee under the threshold model.
func TournamentMax(ctx context.Context, items []Item, o *Oracle, opt BracketOptions) (Item, error) {
	return core.TournamentMax(ctx, items, o, opt)
}

// Level is one expertise class in the multi-class cascade extension: its
// oracle and its u(δ) value.
type Level = core.Level

// CascadeOptions configures CascadeFindMax.
type CascadeOptions = core.CascadeOptions

// CascadeResult reports a cascade run.
type CascadeResult = core.CascadeResult

// CascadeFindMax generalizes the two-phase algorithm to any number of
// worker classes ordered from least to most expert (Section 3.3's
// multi-class extension): every level but the last filters its input with
// Algorithm 2, and the last level extracts the maximum. With exactly two
// levels this is Algorithm 1.
func CascadeFindMax(ctx context.Context, items []Item, opt CascadeOptions) (CascadeResult, error) {
	return core.CascadeFindMax(ctx, items, opt)
}

// Backend is a pluggable comparison-answering service: the dispatch seam
// every paid comparison flows through when attached to an oracle via
// Oracle.WithBackend. Implementations may call out to a real crowdsourcing
// platform, inject faults (FlakyBackend), or add resilience (RetryBackend).
type Backend = dispatch.Backend

// BackendRequest is one comparison submitted to a Backend.
type BackendRequest = dispatch.Request

// BackendAnswer is a Backend's reply.
type BackendAnswer = dispatch.Answer

// NewSimulatedBackend wraps an in-process comparator as a Backend — the
// bridge between the simulated workers and the dispatch layer.
func NewSimulatedBackend(cmp Comparator) Backend { return dispatch.NewSimulated(cmp) }

// FlakyConfig configures NewFlakyBackend.
type FlakyConfig = dispatch.FlakyConfig

// NewFlakyBackend decorates a backend with deterministic fault and latency
// injection — the failure model of a real platform made reproducible.
func NewFlakyBackend(inner Backend, cfg FlakyConfig) Backend { return dispatch.NewFlaky(inner, cfg) }

// RetryConfig configures NewRetryBackend.
type RetryConfig = dispatch.RetryConfig

// NewRetryBackend decorates a backend with bounded retries, per-attempt
// timeouts and exponential backoff. Cancellation and budget exhaustion are
// never retried.
func NewRetryBackend(inner Backend, cfg RetryConfig) Backend { return dispatch.NewRetry(inner, cfg) }

// ErrBackendUnavailable marks transient backend failures (worth retrying).
var ErrBackendUnavailable = dispatch.ErrBackendUnavailable

// ErrBudgetExhausted is returned (possibly wrapped) when a comparison is
// refused because it would exceed a hard budget cap. Partial results remain
// valid; check with errors.Is.
var ErrBudgetExhausted = dispatch.ErrBudgetExhausted

// BudgetLimits declares hard caps on comparison counts and monetary spend;
// zero fields are unlimited.
type BudgetLimits = dispatch.Limits

// Budget enforces BudgetLimits with all-or-nothing pre-charging: a cap is
// never exceeded by even one comparison, under any concurrency.
type Budget = dispatch.Budget

// NewBudget returns a budget enforcing lim.
func NewBudget(lim BudgetLimits) *Budget { return dispatch.NewBudget(lim) }
