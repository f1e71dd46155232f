package crowdmax

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/core"
	"crowdmax/internal/degrade"
)

// The registered workload kinds — the strings Session.Run stamps into
// checkpoints, job records, and event streams, and ResumeWorkload checks.
const (
	// MaxFindKind is the original two-phase max-finding workload.
	MaxFindKind = checkpoint.KindMaxFind
	// TopKKind is the top-k ranking workload (TopKWorkload).
	TopKKind = "top-k"
	// ScoreKind is the crowd-scoring workload (ScoreWorkload).
	ScoreKind = "score"
)

// Workload is a session-servable crowd algorithm: max-finding, top-k
// ranking, crowd scoring. A workload declares its kind (the name stamped
// into checkpoints and job records), validates the session configuration it
// needs, and runs against the engine-wired environment — oracles with
// backends, budget, chaos, health, and checkpoint plumbing already attached.
// Construct instances with MaxFind, TopKWorkload, or ScoreWorkload; the
// interface's methods are unexported because a workload needs the session
// package's internal plumbing to run.
type Workload interface {
	// Kind names the workload ("max-find", "top-k", "score").
	Kind() string
	// validate rejects session configurations the workload cannot run on.
	validate(cfg *Config, nItems int) error
	// prepare runs after the engine wires the environment but before the
	// "start" checkpoint boundary: workloads create controllers, decode
	// their resume blob, and register snapshot hooks here.
	prepare(env *runEnv) error
	// run executes the workload. It owns the tail of the run: reporting the
	// run ledger's totals and labelling the Result honestly.
	run(ctx context.Context, env *runEnv) (Result, error)
}

// runEnv is the engine-wired environment a workload runs against: the
// session, input, oracles (backends/budget attached), checkpoint writer,
// resume snapshot, and the live handles degrade controllers sample.
type runEnv struct {
	s          *Session
	items      []Item
	resume     *checkpoint.State
	runLedger  *Ledger
	budget     *Budget
	r          *Rand
	no, eo     *Oracle
	ck         *ckWriter
	expertPool *WorkerPool
	hooks      *snapHooks
	// ctl is the run-scoped degrade controller (max-find); per-round
	// workloads register theirs through hooks instead.
	ctl *degrade.Controller
	// wl holds workload-private state created by prepare.
	wl any
}

// snapHooks is the mutable registration point between a workload and the
// checkpoint snapshot builder: the currently-supervising degrade controller
// (whose rung and decision hash ride in the snapshot) and the workload's
// opaque state-blob builder. Registered by prepare/run, read at every
// snapshot under the hook lock.
type snapHooks struct {
	mu   sync.Mutex
	ctl  *degrade.Controller
	blob func() []byte
}

func (h *snapHooks) setController(ctl *degrade.Controller) {
	h.mu.Lock()
	h.ctl = ctl
	h.mu.Unlock()
}

func (h *snapHooks) setBlob(f func() []byte) {
	h.mu.Lock()
	h.blob = f
	h.mu.Unlock()
}

// snapshot returns the registered controller and the workload blob rendered
// now. The blob builder is invoked under the hook lock; builders take only
// their own state locks.
func (h *snapHooks) snapshot() (*degrade.Controller, []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var blob []byte
	if h.blob != nil {
		blob = h.blob()
	}
	return h.ctl, blob
}

// ----------------------------------------------------------------------------
// max-find

// maxFindWorkload is the original two-phase algorithm as a Workload.
type maxFindWorkload struct{}

// MaxFind returns the two-phase max-finding workload — the algorithm
// Session.FindMax runs: Run(ctx, MaxFind(), items) is FindMax under ctx.
func MaxFind() Workload { return maxFindWorkload{} }

// Kind implements Workload.
func (maxFindWorkload) Kind() string { return MaxFindKind }

func (maxFindWorkload) validate(cfg *Config, nItems int) error { return nil }

func (maxFindWorkload) prepare(env *runEnv) error {
	if env.s.cfg.Degrade != nil {
		env.ctl = degrade.NewController(env.r.Seed())
		env.hooks.setController(env.ctl)
	}
	return nil
}

func (maxFindWorkload) run(ctx context.Context, env *runEnv) (Result, error) {
	s := env.s
	if env.ctl != nil {
		return s.findMaxDegraded(ctx, env, env.ctl)
	}
	opt := core.FindMaxOptions{Un: s.cfg.Un, OnPhase: s.phaseHook(env.ck)}
	res, err := core.FindMax(ctx, env.items, env.no, env.eo, opt)
	if err == nil && env.ck != nil {
		// A boundary snapshot that failed to write cannot fail the run
		// through the backend path (no comparison follows it); surface it
		// here so checkpointed runs never report success without a
		// durable final snapshot.
		err = env.ck.Err()
	}
	rung, guarantee := "expert-2maxfind", Guarantee2DeltaE
	if err != nil {
		// A truncated run's Best is a best-so-far leader; claiming
		// 2-MaxFind's bound for it would overstate the quality.
		rung, guarantee = "best-so-far", GuaranteeNone
	}
	return Result{
		Best:              res.Best,
		Candidates:        res.Candidates,
		NaiveComparisons:  env.runLedger.Naive(),
		ExpertComparisons: env.runLedger.Expert(),
		Cost:              env.runLedger.Cost(s.cfg.Prices),
		Rung:              rung,
		Guarantee:         guarantee,
		Phase1Complete:    len(res.Candidates) > 0,
		Decisions:         nil,
	}, err
}

// ----------------------------------------------------------------------------
// top-k

// topKWorkload ranks the best k elements by repeated supervised max-finding.
type topKWorkload struct{ k int }

// TopKWorkload returns the top-k ranking workload: k rounds of the two-phase
// algorithm, each extracting and removing the current maximum (wrapping
// core.TopK), with memoized oracles making later rounds substantially
// cheaper than k independent max-finds. Each rank carries its own rung and
// guarantee in Result.Ranked; checkpoints snapshot at rank boundaries, so a
// resumed run replays only the in-flight round (completed ranks are restored
// from the snapshot, and the in-flight round's comparisons are free memo
// hits). Under Config.Degrade each round is independently supervised by a
// fresh controller; a round that falls to best-so-far stops the run rather
// than poison later ranks with an unvouched removal.
func TopKWorkload(k int) Workload { return &topKWorkload{k: k} }

// Kind implements Workload.
func (w *topKWorkload) Kind() string { return TopKKind }

func (w *topKWorkload) validate(cfg *Config, nItems int) error {
	if w.k < 1 || w.k > nItems {
		return fmt.Errorf("crowdmax: TopKWorkload requires 1 ≤ k ≤ n, got k=%d n=%d", w.k, nItems)
	}
	return nil
}

// topkState is the workload's checkpointable progress: the completed ranks.
type topkState struct {
	mu    sync.Mutex
	k     int
	ranks []RankedResult
}

func (st *topkState) append(r RankedResult) {
	st.mu.Lock()
	st.ranks = append(st.ranks, r)
	st.mu.Unlock()
}

func (st *topkState) snapshotRanks() []RankedResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]RankedResult(nil), st.ranks...)
}

// encode renders the rank log as the checkpoint workload blob.
func (st *topkState) encode() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b checkpoint.Builder
	b.U64(1) // blob revision
	b.I64(int64(st.k))
	b.I64(int64(len(st.ranks)))
	for _, r := range st.ranks {
		b.I64(int64(r.Item.ID))
		b.Str(r.Rung)
		b.Str(string(r.Guarantee))
	}
	return b.Bytes()
}

// topkRankRecord is one decoded rank: the winner by ID (the Item is
// reconstructed from the resume input, which the items fingerprint pins).
type topkRankRecord struct {
	id   int
	rung string
	g    Guarantee
}

func decodeTopKBlob(blob []byte) (k int, ranks []topkRankRecord, err error) {
	r := checkpoint.NewReader(blob)
	if rev := r.U64(); r.Err() == nil && rev != 1 {
		return 0, nil, fmt.Errorf("%w: unknown top-k state revision %d", checkpoint.ErrCorrupt, rev)
	}
	k = int(r.I64())
	n := r.Count(8)
	for i := int64(0); i < n; i++ {
		ranks = append(ranks, topkRankRecord{
			id:   int(r.I64()),
			rung: r.Str(),
			g:    Guarantee(r.Str()),
		})
	}
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	if k < 1 || len(ranks) > k {
		return 0, nil, fmt.Errorf("%w: top-k state claims %d ranks of k=%d", checkpoint.ErrCorrupt, len(ranks), k)
	}
	return k, ranks, nil
}

func (w *topKWorkload) prepare(env *runEnv) error {
	st := &topkState{k: w.k}
	if env.resume != nil {
		k, recs, err := decodeTopKBlob(env.resume.Workload)
		if err != nil {
			return err
		}
		if k != w.k {
			return fmt.Errorf("crowdmax: checkpoint was taken with k=%d, workload has k=%d", k, w.k)
		}
		byID := make(map[int]Item, len(env.items))
		for _, it := range env.items {
			byID[it.ID] = it
		}
		for _, rec := range recs {
			it, ok := byID[rec.id]
			if !ok {
				return fmt.Errorf("crowdmax: checkpointed rank winner %d is not in the given items", rec.id)
			}
			st.ranks = append(st.ranks, RankedResult{Item: it, Rung: rec.rung, Guarantee: rec.g})
		}
	}
	env.wl = st
	env.hooks.setBlob(st.encode)
	return nil
}

func (w *topKWorkload) run(ctx context.Context, env *runEnv) (Result, error) {
	s := env.s
	st := env.wl.(*topkState)
	ranked := st.snapshotRanks()
	done := make(map[int]bool, len(ranked))
	for _, r := range ranked {
		done[r.Item.ID] = true
	}
	remaining := make([]Item, 0, len(env.items))
	for _, it := range env.items {
		if !done[it.ID] {
			remaining = append(remaining, it)
		}
	}

	var decisions []DegradeDecision
	var runErr error
	record := func(r RankedResult) {
		ranked = append(ranked, r)
		st.append(r)
		kept := remaining[:0]
		for _, it := range remaining {
			if it.ID != r.Item.ID {
				kept = append(kept, it)
			}
		}
		remaining = kept
		// The rank boundary snapshot makes the completed rank durable
		// before the next round spends anything on it.
		if env.ck != nil {
			env.ck.boundary("rank", remaining)
		}
		if s.cfg.OnPhase != nil {
			s.cfg.OnPhase("rank", remaining)
		}
	}

rounds:
	for round := len(ranked); round < st.k; round++ {
		if s.cfg.Degrade != nil && len(remaining) > 1 {
			// Each round gets a fresh controller: failure counts and ladder
			// positions from one rank say nothing about the next.
			ctl := degrade.NewController(env.r.ChildN("topk-ctl", round).Seed())
			env.hooks.setController(ctl)
			opt := s.degradeOptions(ctx, env, core.RandomizedOptions{R: env.r.ChildN("topk-phase2", round)})
			out, err := degrade.Run(ctx, remaining, env.no, env.eo, ctl, opt)
			decisions = append(decisions, out.Decisions...)
			if err != nil {
				runErr = fmt.Errorf("round %d: %w", round+1, err)
				break
			}
			if out.Rung == degrade.RungBestSoFar {
				// The round fell to the terminal rung: its leader carries no
				// bound, and removing an unvouched winner would poison every
				// later rank. Record what there is and stop.
				if out.Best != (Item{}) {
					record(RankedResult{Item: out.Best, Rung: out.Rung.String(), Guarantee: GuaranteeNone})
				}
				break rounds
			}
			record(RankedResult{Item: out.Best, Rung: out.Rung.String(), Guarantee: out.Rung.Guarantee()})
			continue
		}
		// Undegraded (or single-element) round: wrap core.TopK for its
		// validation, single-survivor shortcut, and truncation reporting.
		out, err := core.TopK(ctx, remaining, env.no, env.eo, core.TopKOptions{K: 1, U: s.cfg.Un})
		if err != nil {
			// Re-wrap with the global round number (core.TopK saw round 1 of
			// its one-round run).
			var re *core.RoundError
			if errors.As(err, &re) {
				err = re.Err
			}
			runErr = fmt.Errorf("round %d: %w", round+1, err)
			break
		}
		record(RankedResult{Item: out[0], Rung: "expert-2maxfind", Guarantee: Guarantee2DeltaE})
	}

	if runErr == nil && env.ck != nil {
		runErr = env.ck.Err()
	}
	res := Result{
		Ranked:            ranked,
		NaiveComparisons:  env.runLedger.Naive(),
		ExpertComparisons: env.runLedger.Expert(),
		Cost:              env.runLedger.Cost(s.cfg.Prices),
		Decisions:         decisions,
	}
	if len(ranked) > 0 {
		res.Best = ranked[0].Item
	}
	if runErr == nil && len(ranked) > 0 {
		// The overall label is the weakest rank's: a ranking is only as
		// trustworthy as its least-vouched entry.
		weakest := ranked[0]
		for _, r := range ranked[1:] {
			if r.Guarantee.Strength() < weakest.Guarantee.Strength() {
				weakest = r
			}
		}
		res.Rung, res.Guarantee = weakest.Rung, weakest.Guarantee
		res.Phase1Complete = len(ranked) == st.k
		if s.cfg.OnPhase != nil {
			s.cfg.OnPhase("done", remaining)
		}
	} else {
		res.Rung, res.Guarantee = "best-so-far", GuaranteeNone
	}
	return res, runErr
}

// ----------------------------------------------------------------------------
// crowd scoring

// ItemScore pairs an element with its aggregated crowd score.
type ItemScore = core.ItemScore

// ScoreConfig configures the crowd-scoring workload.
type ScoreConfig struct {
	// Votes is the number of independent cardinal votes per element in the
	// scoring phase; 0 defaults to 3. Each element's votes are combined by
	// a trimmed mean (the top and bottom quarter dropped), and the expert
	// phase sees the 2·un − 1 top-scored elements.
	Votes int
}

// scoreWorkload is the crowd-scoring workload (Nordio et al.).
type scoreWorkload struct{ cfg ScoreConfig }

// ScoreWorkload returns the crowd-scoring workload: naïve workers score
// every element with Votes cardinal value queries each, the votes are
// aggregated robustly, and experts extract the best element from the
// top-scored shortlist (core.Score). The session needs a Config.Valuer (or a
// NaiveBackend that answers value queries). A clean run reports rung
// "score-expert" with the 2δe@subset guarantee — experts were exact, but
// over a score-derived shortlist. Under Config.Degrade, a run whose expert
// phase fails recoverably after scoring completed falls back to the
// aggregated-score leader under rung "score-naive" (δn) instead of failing.
func ScoreWorkload(cfg ScoreConfig) Workload { return &scoreWorkload{cfg: cfg} }

// Kind implements Workload.
func (w *scoreWorkload) Kind() string { return ScoreKind }

func (w *scoreWorkload) validate(cfg *Config, nItems int) error {
	if w.cfg.Votes < 0 {
		return fmt.Errorf("crowdmax: ScoreConfig.Votes must be ≥ 0, got %d", w.cfg.Votes)
	}
	if cfg.Valuer == nil && cfg.NaiveBackend == nil {
		return errors.New("crowdmax: ScoreWorkload requires Config.Valuer or a NaiveBackend that answers value queries")
	}
	return nil
}

// encodeBlob fingerprints the score configuration into the checkpoint blob
// so a resume can refuse a mismatched workload. The two zeros are the
// retired aggregation and shortlist fields, kept so the format is unchanged.
func (w *scoreWorkload) encodeBlob() []byte {
	var b checkpoint.Builder
	b.U64(1) // blob revision
	b.I64(int64(w.cfg.Votes))
	b.I64(0) // aggregation: trimmed mean
	b.I64(0) // shortlist: 2·un − 1
	return b.Bytes()
}

// decodeScoreBlob reads a score blob back, refusing one written with a
// non-default aggregation or shortlist: no session runs those any more.
func decodeScoreBlob(blob []byte) (ScoreConfig, error) {
	r := checkpoint.NewReader(blob)
	if rev := r.U64(); r.Err() == nil && rev != 1 {
		return ScoreConfig{}, fmt.Errorf("%w: unknown score state revision %d", checkpoint.ErrCorrupt, rev)
	}
	cfg := ScoreConfig{Votes: int(r.I64())}
	agg, shortlist := r.I64(), r.I64()
	if err := r.Done(); err != nil {
		return ScoreConfig{}, err
	}
	if agg != 0 {
		return ScoreConfig{}, fmt.Errorf("crowdmax: checkpoint was taken with score aggregation %d; only the trimmed mean (0) is supported", agg)
	}
	if shortlist != 0 {
		return ScoreConfig{}, fmt.Errorf("crowdmax: checkpoint was taken with score shortlist %d; only the default (0) is supported", shortlist)
	}
	return cfg, nil
}

func (w *scoreWorkload) prepare(env *runEnv) error {
	if env.resume != nil {
		got, err := decodeScoreBlob(env.resume.Workload)
		if err != nil {
			return err
		}
		if got != w.cfg {
			return fmt.Errorf("crowdmax: checkpoint was taken with score config %+v, workload has %+v", got, w.cfg)
		}
	}
	env.hooks.setBlob(w.encodeBlob)
	return nil
}

func (w *scoreWorkload) run(ctx context.Context, env *runEnv) (Result, error) {
	s := env.s
	opt := core.ScoreOptions{Votes: w.cfg.Votes, U: s.cfg.Un, OnPhase: s.phaseHook(env.ck)}
	res, serr := core.Score(ctx, env.items, env.no, env.eo, opt)
	var ckErr error
	if env.ck != nil {
		ckErr = env.ck.Err()
	}
	err := serr
	if err == nil {
		err = ckErr
	}
	out := Result{
		Best:              res.Best,
		Candidates:        res.Shortlist,
		Scores:            res.Scores,
		NaiveComparisons:  env.runLedger.Naive(),
		ExpertComparisons: env.runLedger.Expert(),
		Cost:              env.runLedger.Cost(s.cfg.Prices),
		Phase1Complete:    res.ScoresComplete,
	}
	switch {
	case err == nil:
		out.Rung, out.Guarantee = "score-expert", Guarantee2DeltaESubset
	case s.cfg.Degrade != nil && res.ScoresComplete && ckErr == nil && recoverableScoreErr(err):
		// Graceful degradation: scoring completed, only the expert
		// extraction failed — serve the aggregated-score leader under the
		// honest naive-strength label instead of failing the run.
		out.Best = res.Scores[0].Item
		out.Rung, out.Guarantee = "score-naive", GuaranteeDeltaN
		err = nil
	default:
		out.Rung, out.Guarantee = "best-so-far", GuaranteeNone
	}
	return out, err
}

// recoverableScoreErr reports whether a score run's expert-phase failure may
// be absorbed by the score-naive fallback. Cancellation, deadlines, and
// injected crashes stay fatal — crash recovery is ResumeWorkload's job.
func recoverableScoreErr(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrInjectedCrash)
}
