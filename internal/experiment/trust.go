package experiment

import (
	"context"
	"fmt"
	"hash/fnv"

	"crowdmax/internal/chaos"
	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/parallel"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// TrustMix is one adversary composition of the worker pool: how many of the
// PoolSize workers are chance-level spammers and how many belong to a
// coordinated gold-acing clique.
type TrustMix struct {
	Spammers  int `json:"spammers"`
	Colluders int `json:"colluders"`
}

// TrustArms are the scorer arms the sweep compares, in report order.
var TrustArms = []string{"gold", "graph", "hybrid"}

// TrustConfig configures the trust sweep: phase-1 max retention and total
// paid comparisons per (adversary mix, scorer arm) cell. It answers the
// question the gold-probe breaker cannot: what happens when the adversary
// *passes* the probes? The clique arm of each mix answers the leaked gold
// set honestly and coordinately inverts everything else, so the gold scorer
// keeps paying it while the agreement-graph scorer (internal/trust) evicts
// it from the disagreement structure alone.
type TrustConfig struct {
	// N is the input size; defaults to 400.
	N int
	// Un and Ue are the calibrated distinguishability parameters; default
	// 8 and 3.
	Un, Ue int
	// PoolSize is the number of naïve workers in the pool; defaults to 10.
	PoolSize int
	// Trials is the number of random instances per cell; defaults to 40.
	Trials int
	// Warmup is the number of unlabeled warm-up comparisons driven through
	// the pool before phase 1, on every arm — the spend that buys the
	// detectors their evidence (gold probes for the gold arm, duplicate
	// samples for the graph arm) before retention is on the line. Defaults
	// to 240.
	Warmup int
	// Mixes are the (spammers, colluders) compositions swept; defaults to
	// {0,0}, {2,0}, {0,2}, {0,3}, {2,2}.
	Mixes []TrustMix
	// Seed derives every instance, worker, and routing stream; a fixed seed
	// reproduces the sweep bit-identically.
	Seed uint64
	// Workers bounds the parallel cell evaluations (0 = GOMAXPROCS).
	Workers int
}

func (c TrustConfig) withDefaults() TrustConfig {
	if c.N == 0 {
		c.N = 400
	}
	if c.Un == 0 {
		c.Un = 8
	}
	if c.Ue == 0 {
		c.Ue = 3
	}
	if c.PoolSize == 0 {
		c.PoolSize = 10
	}
	if c.Trials == 0 {
		c.Trials = 40
	}
	if c.Warmup == 0 {
		c.Warmup = 240
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []TrustMix{{0, 0}, {2, 0}, {0, 2}, {0, 3}, {2, 2}}
	}
	return c
}

func (c TrustConfig) validate() error {
	if c.N < 8 || c.Un < 1 || c.Ue < 1 || c.PoolSize < 2 || c.Trials < 1 || c.Warmup < 0 {
		return fmt.Errorf("experiment: trust config out of range: %+v", c)
	}
	for _, m := range c.Mixes {
		if m.Spammers < 0 || m.Colluders < 0 || m.Spammers+m.Colluders >= c.PoolSize {
			return fmt.Errorf("experiment: trust mix %+v leaves no honest majority in a pool of %d", m, c.PoolSize)
		}
	}
	return nil
}

// TrustArmStats is one arm's aggregate over a mix's trials.
type TrustArmStats struct {
	// RetentionPct is the percentage of trials whose phase-1 survivors
	// still contained the true maximum.
	RetentionPct float64 `json:"retention_pct"`
	// MeanCost is the mean total paid comparisons per trial — routed
	// answers plus gold probes plus disagreement duplicates, warm-up
	// included. Retention per dollar is RetentionPct / MeanCost.
	MeanCost float64 `json:"mean_cost"`
}

// TrustCell is one adversary mix's result across all arms.
type TrustCell struct {
	Spammers  int                      `json:"spammers"`
	Colluders int                      `json:"colluders"`
	Arms      map[string]TrustArmStats `json:"arms"`
}

// TrustReport is the sweep's result: the configuration it ran and one cell
// per adversary mix.
type TrustReport struct {
	Seed     uint64      `json:"seed"`
	N        int         `json:"n"`
	Un       int         `json:"un"`
	Ue       int         `json:"ue"`
	PoolSize int         `json:"pool_size"`
	Trials   int         `json:"trials"`
	Warmup   int         `json:"warmup"`
	Mixes    []TrustCell `json:"mixes"`
	// Deterministic records that the whole sweep was run twice and both
	// passes hashed identically.
	Deterministic bool   `json:"deterministic"`
	Hash          string `json:"hash"`
}

// trustGold builds the trial's gold probe set Algorithm-4 style and returns
// the training-item IDs alongside — the "leak" handed to the clique, which
// answers exactly those pairs honestly.
func trustGold(cal dataset.Calibrated, r *rng.Source) ([]dispatch.GoldPair, []int) {
	training := make([]item.Item, 24)
	ids := make([]int, len(training))
	for i := range training {
		training[i] = item.Item{ID: 1<<20 + i, Value: r.UniformIn(0, 1)}
		ids[i] = training[i].ID
	}
	return dispatch.GoldFromTraining(training, cal.DeltaN, 32), ids
}

// trustPool builds one trial's pool: honest threshold workers, the first
// Spammers of them replaced by chance-level spammers and the next Colluders
// by members of a single coordinated clique that knows the gold set.
func (c TrustConfig) trustPool(cal dataset.Calibrated, mix TrustMix, goldIDs []int, targetID int, r *rng.Source) (*dispatch.Pool, error) {
	var ring *chaos.Clique
	if mix.Colluders > 0 {
		ring = chaos.NewClique(chaos.PersonaConfig{
			Seed: r.Child("ring").Seed(), Fraction: 1,
			TargetID: targetID, GoldIDs: goldIDs,
		})
	}
	workers := make([]dispatch.PoolWorker, c.PoolSize)
	for i := range workers {
		wr := r.ChildN("worker", i)
		var b dispatch.Backend = dispatch.NewSimulated(&worker.Threshold{
			Delta: cal.DeltaN, Tie: worker.RandomTie{R: wr}, R: wr,
		})
		name := fmt.Sprintf("honest-%d", i)
		switch {
		case i < mix.Spammers:
			b = chaos.NewSpammer(b, chaos.PersonaConfig{Seed: wr.Seed()})
			name = fmt.Sprintf("spammer-%d", i)
		case i < mix.Spammers+mix.Colluders:
			b = ring.Member(b)
			name = fmt.Sprintf("clique-%d", i)
		}
		workers[i] = dispatch.PoolWorker{Name: name, Backend: b}
	}
	return dispatch.NewPool(workers, r.Child("pool").Seed())
}

// trustHealth returns the arm's health configuration. Every arm pays for its
// evidence: the gold arms buy probes, the graph arms buy duplicate samples,
// hybrid buys both.
func trustHealth(arm string, gold []dispatch.GoldPair, seed uint64) dispatch.HealthConfig {
	switch arm {
	case "gold":
		return dispatch.HealthConfig{Gold: gold, ProbeEvery: 4, DisagreeEvery: 2, Seed: seed}
	case "graph":
		return dispatch.HealthConfig{Scorer: dispatch.ScorerGraph, DisagreeEvery: 2, Seed: seed}
	default: // hybrid
		return dispatch.HealthConfig{
			Scorer: dispatch.ScorerHybrid, Gold: gold,
			ProbeEvery: 4, DisagreeEvery: 2, Seed: seed,
		}
	}
}

// evalTrustCell runs one (mix, arm, trial) cell and reports whether phase 1
// retained the true maximum and what the trial cost in paid comparisons.
func (c TrustConfig) evalTrustCell(ctx context.Context, mixIdx, armIdx, trial int) (kept bool, paid int64, err error) {
	mix := c.Mixes[mixIdx]
	ir := rng.New(c.Seed).ChildN("trust-instance", trial)
	cal, err := dataset.UniformCalibrated(c.N, c.Un, c.Ue, ir.Child("data"))
	if err != nil {
		return false, 0, err
	}
	// Worker, gold, and routing streams vary per (mix, arm); the instance
	// stays fixed per trial so the arms compare on identical inputs.
	tr := ir.ChildN(fmt.Sprintf("s%dc%d", mix.Spammers, mix.Colluders), armIdx)
	gold, goldIDs := trustGold(cal, tr.Child("gold"))

	// The ring's promotion target: the weakest item, so every poisoned
	// answer works against the true maximum.
	items := cal.Set.Items()
	target := items[0]
	for _, x := range items[1:] {
		if x.Value < target.Value {
			target = x
		}
	}
	pool, err := c.trustPool(cal, mix, goldIDs, target.ID, tr)
	if err != nil {
		return false, 0, err
	}
	pool.EnableHealth(trustHealth(TrustArms[armIdx], gold, tr.Child("health").Seed()))

	// Warm-up: unlabeled comparisons whose answers are thrown away but
	// whose probes and duplicates feed the detectors, so a scorer that can
	// catch the adversary has done so before retention is measured.
	wr := tr.Child("warmup")
	for i := 0; i < c.Warmup; i++ {
		a, b := items[wr.Intn(len(items))], items[wr.Intn(len(items))]
		if a.ID == b.ID {
			continue
		}
		if _, err := pool.Answer(ctx, dispatch.Request{A: a, B: b, Class: worker.Naive}); err != nil {
			return false, 0, err
		}
	}

	ledger := cost.NewLedger()
	ref := tr.Child("ref")
	naive := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: ref}, R: ref}
	no := tournament.NewOracle(naive, worker.Naive, ledger, nil).WithBackend(pool)
	survivors, err := core.Filter(ctx, items, no, core.FilterOptions{Un: c.Un})
	if err != nil {
		return false, 0, err
	}
	maxID := cal.Set.Max().ID
	for _, s := range survivors {
		if s.ID == maxID {
			kept = true
			break
		}
	}
	for _, sc := range pool.Scorecards() {
		paid += sc.Answered + sc.GoldProbes + sc.Duplicated
	}
	return kept, paid, nil
}

// runTrustSweep evaluates every cell once and aggregates per (mix, arm).
func (c TrustConfig) runTrustSweep(ctx context.Context) ([]TrustCell, string, error) {
	arms := len(TrustArms)
	perMix := arms * c.Trials
	kept := make([]bool, len(c.Mixes)*perMix)
	paid := make([]int64, len(kept))
	err := parallel.For(c.Workers, len(kept), func(i int) error {
		mixIdx, rest := i/perMix, i%perMix
		armIdx, trial := rest/c.Trials, rest%c.Trials
		k, p, err := c.evalTrustCell(ctx, mixIdx, armIdx, trial)
		if err != nil {
			return err
		}
		kept[i], paid[i] = k, p
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	cells := make([]TrustCell, len(c.Mixes))
	h := fnv.New64a()
	for mi, mix := range c.Mixes {
		cell := TrustCell{Spammers: mix.Spammers, Colluders: mix.Colluders,
			Arms: make(map[string]TrustArmStats, arms)}
		for ai, arm := range TrustArms {
			base := mi*perMix + ai*c.Trials
			retained, total := 0, int64(0)
			for t := 0; t < c.Trials; t++ {
				if kept[base+t] {
					retained++
				}
				total += paid[base+t]
			}
			st := TrustArmStats{
				RetentionPct: 100 * float64(retained) / float64(c.Trials),
				MeanCost:     float64(total) / float64(c.Trials),
			}
			cell.Arms[arm] = st
			fmt.Fprintf(h, "%d/%d/%s:%.4f:%.4f;", mix.Spammers, mix.Colluders, arm,
				st.RetentionPct, st.MeanCost)
		}
		cells[mi] = cell
	}
	return cells, fmt.Sprintf("%016x", h.Sum64()), nil
}

// TrustSweep measures phase-1 retention and paid comparisons per adversary
// mix under the three scorer arms, running the whole sweep twice to certify
// determinism. The headline comparison: at mixes dominated by a gold-acing
// clique, the gold arm keeps paying the ring and retention collapses, while
// the graph and hybrid arms evict it during warm-up and stay near 100%.
func TrustSweep(ctx context.Context, cfg TrustConfig) (TrustReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return TrustReport{}, err
	}
	cells, hash, err := cfg.runTrustSweep(ctx)
	if err != nil {
		return TrustReport{}, err
	}
	_, rehash, err := cfg.runTrustSweep(ctx)
	if err != nil {
		return TrustReport{}, err
	}
	return TrustReport{
		Seed: cfg.Seed, N: cfg.N, Un: cfg.Un, Ue: cfg.Ue,
		PoolSize: cfg.PoolSize, Trials: cfg.Trials, Warmup: cfg.Warmup,
		Mixes:         cells,
		Deterministic: hash == rehash,
		Hash:          hash,
	}, nil
}

// Figure renders the report as a text/CSV/JSON figure: one curve per arm,
// mixes on the x-axis (indexed; the title carries the composition key).
func (r TrustReport) Figure() Figure {
	fig := Figure{
		Title:  "Trust sweep — phase-1 retention per scorer arm (x = mix index)",
		XLabel: "mix (spammers/colluders): " + r.mixKey(),
		YLabel: "max retained (%)",
	}
	for _, arm := range TrustArms {
		curve := Curve{Name: arm}
		for i, cell := range r.Mixes {
			curve.X = append(curve.X, float64(i))
			curve.Y = append(curve.Y, cell.Arms[arm].RetentionPct)
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig
}

func (r TrustReport) mixKey() string {
	s := ""
	for i, cell := range r.Mixes {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d=%d/%d", i, cell.Spammers, cell.Colluders)
	}
	return s
}
