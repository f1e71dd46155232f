package experiment

import (
	"context"
	"fmt"
	"io"

	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/parallel"
	"crowdmax/internal/platform"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// CrowdConfig configures the Table 1 and Table 2 reproductions — the
// Section 5.3 experiments that ran on CrowdFlower, here on the simulated
// platform.
type CrowdConfig struct {
	// N is the dataset size submitted to the crowd (paper: 50).
	N int
	// Un is the filter parameter (paper: 5, suggested by the real data).
	Un int
	// Workers is the size of the platform's honest worker pool.
	Workers int
	// Spammers is the number of random-answer workers mixed in; the
	// platform's gold-question filter is expected to remove them.
	Spammers int
	// NaiveVotes is the number of answers collected and
	// majority-aggregated per phase-1 comparison (the paper requested at
	// least 21 answers per pair).
	NaiveVotes int
	// ExpertVotes is the simulated-expert panel size (paper: 7 naïve
	// queries per expert query).
	ExpertVotes int
	// Experiments is how many independent runs to report (paper: 2).
	Experiments int
	// Seed drives all randomness.
	Seed uint64
	// Parallel bounds the goroutines fanning independent experiments out;
	// 0 selects runtime.GOMAXPROCS(0). (Workers above is the simulated
	// platform's pool size, a model parameter — not a concurrency knob.)
	// Each experiment owns its platform and crowd world, and output is
	// identical for every value of Parallel.
	Parallel int
}

func (c CrowdConfig) withDefaults() CrowdConfig {
	if c.N == 0 {
		c.N = 50
	}
	if c.Un == 0 {
		c.Un = 5
	}
	if c.Workers == 0 {
		c.Workers = 30
	}
	if c.NaiveVotes == 0 {
		c.NaiveVotes = 21
	}
	if c.ExpertVotes == 0 {
		c.ExpertVotes = 7
	}
	if c.Experiments == 0 {
		c.Experiments = 2
	}
	return c
}

// CrowdRow is one row of a Table 1 / Table 2 reproduction: an element and
// its position in each experiment's last round (0 = did not reach it).
type CrowdRow struct {
	// Label describes the element (dot count, car description).
	Label string
	// TrueRank is the element's ground-truth rank (1 = best).
	TrueRank int
	// LastRound[e] is the element's position in experiment e's final
	// ranking, or 0 if it did not survive phase 1.
	LastRound []int
}

// CrowdTable is a reproduced Table 1 or Table 2.
type CrowdTable struct {
	Title string
	Rows  []CrowdRow
	// Survivors[e] is the phase-1 candidate count of experiment e.
	Survivors []int
	// BestFound[e] reports whether experiment e's simulated experts
	// ranked the true best element first.
	BestFound []bool
}

// WriteText renders the table in the paper's layout.
func (t CrowdTable) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	headers := []string{"element", "true rank"}
	for e := range t.Survivors {
		headers = append(headers, fmt.Sprintf("Exp. %d", e+1))
	}
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		row := []string{r.Label, fmt.Sprintf("%d", r.TrueRank)}
		for _, pos := range r.LastRound {
			if pos == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%d", pos))
			}
		}
		rows[i] = row
	}
	if err := WriteTable(w, headers, rows); err != nil {
		return err
	}
	for e := range t.Survivors {
		if _, err := fmt.Fprintf(w, "Exp. %d: %d survivors, best ranked first: %v\n",
			e+1, t.Survivors[e], t.BestFound[e]); err != nil {
			return err
		}
	}
	return nil
}

// crowdRun executes one CrowdFlower-style experiment: phase 1 with
// majority-of-NaiveVotes platform jobs, then an all-play-all "last round"
// among the survivors judged by simulated experts (majority of ExpertVotes
// naïve answers). Comparisons are submitted through the platform's batch
// interface, so each tournament round is one logical step. It returns the
// survivors and their final ranking (best first).
func crowdRun(ctx context.Context, items []item.Item, gold []item.Item, world *worker.World, cfg CrowdConfig, r *rng.Source) (survivors []item.Item, ranking []item.Item, err error) {
	plat, err := platform.New(platform.Config{R: r.Child("platform")})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		plat.AddWorker(world.Worker(r.ChildN("worker", i)))
	}
	for i := 0; i < cfg.Spammers; i++ {
		plat.AddWorker(worker.Spammer{R: r.ChildN("spammer", i)})
	}
	if len(gold) >= 2 {
		// Gold questions must be answerable by honest workers: pair each
		// gold element with one far away in value, so only spammers fall
		// below the 70% accuracy floor.
		span := len(gold) / 2
		if span < 1 {
			span = 1
		}
		pairs := make([]platform.Pair, 0, len(gold)-span)
		for i := span; i < len(gold); i++ {
			pairs = append(pairs, platform.Pair{A: gold[i-span], B: gold[i]})
		}
		plat.SetGold(pairs)
	}

	ledger := cost.NewLedger()
	sc := obs.Trial("crowd", r.Seed())
	naive := tournament.NewOracle(plat.BatchComparator(cfg.NaiveVotes), worker.Naive, ledger, tournament.NewMemo(len(items))).WithObs(sc)
	survivors, err = core.Filter(ctx, items, naive, core.FilterOptions{Un: cfg.Un})
	if err != nil {
		return nil, nil, err
	}

	// "Last round": all-play-all among the survivors, judged by simulated
	// experts, ranked by wins (stable on ties).
	expert := tournament.NewOracle(plat.BatchComparator(cfg.ExpertVotes), worker.Expert, ledger, tournament.NewMemo(len(items))).WithObs(sc)
	ranking, err = core.RankByWins(ctx, survivors, expert)
	if err != nil {
		return nil, nil, err
	}
	return survivors, ranking, nil
}

// buildCrowdTable assembles the report rows for the top topK true elements.
func buildCrowdTable(title string, set *item.Set, rankings [][]item.Item, topK int) CrowdTable {
	t := CrowdTable{Title: title}
	if topK > set.Len() {
		topK = set.Len()
	}
	for e := range rankings {
		t.Survivors = append(t.Survivors, len(rankings[e]))
		found := len(rankings[e]) > 0 && rankings[e][0].ID == set.Max().ID
		t.BestFound = append(t.BestFound, found)
	}
	for rank := 1; rank <= topK; rank++ {
		el := set.ByRank(rank)
		row := CrowdRow{Label: el.Label, TrueRank: rank}
		for _, ranking := range rankings {
			pos := 0
			for i, it := range ranking {
				if it.ID == el.ID {
					pos = i + 1
					break
				}
			}
			row.LastRound = append(row.LastRound, pos)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table1 reproduces Table 1: the DOTS minimum-finding experiment. Naïve
// workers follow the wisdom-of-crowds regime, so the simulated experts
// (majority of 7) order the last round almost perfectly.
func Table1(ctx context.Context, cfg CrowdConfig) (CrowdTable, error) {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed).Child("table1")
	set := dataset.Dots(cfg.N)
	gold := dataset.DotsGold()

	rankings := make([][]item.Item, cfg.Experiments)
	if err := parallel.For(cfg.Parallel, cfg.Experiments, func(e int) error {
		r := root.ChildN("exp", e)
		world := worker.NewWorld(worker.WisdomRegime{Sharpness: 5}, r.Child("world"))
		_, ranking, err := crowdRun(ctx, set.Items(), gold, world, cfg, r)
		if err != nil {
			return fmt.Errorf("experiment %d: %w", e+1, err)
		}
		rankings[e] = ranking
		return nil
	}); err != nil {
		return CrowdTable{}, err
	}
	return buildCrowdTable("Table 1 — DOTS last-round ranking (fewest dots first)", set, rankings, 9), nil
}

// Table2 reproduces Table 2: the CARS most-expensive-car experiment. Naïve
// workers follow the plateau regime, so the top car reaches the last round
// but the simulated experts cannot reliably identify it — the paper's
// evidence that real experts are needed.
func Table2(ctx context.Context, cfg CrowdConfig) (CrowdTable, *item.Set, error) {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed).Child("table2")
	catalogue, _, err := dataset.Cars(dataset.CarsConfig{}, root.Child("catalogue"))
	if err != nil {
		return CrowdTable{}, nil, err
	}
	set, err := dataset.SampleSet(catalogue, cfg.N, root.Child("sample"))
	if err != nil {
		return CrowdTable{}, nil, err
	}

	rankings := make([][]item.Item, cfg.Experiments)
	if err := parallel.For(cfg.Parallel, cfg.Experiments, func(e int) error {
		r := root.ChildN("exp", e)
		world := worker.NewWorld(worker.PlateauRegime{Threshold: 0.2, Epsilon: 0.02}, r.Child("world"))
		_, ranking, err := crowdRun(ctx, set.Items(), nil, world, cfg, r)
		if err != nil {
			return fmt.Errorf("experiment %d: %w", e+1, err)
		}
		rankings[e] = ranking
		return nil
	}); err != nil {
		return CrowdTable{}, nil, err
	}
	return buildCrowdTable("Table 2 — CARS last-round ranking (most expensive first)", set, rankings, 19), set, nil
}
