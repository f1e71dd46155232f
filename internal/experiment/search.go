package experiment

import (
	"context"
	"fmt"
	"io"

	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/obs"
	"crowdmax/internal/parallel"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// SearchConfig configures the Section 5.3 search-result evaluation
// reproduction.
type SearchConfig struct {
	// N is the number of results per query (paper: 50, uniform over the
	// top-100 ranks).
	N int
	// Uns are the un(50) values tried (paper: 6, 8, 10).
	Uns []int
	// NaiveRuns is the number of naïve-only 2-MaxFind runs per query
	// (paper: 2 per query, 4 total).
	NaiveRuns int
	// DeltaE is the expert threshold; the clear-best gap of the dataset
	// (0.05) exceeds it, so experts always identify the best result.
	DeltaE float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the goroutines fanning queries out; 0 selects
	// runtime.GOMAXPROCS(0). Parallelism is per query — a query's crowd
	// world draws latent pair parameters in encounter order, so the runs
	// within a query stay sequential — and output is identical for every
	// value.
	Workers int
}

func (c SearchConfig) withDefaults() SearchConfig {
	if c.N == 0 {
		c.N = 50
	}
	if len(c.Uns) == 0 {
		c.Uns = []int{6, 8, 10}
	}
	if c.NaiveRuns == 0 {
		c.NaiveRuns = 2
	}
	if c.DeltaE == 0 {
		c.DeltaE = 0.02
	}
	return c
}

// SearchRow is one (query, un) cell of the two-phase experiment.
type SearchRow struct {
	Query       dataset.SearchQuery
	Un          int
	Promoted    bool // the best result reached the second round
	ExpertFound bool // the experts then identified it
	Candidates  int
}

// NaiveRun is one naïve-only 2-MaxFind run on a query.
type NaiveRun struct {
	Query dataset.SearchQuery
	Run   int
	Found bool // the run returned the true best result
}

// SearchResult is the full Section 5.3 search-evaluation reproduction.
type SearchResult struct {
	Rows      []SearchRow
	NaiveOnly []NaiveRun
}

// WriteText renders both halves of the experiment.
func (s SearchResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# Section 5.3 — evaluation of search results"); err != nil {
		return err
	}
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{
			string(r.Query), fmt.Sprintf("%d", r.Un),
			fmt.Sprintf("%v", r.Promoted), fmt.Sprintf("%v", r.ExpertFound),
			fmt.Sprintf("%d", r.Candidates),
		}
	}
	if err := WriteTable(w, []string{"query", "un(50)", "best promoted", "experts found best", "|S|"}, rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\n# naive-only 2-MaxFind runs"); err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range s.NaiveOnly {
		rows = append(rows, []string{string(r.Query), fmt.Sprintf("%d", r.Run), fmt.Sprintf("%v", r.Found)})
	}
	return WriteTable(w, []string{"query", "run", "found best"}, rows)
}

// SearchEval runs the Section 5.3 experiment: for each query, the two-phase
// algorithm with crowd workers in phase 1 and real (threshold-model) experts
// in phase 2, for each un; then naïve-only 2-MaxFind runs. The expected
// shape: the best result is always promoted and found by the experts, while
// the naïve-only approach rarely finds it.
func SearchEval(ctx context.Context, cfg SearchConfig) (SearchResult, error) {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed).Child("search")
	queries := []dataset.SearchQuery{dataset.QueryAsymmetricTSP, dataset.QuerySteinerTree}

	// Queries are independent units; each owns its crowd world.
	perQuery := make([]SearchResult, len(queries))
	if err := parallel.For(cfg.Workers, len(queries), func(qi int) error {
		query := queries[qi]
		qr := root.ChildN("query", qi)
		set, err := dataset.SearchResults(query, cfg.N, 0.05, qr.Child("data"))
		if err != nil {
			return err
		}
		world := worker.NewWorld(worker.PlateauRegime{Threshold: 0.2, Epsilon: 0.02}, qr.Child("world"))
		var out SearchResult

		for _, un := range cfg.Uns {
			r := qr.ChildN("un", un)
			sc := obs.Trial(trialLabel("search", qi, un), r.Seed())
			naive := tournament.NewOracle(world.Worker(r.Child("naive")), worker.Naive, nil, tournament.NewMemo(set.Len())).WithObs(sc)
			candidates, err := core.Filter(ctx, set.Items(), naive, core.FilterOptions{Un: un})
			if err != nil {
				return err
			}
			promoted := false
			for _, c := range candidates {
				if c.ID == set.Max().ID {
					promoted = true
				}
			}
			ew := &worker.Threshold{Delta: cfg.DeltaE, Tie: worker.RandomTie{R: r.Child("exp")}, R: r.Child("exp")}
			eo := tournament.NewOracle(ew, worker.Expert, nil, tournament.NewMemo(set.Len())).WithObs(sc)
			best, err := core.TwoMaxFind(ctx, candidates, eo)
			if err != nil {
				return err
			}
			out.Rows = append(out.Rows, SearchRow{
				Query:       query,
				Un:          un,
				Promoted:    promoted,
				ExpertFound: best.ID == set.Max().ID,
				Candidates:  len(candidates),
			})
		}

		for run := 0; run < cfg.NaiveRuns; run++ {
			r := qr.ChildN("naiveonly", run)
			naive := tournament.NewOracle(world.Worker(r), worker.Naive, nil, tournament.NewMemo(set.Len())).
				WithObs(obs.Trial(trialLabel("search-naive", qi, run), r.Seed()))
			best, err := core.TwoMaxFind(ctx, set.Items(), naive)
			if err != nil {
				return err
			}
			out.NaiveOnly = append(out.NaiveOnly, NaiveRun{
				Query: query,
				Run:   run + 1,
				Found: best.ID == set.Max().ID,
			})
		}
		perQuery[qi] = out
		return nil
	}); err != nil {
		return SearchResult{}, err
	}
	var out SearchResult
	for _, q := range perQuery {
		out.Rows = append(out.Rows, q.Rows...)
		out.NaiveOnly = append(out.NaiveOnly, q.NaiveOnly...)
	}
	return out, nil
}
