// Command maxcrowd runs the expert-aware max-finding algorithm (or one of
// its single-class baselines) on a generated problem instance and reports
// the result, its true rank, the comparison counts, and the monetary cost.
//
// Examples:
//
//	maxcrowd -n 2000 -un 10 -ue 5
//	maxcrowd -dataset cars -algo 2mf-naive
//	maxcrowd -n 5000 -un 20 -estimate -ce 50
//	maxcrowd -input mydata.csv -un 8
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"crowdmax"
	"crowdmax/internal/dataset"
	"crowdmax/internal/obs"
)

var (
	n        = flag.Int("n", 1000, "instance size (uniform dataset)")
	un       = flag.Int("un", 10, "target un(n): elements naive-indistinguishable from the max")
	ue       = flag.Int("ue", 5, "target ue(n): elements expert-indistinguishable from the max")
	algo     = flag.String("algo", "alg1", "algorithm: alg1, 2mf-naive, 2mf-expert, randomized, bracket")
	reps     = flag.Int("rep", 1, "answers per match for -algo bracket (odd)")
	data     = flag.String("dataset", "uniform", "dataset: uniform, cars, dots, search")
	input    = flag.String("input", "", "CSV file of label,value rows (overrides -dataset)")
	ce       = flag.Float64("ce", 10, "price of one expert comparison (cn = 1)")
	seed     = flag.Uint64("seed", 1, "random seed")
	estimat  = flag.Bool("estimate", false, "estimate un from a training split (Algorithm 4) instead of using the true value")
	topk     = flag.Int("topk", 0, "with -algo alg1: return the top-k elements instead of just the max")
	par      = flag.Int("parallel", 0, "evaluate comparison batches with this many goroutines (0 = off); switches tie-breaking to an order-independent hash, so results differ from -parallel=0 but are identical for every width >= 1")
	obsAddr  = flag.String("obs-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060")
	traceOut = flag.String("trace-out", "", "write the structured JSONL event trace to this file")
	budget   = flag.Float64("budget", 0, "hard cap on monetary spend (cn=1, ce from -ce); 0 = unlimited. A run that hits the cap stops with the best-so-far answer")
	timeout  = flag.Duration("timeout", 0, "wall-clock deadline for the run (e.g. 30s); 0 = none")
	ckPath   = flag.String("checkpoint", "", "write crash-recovery snapshots to this file (alg1 only; switches tie-breaking to an order-independent hash)")
	ckEvery  = flag.Int("checkpoint-every", 500, "with -checkpoint: also snapshot every N paid comparisons, besides phase boundaries")
	resumeCk = flag.String("resume", "", "resume a truncated alg1 run from this checkpoint file; flags must match the original run")
	chaosArg = flag.String("chaos", "", "inject faults (alg1 only): comma-separated spec with optional expert- prefix, fraction ramps, and @from-to comparison windows, e.g. crash:500, spammer:0.2, expert-outage:1.0@1000+, spammer:0.1-0.5@0-2000, adversary, colluder:7, clique:0.3:7 (coordinated ring controlling 30% of the crowd, promoting item 7), degrader:0.1:0.01")
	degraded = flag.Bool("degrade", true, "session runs (-checkpoint/-resume/-chaos): walk down the quality ladder instead of failing when experts, budget, or deadline disappear; -degrade=false restores hard failures")
	mode     = flag.String("mode", "max", "session workload: max (two-phase max-finding), topk (ranked top -k extraction), score (crowd scoring with -votes cardinal votes per element). topk and score always run through the session engine, so -checkpoint/-resume/-chaos compose with them")
	kRanks   = flag.Int("k", 0, "with -mode topk: number of ranks to extract (required, ≥ 1)")
	votes    = flag.Int("votes", 0, "with -mode score: cardinal votes per element (0 = engine default of 3)")
)

func main() {
	flag.Parse()
	cleanup, err := setupObs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxcrowd:", err)
		os.Exit(1)
	}
	// Ctrl-C cancels the run; the algorithms return their best-so-far
	// partial answer on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	errRun := run(ctx)
	stop()
	cleanup()
	if errRun != nil {
		fmt.Fprintln(os.Stderr, "maxcrowd:", errRun)
		os.Exit(1)
	}
}

// setupObs enables the observability layer when -obs-addr or -trace-out is
// set; the returned cleanup flushes and closes the trace file.
func setupObs() (cleanup func(), err error) {
	cleanup = func() {}
	if *obsAddr == "" && *traceOut == "" {
		return cleanup, nil
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		tracer = obs.NewTracer(bw)
		cleanup = func() {
			if terr := tracer.Err(); terr != nil {
				fmt.Fprintf(os.Stderr, "maxcrowd: trace write: %v\n", terr)
			}
			if ferr := bw.Flush(); ferr != nil {
				fmt.Fprintf(os.Stderr, "maxcrowd: trace flush: %v\n", ferr)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "maxcrowd: wrote %d trace events to %s\n", tracer.Events(), *traceOut)
		}
	}
	obs.Enable(tracer)
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			cleanup()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "maxcrowd: metrics on http://%s/debug/vars, profiles on http://%s/debug/pprof/\n", addr, addr)
	}
	return cleanup, nil
}

func run(ctx context.Context) error {
	r := crowdmax.NewRand(*seed)

	set, err := buildDataset(r.Child("data"))
	if err != nil {
		return err
	}
	deltaN, err := set.DeltaForU(min(*un, set.Len()))
	if err != nil {
		return err
	}
	deltaE, err := set.DeltaForU(min(*ue, set.Len()))
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d elements, max %q (value %.4g)\n",
		*data, set.Len(), label(set.Max()), set.Max().Value)
	fmt.Printf("thresholds: δn=%.4g (un=%d), δe=%.4g (ue=%d)\n", deltaN, *un, deltaE, *ue)

	naive := crowdmax.NewThresholdWorker(deltaN, 0, r.Child("naive"))
	expert := crowdmax.NewThresholdWorker(deltaE, 0, r.Child("expert"))
	if *par >= 1 {
		// Concurrent batches need order-independent workers: replace the
		// stream-driven random tie-breaking with a pure hash of each pair.
		naive = &crowdmax.ThresholdWorker{Delta: deltaN, Tie: crowdmax.HashTie{Seed: *seed}}
		expert = &crowdmax.ThresholdWorker{Delta: deltaE, Tie: crowdmax.HashTie{Seed: *seed + 1}}
	}
	prices := crowdmax.Prices{Naive: 1, Expert: *ce}

	unEst := *un
	if *estimat {
		ledger := crowdmax.NewLedger()
		no := crowdmax.NewOracle(naive, crowdmax.Naive, ledger, nil)
		est, err := crowdmax.EstimateUn(ctx, set.Items(), no, crowdmax.EstimateUnOptions{
			Perr: 0.5, N: set.Len(),
		})
		if err != nil {
			return err
		}
		if est > set.Len()/4 {
			est = set.Len() / 4
		}
		if est < 1 {
			est = 1
		}
		fmt.Printf("Algorithm 4 estimated un=%d (%d training comparisons)\n", est, ledger.Naive())
		unEst = est
	}

	w, err := buildWorkload()
	if err != nil {
		return err
	}
	if *mode != "max" || *ckPath != "" || *resumeCk != "" || *chaosArg != "" {
		if *algo != "alg1" || *topk > 1 {
			return fmt.Errorf("-mode topk/score and -checkpoint/-resume/-chaos support -algo alg1 without -topk only")
		}
		if *par >= 1 {
			return fmt.Errorf("session runs (-mode topk/score, -checkpoint/-resume/-chaos) are sequential; drop -parallel")
		}
		return runSession(ctx, w, set, deltaN, deltaE, unEst, prices)
	}

	ledger := crowdmax.NewLedger()
	no := crowdmax.NewOracle(naive, crowdmax.Naive, ledger, crowdmax.NewMemo(set.Len()))
	eo := crowdmax.NewOracle(expert, crowdmax.Expert, ledger, crowdmax.NewMemo(set.Len()))
	if *budget > 0 {
		b := crowdmax.NewBudget(crowdmax.BudgetLimits{
			MaxCost: *budget,
			Prices:  prices,
		})
		no.WithBudget(b)
		eo.WithBudget(b)
	}
	if *par >= 1 {
		no.ParallelBatch(*par)
		eo.ParallelBatch(*par)
	}
	if sc := obs.Trial(fmt.Sprintf("maxcrowd/%s/%s", *algo, *data), *seed); sc != nil {
		no.WithObs(sc)
		eo.WithObs(sc)
	}

	var best crowdmax.Item
	switch *algo {
	case "alg1":
		if *topk > 1 {
			top, err := crowdmax.TopK(ctx, set.Items(), no, eo, crowdmax.TopKOptions{K: *topk, U: unEst})
			if err != nil {
				return err
			}
			fmt.Printf("top %d (best first):\n", len(top))
			for i, it := range top {
				fmt.Printf("  %d. %q (value %.4g, true rank %d)\n", i+1, label(it), it.Value, set.Rank(it.ID))
			}
			best = top[0]
			break
		}
		res, err := crowdmax.FindMax(ctx, set.Items(), no, eo, crowdmax.FindMaxOptions{Un: unEst})
		if err != nil {
			if terr := truncated(err, res.Best, ledger.Naive(), ledger.Expert(), ledger.Cost(prices)); terr != nil {
				return terr
			}
			return err
		}
		best = res.Best
		fmt.Printf("phase 1 kept %d candidates\n", len(res.Candidates))
	case "2mf-naive":
		best, err = crowdmax.TwoMaxFind(ctx, set.Items(), no)
	case "2mf-expert":
		best, err = crowdmax.TwoMaxFind(ctx, set.Items(), eo)
	case "randomized":
		best, err = crowdmax.RandomizedMaxFind(ctx, set.Items(), eo, crowdmax.RandomizedOptions{R: r.Child("p2")})
	case "bracket":
		// Repetition needs fresh answers: use a non-memoized oracle.
		plain := crowdmax.NewOracle(naive, crowdmax.Naive, ledger, nil)
		if *budget > 0 {
			plain.WithBudget(crowdmax.NewBudget(crowdmax.BudgetLimits{MaxCost: *budget, Prices: prices}))
		}
		best, err = crowdmax.TournamentMax(ctx, set.Items(), plain, crowdmax.BracketOptions{Repetitions: *reps})
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		if terr := truncated(err, best, ledger.Naive(), ledger.Expert(), ledger.Cost(prices)); terr != nil {
			return terr
		}
		return err
	}

	fmt.Printf("returned %q (value %.4g), true rank %d of %d\n",
		label(best), best.Value, set.Rank(best.ID), set.Len())
	fmt.Printf("comparisons: %d naive, %d expert; cost C(n) = %.0f (cn=1, ce=%g)\n",
		ledger.Naive(), ledger.Expert(), ledger.Cost(prices), *ce)
	return nil
}

// buildWorkload maps the -mode flag (plus -k and -votes) onto a session
// workload, rejecting flag combinations that belong to a different mode.
func buildWorkload() (crowdmax.Workload, error) {
	switch *mode {
	case "max":
		if *kRanks != 0 {
			return nil, fmt.Errorf("-k requires -mode topk")
		}
		if *votes != 0 {
			return nil, fmt.Errorf("-votes requires -mode score")
		}
		return crowdmax.MaxFind(), nil
	case "topk":
		if *kRanks < 1 {
			return nil, fmt.Errorf("-mode topk requires -k >= 1")
		}
		if *votes != 0 {
			return nil, fmt.Errorf("-votes requires -mode score")
		}
		return crowdmax.TopKWorkload(*kRanks), nil
	case "score":
		if *kRanks != 0 {
			return nil, fmt.Errorf("-k requires -mode topk")
		}
		if *votes < 0 {
			return nil, fmt.Errorf("-votes must be >= 0")
		}
		return crowdmax.ScoreWorkload(crowdmax.ScoreConfig{Votes: *votes}), nil
	default:
		return nil, fmt.Errorf("unknown mode %q (want max, topk, or score)", *mode)
	}
}

// runSession executes the chosen workload through a crowdmax.Session — the
// entry point that supports checkpointing, resume, and chaos injection.
// Workers use order-independent hash tie-breaking (as with -parallel) so a
// resumed run replays to bit-identical results; all robustness notices go to
// stderr, keeping stdout diffable between an uninterrupted run and a
// crash + resume.
func runSession(ctx context.Context, w crowdmax.Workload, set *crowdmax.Set, deltaN, deltaE float64, unEst int, prices crowdmax.Prices) error {
	cfg := crowdmax.Config{
		Naive:  &crowdmax.ThresholdWorker{Delta: deltaN, Tie: crowdmax.HashTie{Seed: *seed}},
		Expert: &crowdmax.ThresholdWorker{Delta: deltaE, Tie: crowdmax.HashTie{Seed: *seed + 1}},
		Un:     unEst,
		Prices: prices,
		Rand:   crowdmax.NewRand(*seed),
	}
	if *budget > 0 {
		cfg.Budget = crowdmax.BudgetLimits{MaxCost: *budget, Prices: prices}
	}
	if *ckPath != "" {
		cfg.Checkpoint = crowdmax.CheckpointConfig{Path: *ckPath, Every: *ckEvery}
		fmt.Fprintf(os.Stderr, "maxcrowd: checkpointing to %s (every %d paid comparisons)\n", *ckPath, *ckEvery)
	}
	if *chaosArg != "" {
		plan, err := crowdmax.ParseChaosPlan(*chaosArg)
		if err != nil {
			return err
		}
		plan.Seed = *seed
		// Hash-of-pair persona randomness keeps fault decisions identical
		// across a crash + resume, like the workers' HashTie.
		plan.PairHash = true
		cfg.Chaos = &plan
	}
	if *degraded {
		cfg.Degrade = &crowdmax.DegradeConfig{}
	}
	if *mode == "score" {
		// Cardinal votes come from a simulated noisy crowd whose error scale
		// matches the naive threshold, mirroring the service's scoring setup.
		cfg.Valuer = crowdmax.NoisyValuer{Sigma: deltaN, Seed: *seed + 2}
	}
	s, err := crowdmax.NewSession(cfg)
	if err != nil {
		return err
	}
	var res crowdmax.Result
	if *resumeCk != "" {
		fmt.Fprintf(os.Stderr, "maxcrowd: resuming from %s\n", *resumeCk)
		res, err = s.ResumeWorkload(ctx, w, *resumeCk, set.Items())
	} else {
		res, err = s.Run(ctx, w, set.Items())
	}
	if err != nil {
		if errors.Is(err, crowdmax.ErrInjectedCrash) {
			fmt.Fprintf(os.Stderr, "maxcrowd: spent before crash: %d naive, %d expert; cost %.2f\n",
				res.NaiveComparisons, res.ExpertComparisons, res.Cost)
			if *ckPath != "" {
				fmt.Fprintf(os.Stderr, "maxcrowd: resume with -resume %s\n", *ckPath)
			}
			return fmt.Errorf("run crashed (injected): %w", err)
		}
		if terr := truncated(err, res.Best, res.NaiveComparisons, res.ExpertComparisons, res.Cost); terr != nil {
			return terr
		}
		return err
	}
	switch {
	case len(res.Ranked) > 0:
		fmt.Printf("top %d (best first):\n", len(res.Ranked))
		for i, rr := range res.Ranked {
			fmt.Printf("  %d. %q (value %.4g, true rank %d) — %s (rung %s)\n",
				i+1, label(rr.Item), rr.Item.Value, set.Rank(rr.Item.ID), rr.Guarantee, rr.Rung)
		}
	case len(res.Scores) > 0:
		show := min(len(res.Scores), 5)
		fmt.Printf("top crowd scores (%d elements fully scored):\n", len(res.Scores))
		for i := 0; i < show; i++ {
			sc := res.Scores[i]
			fmt.Printf("  %d. %q (score %.4g, true rank %d)\n",
				i+1, label(sc.Item), sc.Score, set.Rank(sc.Item.ID))
		}
	default:
		fmt.Printf("phase 1 kept %d candidates\n", len(res.Candidates))
	}
	fmt.Printf("returned %q (value %.4g), true rank %d of %d\n",
		label(res.Best), res.Best.Value, set.Rank(res.Best.ID), set.Len())
	fmt.Printf("guarantee: %s (rung %s)\n", res.Guarantee, res.Rung)
	fmt.Printf("comparisons: %d naive, %d expert; cost C(n) = %.0f (cn=1, ce=%g)\n",
		res.NaiveComparisons, res.ExpertComparisons, res.Cost, *ce)
	return nil
}

// truncated reports a run that stopped early (budget exhausted, cancelled,
// timed out, or its backend lost): the best-so-far partial answer plus the
// true paid counts and cost, as an error so the process exits non-zero. It
// returns nil for any other error.
func truncated(err error, best crowdmax.Item, naive, expert int64, cost float64) error {
	var cause string
	switch {
	case errors.Is(err, crowdmax.ErrBudgetExhausted):
		cause = "budget exhausted"
	case errors.Is(err, context.Canceled):
		cause = "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		cause = "timed out"
	case errors.Is(err, crowdmax.ErrBackendUnavailable):
		cause = "lost its backend"
	default:
		return nil
	}
	if best.ID != 0 || best.Label != "" {
		fmt.Printf("best so far: %q (value %.4g)\n", label(best), best.Value)
	}
	fmt.Printf("spent before stopping: %d naive, %d expert; cost %.2f\n", naive, expert, cost)
	return fmt.Errorf("run %s: %w", cause, err)
}

func buildDataset(r *crowdmax.Rand) (*crowdmax.Set, error) {
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return crowdmax.ReadCSV(f)
	}
	switch *data {
	case "uniform":
		return dataset.Uniform(*n, 0, 1, r), nil
	case "cars":
		set, _, err := dataset.Cars(dataset.CarsConfig{}, r)
		return set, err
	case "dots":
		size := *n
		if size > 71 {
			size = 50 // the paper's DOTS grid has 71 points; default to 50
		}
		return dataset.Dots(size), nil
	case "search":
		return dataset.SearchResults(dataset.QueryAsymmetricTSP, min(*n, 100), 0.05, r)
	default:
		return nil, fmt.Errorf("unknown dataset %q", *data)
	}
}

func label(it crowdmax.Item) string {
	if it.Label != "" {
		return it.Label
	}
	return fmt.Sprintf("item-%d", it.ID)
}
