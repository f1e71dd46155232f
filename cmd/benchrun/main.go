// Command benchrun regenerates the tables and figures of the paper's
// evaluation (Section 5 and Appendix C) on the simulated substrate and
// prints them as text tables (or CSV).
//
// Usage:
//
//	benchrun [flags] <experiment> [<experiment>...]
//	benchrun all
//
// Experiments: fig2, fig3, fig4, fig5, fig6, fig7, fig9, fig10,
// retention, table1, table2, search, majority, plus the extensions epsilon
// (residual-error robustness), cascade (multi-class workers), steps (the
// Section 3 time model), bracket (the single-elimination baseline under
// both error models), adversary (phase-1 retention under poisoned
// workers, with and without worker health tracking) and trust (gold vs
// agreement-graph vs hybrid worker scoring under spammer/colluder mixes).
//
// Figures with multiple panels (3, 4, 5, 6, 7, 9, 10) print one block per
// panel, matching the paper's layout: (un, ue) ∈ {(10, 5), (50, 10)} and,
// for the cost figures, ce ∈ {10, 20, 50}.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"crowdmax/internal/dispatch"
	"crowdmax/internal/experiment"
	"crowdmax/internal/obs"
)

var (
	trials   = flag.Int("trials", 10, "random instances per data point")
	seed     = flag.Uint64("seed", 2015, "root random seed")
	quick    = flag.Bool("quick", false, "smaller sweep for a fast smoke run")
	csvOut   = flag.Bool("csv", false, "emit figures as CSV instead of text tables")
	jsonOut  = flag.Bool("json", false, "emit figures as JSON instead of text tables")
	maxSize  = flag.Int("nmax", 5000, "largest input size in sweeps")
	par      = flag.Int("parallel", 0, "goroutines fanning independent trials out (0 = all CPUs, 1 = sequential; output is identical for every value)")
	obsAddr  = flag.String("obs-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060")
	traceOut = flag.String("trace-out", "", "write the structured JSONL event trace to this file")
	budget   = flag.Int64("budget", 0, "hard cap on total comparisons per trial (0 = unlimited); a trial that hits the cap fails its sweep with the budget error, and the same seed + cap truncates identically on every run")
	timeout  = flag.Duration("timeout", 0, "wall-clock deadline for the whole run (e.g. 2m); 0 = none")
)

// allExperiments is what the name "all" expands to, in output order.
var allExperiments = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig9", "fig10", "retention", "table1", "table2", "search",
	"majority", "epsilon", "cascade", "steps", "bracket", "adversary",
	"trust"}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = allExperiments
	}
	obsCleanup, err := setupObs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	// Ctrl-C (or -timeout) cancels the in-flight experiment promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	code := 0
	for _, name := range names {
		if err := run(ctx, strings.ToLower(name)); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun %s: %v\n", name, err)
			code = 1
			break
		}
	}
	stop()
	obsCleanup()
	os.Exit(code)
}

// setupObs enables the observability layer when -obs-addr or -trace-out is
// set; the returned cleanup flushes and closes the trace file. With neither
// flag the layer stays disabled and the hot paths pay only nil checks.
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
				fmt.Fprintf(os.Stderr, "benchrun: trace write: %v\n", terr)
			}
			if ferr := bw.Flush(); ferr != nil {
				fmt.Fprintf(os.Stderr, "benchrun: trace flush: %v\n", ferr)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "benchrun: wrote %d trace events to %s\n", tracer.Events(), *traceOut)
		}
	}
	obs.Enable(tracer)
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			cleanup()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "benchrun: metrics on http://%s/debug/vars, profiles on http://%s/debug/pprof/\n", addr, addr)
	}
	return cleanup, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: benchrun [flags] <experiment>...

experiments:
  fig2       worker accuracy vs panel size, DOTS and CARS regimes
  fig3       accuracy (avg true rank) vs n, three approaches
  fig4       comparison counts vs n, avg and worst case
  fig5       average cost vs n (ce = 10, 20, 50)
  fig6       accuracy vs n under mis-estimated un
  fig7       average cost vs n under mis-estimated un
  fig9       worst-case cost vs n (Appendix C)
  fig10      worst-case cost vs n under mis-estimated un (Appendix C)
  retention  Section 5.2 phase-1 max-retention statistics
  table1     DOTS last-round ranking on the simulated platform
  table2     CARS last-round ranking on the simulated platform
  search     Section 5.3 search-result evaluation
  majority   Section 3.2 majority-vote error vs Chernoff bound
  epsilon    extension: accuracy degradation under residual error ε > 0
  cascade    extension: three-class worker cascade vs two-level Algorithm 1
  steps      extension: logical steps (the Section 3 time model) vs n
  bracket    extension: single-elimination baseline under both error models
  adversary  extension: phase-1 max retention under poisoned workers, with
             and without gold-probe health tracking
  trust      extension: gold vs agreement-graph vs hybrid worker scoring
             under spammer/colluder-clique mixes (retention per arm)
  all        everything above

flags:
`)
	flag.PrintDefaults()
}

// sweeps returns the paper's two (un, ue) panel configurations.
func sweeps() []experiment.Sweep {
	ns := []int{1000, 2000, 3000, 4000, 5000}
	tr := *trials
	if *quick {
		ns = []int{400, 800}
		if tr > 4 {
			tr = 4
		}
	}
	var kept []int
	for _, n := range ns {
		if n <= *maxSize {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		kept = ns[:1]
	}
	lim := dispatch.Limits{MaxTotal: *budget}
	return []experiment.Sweep{
		{Ns: kept, Un: 10, Ue: 5, Trials: tr, Seed: *seed, Workers: *par, Budget: lim},
		{Ns: kept, Un: 50, Ue: 10, Trials: tr, Seed: *seed, Workers: *par, Budget: lim},
	}
}

func emit(fig experiment.Figure) error {
	if *jsonOut {
		return fig.WriteJSON(os.Stdout)
	}
	if *csvOut {
		return fig.WriteCSV(os.Stdout)
	}
	if err := fig.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func run(ctx context.Context, name string) error {
	switch name {
	case "fig2":
		cfg := experiment.Fig2Config{Seed: *seed, Workers: *par}
		if *quick {
			cfg.PairsPerBand, cfg.Repeats = 10, 5
		}
		dots, cars, err := experiment.Fig2(cfg)
		if err != nil {
			return err
		}
		if err := emit(dots); err != nil {
			return err
		}
		return emit(cars)
	case "fig3":
		for _, s := range sweeps() {
			fig, err := experiment.Fig3(ctx, s)
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "fig4":
		for _, s := range sweeps() {
			fig, err := experiment.Fig4(ctx, s)
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "fig5", "fig9":
		for _, s := range sweeps() {
			for _, ce := range []float64{10, 20, 50} {
				var fig experiment.Figure
				var err error
				if name == "fig5" {
					fig, err = experiment.Fig5(ctx, experiment.CostConfig{Sweep: s, CE: ce})
				} else {
					fig, err = experiment.Fig9(ctx, experiment.CostConfig{Sweep: s, CE: ce})
				}
				if err != nil {
					return err
				}
				if err := emit(fig); err != nil {
					return err
				}
			}
		}
		return nil
	case "fig6":
		for _, s := range sweeps() {
			fig, err := experiment.Fig6(ctx, experiment.Fig6Config{Sweep: s})
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "fig7", "fig10":
		for _, s := range sweeps() {
			for _, ce := range []float64{10, 20, 50} {
				cfg := experiment.FactorCostConfig{CostConfig: experiment.CostConfig{Sweep: s, CE: ce}}
				var fig experiment.Figure
				var err error
				if name == "fig7" {
					fig, err = experiment.Fig7(ctx, cfg)
				} else {
					fig, err = experiment.Fig10(cfg)
				}
				if err != nil {
					return err
				}
				if err := emit(fig); err != nil {
					return err
				}
			}
		}
		return nil
	case "retention":
		for _, s := range sweeps() {
			res, err := experiment.Retention(ctx, experiment.Fig6Config{Sweep: s})
			if err != nil {
				return err
			}
			if err := res.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "table1":
		tab, err := experiment.Table1(ctx, experiment.CrowdConfig{Seed: *seed, Spammers: 3, Parallel: *par})
		if err != nil {
			return err
		}
		if err := tab.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	case "table2":
		tab, _, err := experiment.Table2(ctx, experiment.CrowdConfig{Seed: *seed, Parallel: *par})
		if err != nil {
			return err
		}
		if err := tab.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	case "search":
		res, err := experiment.SearchEval(ctx, experiment.SearchConfig{Seed: *seed, Workers: *par})
		if err != nil {
			return err
		}
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	case "majority":
		cfg := experiment.MajorityConfig{Seed: *seed, Workers: *par}
		if *quick {
			cfg.Trials = 300
		}
		res, err := experiment.MajorityBound(cfg)
		if err != nil {
			return err
		}
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	case "epsilon":
		for _, s := range sweeps() {
			fig, err := experiment.EpsilonSweep(ctx, experiment.EpsilonConfig{Sweep: s})
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "steps":
		for _, s := range sweeps() {
			fig, err := experiment.StepsExperiment(ctx, s)
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "bracket":
		for _, s := range sweeps() {
			fig, err := experiment.BracketAccuracy(ctx, experiment.BracketConfig{Sweep: s})
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
		return nil
	case "adversary":
		cfg := experiment.AdversaryConfig{Seed: *seed, Workers: *par}
		if *quick {
			cfg.Trials = 10
			cfg.Fractions = []float64{0, 0.2}
		}
		fig, err := experiment.AdversarySweep(ctx, cfg)
		if err != nil {
			return err
		}
		return emit(fig)
	case "trust":
		cfg := experiment.TrustConfig{Seed: *seed, Workers: *par}
		if *quick {
			cfg.Trials = 8
			cfg.Mixes = []experiment.TrustMix{{Spammers: 0, Colluders: 0}, {Spammers: 0, Colluders: 3}}
		}
		rep, err := experiment.TrustSweep(ctx, cfg)
		if err != nil {
			return err
		}
		return emit(rep.Figure())
	case "cascade":
		cfg := experiment.CascadeConfig{Seed: *seed, Trials: *trials, PriceRatio: 50, Workers: *par}
		if *quick {
			cfg.Ns = []int{400, 800}
			cfg.Us = [3]int{20, 6, 2}
			if cfg.Trials > 4 {
				cfg.Trials = 4
			}
		}
		fig, err := experiment.CascadeExperiment(ctx, cfg)
		if err != nil {
			return err
		}
		return emit(fig)
	default:
		return fmt.Errorf("unknown experiment %q (run benchrun without arguments for the list)", name)
	}
}
