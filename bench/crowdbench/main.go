// Command crowdbench is the repository's performance benchmark. It drives
// the max-finding service and library with four seeded workloads, checks
// every job's output, and prints the end-to-end metrics BENCHMARK.json
// defines; with -trace 1 it prints the per-layer metrics of a traced run
// instead. Run it from the repository root through bench/run.sh, which
// builds it from source:
//
//	bash bench/run.sh -seed 1                        # every workload, one after another
//	bash bench/run.sh -seed 1 -trace 1               # the same, traced: per-layer metrics
//	bash bench/run.sh -workload svc-small -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -repeat 3 -out .bench_build/a  # 3 seeds; spread vs bound
//	bash bench/run.sh compare .bench_build/a/run-*.json -- .bench_build/b/run-*.json
//	bash bench/run.sh pin -seeds 32                  # re-pin the output digests
//
// Each workload runs in fresh child processes of this binary: several that
// only set up (their median start-to-first-job time is setup_s) and one
// that measures. With -workload the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

const (
	// setupRuns is how many set-up-only children a measured run starts
	// besides the measuring one; setup_s is the median of them all. Each
	// takes a few milliseconds.
	setupRuns = 10
	// childTimeout bounds the children of one measured workload, so a run
	// that hangs is killed inside the 180 seconds a driver allows it.
	childTimeout = 170 * time.Second
	readyLine    = "crowdbench: ready"
)

var (
	workloadFlag = flag.String("workload", "", "run only this workload and print one JSON result line (empty: every workload)")
	seedFlag     = flag.Uint64("seed", 1, "run seed; job i's seed is a fixed mix of (seed, i)")
	secondsFlag  = flag.Float64("seconds", 0, "measured seconds per workload after its warm-up (0: run_seconds from BENCHMARK.json)")
	traceFlag    = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	repeatFlag   = flag.Int("repeat", 1, "runs per workload, with seeds seed..seed+N-1; each writes a result file, and N > 1 prints every metric's spread against its bound")
	outFlag      = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files (suite runs)")
	spansFlag    = flag.String("spans", ".bench_build", "directory for traced runs' span JSONL")
	childFlag    = flag.Bool("child", false, "internal: run one workload in this process")
	setupFlag    = flag.Bool("setup-only", false, "internal: with -child, stop after set-up")
	relaxedFlag  = flag.Bool("relaxed", false, "internal: with -child, report tails with fewer than 10 samples beyond them")
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareCmd(os.Stdout, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "pin":
		err = pinCmd(os.Args[2:])
	default:
		flag.Parse()
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	traced := *traceFlag == 1
	if *childFlag {
		return child(traced)
	}
	spec, _, err := loadSpec()
	if err != nil {
		return err
	}
	seconds := *secondsFlag
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *workloadFlag != "" {
		w, err := workloadNamed(*workloadFlag)
		if err != nil {
			return err
		}
		selected = []workload{w}
		if *repeatFlag == 1 {
			res, err := measure(spec, w, *seedFlag, seconds, traced)
			if err != nil {
				return err
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			if !res.Correct {
				return errors.New("outputs failed their checks")
			}
			return nil
		}
	}
	return suite(spec, selected, seconds, traced)
}

// child runs one workload in this process, announces the end of set-up on
// standard output, and prints its result as the last line.
func child(traced bool) error {
	w, err := workloadNamed(*workloadFlag)
	if err != nil {
		return err
	}
	o := runOpts{
		seed:      *seedFlag,
		seconds:   *secondsFlag,
		traced:    traced,
		setupOnly: *setupFlag,
		relaxed:   *relaxedFlag,
		spansDir:  *spansFlag,
		ready:     func() { fmt.Println(readyLine) },
		log:       os.Stderr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	res, err := runWorkload(ctx, w, o)
	if err != nil || o.setupOnly {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is one workload's result in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload in child processes. Untraced: setupRuns
// set-up-only children and one measuring child; setup_s is the median of
// all their set-up times. Traced: a traced child for the per-layer metrics
// and an untraced child of half the length for the tracing overhead.
func measure(spec *benchSpec, w workload, seed uint64, seconds float64, traced bool) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := func(seconds float64, extra ...string) []string {
		return append([]string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-spans", *spansFlag}, extra...)
	}
	var setups []float64
	var res runResult
	want := spec.EndToEnd
	if !traced {
		for range setupRuns {
			d, _, err := spawn(ctx, args(seconds, "-setup-only"))
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d.Seconds())
		}
		d, r, err := spawn(ctx, args(seconds))
		if err != nil {
			return result{}, err
		}
		res = r
		res.Metrics["setup_s"] = median(append(setups, d.Seconds()))
	} else {
		want = spec.PerLayer
		_, r, err := spawn(ctx, args(seconds, "-trace", "1"))
		if err != nil {
			return result{}, err
		}
		// The reference run only needs its median latency, which half the
		// length measures well; its tails are not reported.
		_, ref, err := spawn(ctx, args(seconds/2, "-relaxed"))
		if err != nil {
			return result{}, err
		}
		res = r
		res.Attempted += ref.Attempted
		res.Failed += ref.Failed
		res.Problems = append(res.Problems, ref.Problems...)
		res.Metrics["obs.trace_overhead_share"] = r.Metrics["latency_p50_ms"] / ref.Metrics["latency_p50_ms"]
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "crowdbench: %s seed %d: %s\n", w.name, seed, p)
	}
	out := result{Correct: len(res.Problems) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: the run did not measure %s", w.name, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// spawn runs this binary with args and returns the time from starting it to
// its ready line, and the result it printed last.
func spawn(ctx context.Context, args []string) (time.Duration, runResult, error) {
	var res runResult
	exe, err := os.Executable()
	if err != nil {
		return 0, res, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, res, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, res, err
	}
	var setup time.Duration
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == readyLine {
			setup = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if _, err := io.Copy(io.Discard, stdout); err != nil {
		return 0, res, err
	}
	if err := cmd.Wait(); err != nil {
		return 0, res, fmt.Errorf("child %v: %w", args, err)
	}
	if setup == 0 {
		return 0, res, fmt.Errorf("child %v never reported the end of set-up", args)
	}
	if len(last) > 0 {
		if err := json.Unmarshal(last, &res); err != nil {
			return 0, res, fmt.Errorf("child %v result: %w", args, err)
		}
	}
	return setup, res, nil
}

// suite runs the selected workloads -repeat times, writes one result file
// per repetition, and prints the metrics and, over several repetitions,
// each one's spread against its bound.
func suite(spec *benchSpec, selected []workload, seconds float64, traced bool) error {
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		return err
	}
	metrics := spec.EndToEnd
	if traced {
		metrics = spec.PerLayer
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per repetition
	failed := false
	for k := range *repeatFlag {
		rf := runFile{Seed: *seedFlag + uint64(k), Trace: traced, Workloads: map[string]result{}}
		for _, w := range selected {
			res, err := measure(spec, w, rf.Seed, seconds, traced)
			if err != nil {
				return err
			}
			failed = failed || !res.Correct
			rf.Workloads[w.name] = res
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			fmt.Printf("%s seed %d: %d jobs, %d failed, correct %v\n", w.name, rf.Seed, res.Attempted, res.Failed, res.Correct)
			for _, m := range metrics {
				v := res.Metrics[m.Name]
				values[w.name][m.Name] = append(values[w.name][m.Name], v.Value)
				fmt.Printf("  %-30s %14.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		data, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(*outFlag, fmt.Sprintf("run-%d.json", k))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *repeatFlag > 1 {
		printSpreads(os.Stdout, metrics, selected, values)
	}
	if failed {
		return errors.New("some outputs failed their checks")
	}
	return nil
}

// printSpreads prints, per workload and metric, the median of the
// repetitions and their interquartile distance as a share of it, against
// the metric's bound. A spread above a third of the bound is flagged: run
// noise that wide can hide a regression the bound is meant to catch.
func printSpreads(w io.Writer, metrics []metricSpec, selected []workload, values map[string]map[string][]float64) {
	fmt.Fprintf(w, "\n%-10s %-30s %14s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	names := make([]string, 0, len(selected))
	for _, wl := range selected {
		names = append(names, wl.name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range metrics {
			xs := values[wl][m.Name]
			s := spread(xs)
			mark := ""
			switch {
			case m.Bound == 0:
			case s > m.Bound:
				mark = "over bound"
			case s > m.Bound/3:
				mark = "over a third of bound"
			}
			fmt.Fprintf(w, "%-10s %-30s %14.6g %7.2f%% %8s  %s\n", wl, m.Name, median(xs), 100*s, boundText(m.Bound), mark)
		}
	}
}
