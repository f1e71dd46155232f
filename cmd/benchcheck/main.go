// Command benchcheck validates the repository's benchmark artifacts. Four
// schemas are recognized, dispatched on the optional top-level "kind" field:
//
//   - legacy timing reports written by benchrun -benchout (no kind field):
//     machine fields plus one complete timing entry per experiment;
//   - "service" loadtest reports written by cmd/loadgen
//     (BENCH_service.json): client-observed throughput and latency for a
//     seeded job stream against maxcrowdd. Every submitted job must have
//     completed, the rejection count and seed must be present (the run is
//     not reproducible without them), and the latency quantiles must be
//     ordered (p50 ≤ p99).
//   - "workloads" mixed-workload loadtest reports written by cmd/loadgen -mix
//     (BENCH_workloads.json): the service schema plus a mode mix and per-mode
//     stats that must cover every mode in the mix, partition the job stream
//     exactly, and carry ordered per-mode latency quantiles.
//   - "trust" scorer-sweep reports written by benchrun -trust-out
//     (BENCH_trust.json): retention and mean cost for the gold, graph, and
//     hybrid scorer arms per adversary mix. The sweep must be certified
//     deterministic and must demonstrate the artifact's one claim: at some
//     colluder-clique mix the gold arm's retention collapses (≤ 90%) while
//     the graph or hybrid arm sustains ≥ 95%.
//
// It is CI's schema gate for the benchmark-smoke and loadtest-smoke jobs. It
// checks shape, not speed, so it cannot flake on loaded runners.
//
// Usage:
//
//	benchcheck results/BENCH.json [more.json ...]
//
// Exits 0 if every file is valid, 1 otherwise with one line per problem.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

type report struct {
	Cores       int       `json:"cores"`
	Gomaxprocs  int       `json:"gomaxprocs"`
	Workers     int       `json:"workers"`
	Experiments []expTime `json:"experiments"`
}

type expTime struct {
	Name       string   `json:"name"`
	SeqSeconds *float64 `json:"seq_seconds"`
	ParSeconds *float64 `json:"par_seconds"`
	Speedup    *float64 `json:"speedup"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck <report.json> [more.json ...]")
		os.Exit(2)
	}
	bad := false
	for _, path := range os.Args[1:] {
		if errs := checkFile(path); len(errs) != 0 {
			bad = true
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, e)
			}
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if bad {
		os.Exit(1)
	}
}

func checkFile(path string) []error {
	data, err := os.ReadFile(path)
	if err != nil {
		return []error{err}
	}
	return check(data)
}

func check(data []byte) []error {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	switch probe.Kind {
	case "":
		return checkLegacy(data)
	case "service":
		return checkService(data)
	case "workloads":
		return checkWorkloads(data)
	case "trust":
		return checkTrust(data)
	default:
		return []error{fmt.Errorf("unknown report kind %q", probe.Kind)}
	}
}

func checkLegacy(data []byte) []error {
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Cores < 1 {
		fail("cores = %d, want >= 1", r.Cores)
	}
	if r.Gomaxprocs < 1 {
		fail("gomaxprocs = %d, want >= 1", r.Gomaxprocs)
	}
	if r.Workers < 1 {
		fail("workers = %d, want >= 1", r.Workers)
	}
	if len(r.Experiments) == 0 {
		fail("no experiments")
	}
	for i, e := range r.Experiments {
		if e.Name == "" {
			fail("experiment %d: missing name", i)
		}
		for _, f := range []struct {
			key string
			val *float64
		}{
			{"seq_seconds", e.SeqSeconds},
			{"par_seconds", e.ParSeconds},
			{"speedup", e.Speedup},
		} {
			if f.val == nil {
				fail("experiment %d (%s): missing %s", i, e.Name, f.key)
			} else if *f.val < 0 {
				fail("experiment %d (%s): %s = %g, want >= 0", i, e.Name, f.key, *f.val)
			}
		}
	}
	return errs
}

// serviceReport mirrors cmd/loadgen's output schema — both the kind:"service"
// single-mode shape and the kind:"workloads" mixed-mode extension. Required
// numerics are pointers so "missing" and "zero" stay distinguishable.
type serviceReport struct {
	Seed          *uint64              `json:"seed"`
	Jobs          int                  `json:"jobs"`
	Completed     *int                 `json:"completed"`
	Failed        *int                 `json:"failed"`
	Rejected      *int64               `json:"rejected"`
	WallSeconds   *float64             `json:"wall_seconds"`
	JobsPerSec    *float64             `json:"jobs_per_sec"`
	P50LatencyMS  *float64             `json:"p50_latency_ms"`
	P99LatencyMS  *float64             `json:"p99_latency_ms"`
	N             int                  `json:"n"`
	Un            int                  `json:"un"`
	Concurrency   int                  `json:"concurrency"`
	MaxConcurrent int                  `json:"max_concurrent"`
	Server        string               `json:"server"`
	Mix           string               `json:"mix"`
	PerMode       map[string]modeStats `json:"per_mode"`
}

type modeStats struct {
	Jobs         int      `json:"jobs"`
	Completed    *int     `json:"completed"`
	Failed       *int     `json:"failed"`
	P50LatencyMS *float64 `json:"p50_latency_ms"`
	P99LatencyMS *float64 `json:"p99_latency_ms"`
}

func checkService(data []byte) []error {
	var r serviceReport
	if err := json.Unmarshal(data, &r); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	return checkServiceBase(&r)
}

func checkServiceBase(r *serviceReport) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Jobs < 1 {
		fail("jobs = %d, want >= 1", r.Jobs)
	}
	if r.Seed == nil {
		fail("missing seed (the run is not reproducible without it)")
	}
	for _, f := range []struct {
		key string
		set bool
	}{
		{"completed", r.Completed != nil},
		{"failed", r.Failed != nil},
		{"rejected", r.Rejected != nil},
		{"wall_seconds", r.WallSeconds != nil},
		{"jobs_per_sec", r.JobsPerSec != nil},
		{"p50_latency_ms", r.P50LatencyMS != nil},
		{"p99_latency_ms", r.P99LatencyMS != nil},
	} {
		if !f.set {
			fail("missing %s", f.key)
		}
	}
	if len(errs) != 0 {
		return errs
	}
	// Every submitted job completed: a loadtest that lost work is not a
	// benchmark, it is an incident report.
	if *r.Completed != r.Jobs {
		fail("completed = %d of %d jobs", *r.Completed, r.Jobs)
	}
	if *r.Failed != 0 {
		fail("failed = %d, want 0", *r.Failed)
	}
	if *r.Rejected < 0 {
		fail("rejected = %d, want >= 0", *r.Rejected)
	}
	if *r.WallSeconds <= 0 {
		fail("wall_seconds = %g, want > 0", *r.WallSeconds)
	}
	if *r.JobsPerSec <= 0 {
		fail("jobs_per_sec = %g, want > 0", *r.JobsPerSec)
	}
	if *r.P50LatencyMS <= 0 || *r.P99LatencyMS <= 0 {
		fail("latency quantiles (p50 %g, p99 %g) must be > 0", *r.P50LatencyMS, *r.P99LatencyMS)
	}
	if *r.P50LatencyMS > *r.P99LatencyMS {
		fail("p50 latency %g exceeds p99 %g", *r.P50LatencyMS, *r.P99LatencyMS)
	}
	if r.N < 2 {
		fail("n = %d, want >= 2", r.N)
	}
	if r.Un < 1 {
		fail("un = %d, want >= 1", r.Un)
	}
	if r.Concurrency < 1 {
		fail("concurrency = %d, want >= 1", r.Concurrency)
	}
	if r.MaxConcurrent < 1 {
		fail("max_concurrent = %d, want >= 1", r.MaxConcurrent)
	}
	if r.Server == "" {
		fail("missing server")
	}
	return errs
}

// checkWorkloads validates the mixed-workload loadtest artifact: everything
// the kind:"service" schema demands, plus a mode mix and per-mode stats that
// cover every mode in the mix, partition the job stream exactly, and carry
// ordered latency quantiles of their own — so a mode silently dropped from
// the loadtest (or one whose jobs all failed) is a schema error, not a gap.
func checkWorkloads(data []byte) []error {
	var r serviceReport
	if err := json.Unmarshal(data, &r); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	errs := checkServiceBase(&r)
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Mix == "" {
		fail("missing mix")
		return errs
	}
	if len(r.PerMode) == 0 {
		fail("missing per_mode")
		return errs
	}
	inMix := map[string]bool{}
	for _, m := range strings.Split(r.Mix, ",") {
		m = strings.TrimSpace(m)
		if m != "max" && m != "topk" && m != "score" {
			fail("mix names unknown mode %q", m)
			continue
		}
		inMix[m] = true
	}
	for m := range inMix {
		if _, ok := r.PerMode[m]; !ok {
			fail("mode %s is in the mix but has no per_mode entry", m)
		}
	}
	var sumJobs, sumDone, sumFailed int
	for m, s := range r.PerMode {
		if !inMix[m] {
			fail("per_mode names mode %q outside the mix %q", m, r.Mix)
			continue
		}
		if s.Completed == nil || s.Failed == nil || s.P50LatencyMS == nil || s.P99LatencyMS == nil {
			fail("mode %s: missing completed/failed/latency fields", m)
			continue
		}
		if s.Jobs < 1 {
			fail("mode %s: jobs = %d, want >= 1", m, s.Jobs)
		}
		if *s.Completed != s.Jobs {
			fail("mode %s: completed = %d of %d jobs", m, *s.Completed, s.Jobs)
		}
		if *s.Failed != 0 {
			fail("mode %s: failed = %d, want 0", m, *s.Failed)
		}
		if *s.Completed > 0 && (*s.P50LatencyMS <= 0 || *s.P99LatencyMS <= 0) {
			fail("mode %s: latency quantiles (p50 %g, p99 %g) must be > 0", m, *s.P50LatencyMS, *s.P99LatencyMS)
		}
		if *s.P50LatencyMS > *s.P99LatencyMS {
			fail("mode %s: p50 latency %g exceeds p99 %g", m, *s.P50LatencyMS, *s.P99LatencyMS)
		}
		sumJobs += s.Jobs
		sumDone += *s.Completed
		sumFailed += *s.Failed
	}
	if sumJobs != r.Jobs {
		fail("per_mode jobs sum to %d, report has %d", sumJobs, r.Jobs)
	}
	if r.Completed != nil && sumDone != *r.Completed {
		fail("per_mode completed sum to %d, report has %d", sumDone, *r.Completed)
	}
	if r.Failed != nil && sumFailed != *r.Failed {
		fail("per_mode failed sum to %d, report has %d", sumFailed, *r.Failed)
	}
	return errs
}

// trustReport mirrors experiment.TrustReport. Required numerics are pointers
// so "missing" and "zero" stay distinguishable.
type trustReport struct {
	Seed          *uint64     `json:"seed"`
	N             int         `json:"n"`
	Un            int         `json:"un"`
	Ue            int         `json:"ue"`
	PoolSize      int         `json:"pool_size"`
	Trials        int         `json:"trials"`
	Warmup        *int        `json:"warmup"`
	Mixes         []trustCell `json:"mixes"`
	Deterministic *bool       `json:"deterministic"`
	Hash          string      `json:"hash"`
}

type trustCell struct {
	Spammers  *int                     `json:"spammers"`
	Colluders *int                     `json:"colluders"`
	Arms      map[string]trustArmStats `json:"arms"`
}

type trustArmStats struct {
	RetentionPct *float64 `json:"retention_pct"`
	MeanCost     *float64 `json:"mean_cost"`
}

// trustArms is the arm set every mix must report — keep in sync with
// experiment.TrustArms.
var trustArms = []string{"gold", "graph", "hybrid"}

// checkTrust validates the scorer-sweep artifact: complete shape, sane
// ranges, a certified-deterministic double run, and the collapse claim the
// file exists to make — some colluder mix where gold retention is ≤ 90%
// while the graph or hybrid arm holds ≥ 95%.
func checkTrust(data []byte) []error {
	var r trustReport
	if err := json.Unmarshal(data, &r); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Seed == nil {
		fail("missing seed (the run is not reproducible without it)")
	}
	if r.N < 2 {
		fail("n = %d, want >= 2", r.N)
	}
	if r.Un < 1 || r.Ue < 1 {
		fail("un = %d, ue = %d, want >= 1", r.Un, r.Ue)
	}
	if r.PoolSize < 2 {
		fail("pool_size = %d, want >= 2", r.PoolSize)
	}
	if r.Trials < 1 {
		fail("trials = %d, want >= 1", r.Trials)
	}
	if r.Warmup == nil {
		fail("missing warmup")
	} else if *r.Warmup < 0 {
		fail("warmup = %d, want >= 0", *r.Warmup)
	}
	if len(r.Mixes) == 0 {
		fail("no mixes")
	}
	if r.Deterministic == nil {
		fail("missing deterministic")
	} else if !*r.Deterministic {
		fail("deterministic = false: the double run diverged")
	}
	if r.Hash == "" {
		fail("missing hash")
	}
	claim := false
	for i, m := range r.Mixes {
		if m.Spammers == nil || m.Colluders == nil {
			fail("mix %d: missing spammers/colluders", i)
			continue
		}
		if *m.Spammers < 0 || *m.Colluders < 0 {
			fail("mix %d: negative adversary count", i)
		}
		for _, arm := range trustArms {
			st, ok := m.Arms[arm]
			if !ok {
				fail("mix %d: missing arm %q", i, arm)
				continue
			}
			if st.RetentionPct == nil || st.MeanCost == nil {
				fail("mix %d arm %q: missing retention_pct or mean_cost", i, arm)
				continue
			}
			if *st.RetentionPct < 0 || *st.RetentionPct > 100 {
				fail("mix %d arm %q: retention %g outside [0, 100]", i, arm, *st.RetentionPct)
			}
			if *st.MeanCost <= 0 {
				fail("mix %d arm %q: mean cost %g, want > 0", i, arm, *st.MeanCost)
			}
		}
		if g, gr, hy := m.Arms["gold"], m.Arms["graph"], m.Arms["hybrid"]; *m.Colluders > 0 &&
			g.RetentionPct != nil && gr.RetentionPct != nil && hy.RetentionPct != nil &&
			*g.RetentionPct <= 90 && (*gr.RetentionPct >= 95 || *hy.RetentionPct >= 95) {
			claim = true
		}
	}
	if len(errs) == 0 && !claim {
		fail("no colluder mix shows gold retention <= 90%% with graph or hybrid >= 95%% — the claim the artifact exists to make")
	}
	return errs
}
