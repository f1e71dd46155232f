// Command loadgen drives a maxcrowdd service with a deterministic seeded job
// stream and reports client-observed throughput and latency.
//
// It is both the repo's loadtest harness and the HTTP client of the CI smoke
// scripts (no curl/jq needed): it submits -jobs generated-instance jobs
// across -tenants synthetic tenants, retries admissions rejected with
// 429/503 (counting every rejection), polls each accepted job to a terminal
// state, validates that every result's guarantee label is one its rung can
// honestly deliver and that it carries the submitted mode and rank count,
// and prints client-observed throughput and p50/p99 latency, overall and
// per mode for a mixed stream. It exits non-zero unless every job completes
// cleanly, so a loadtest's exit status is its gate. The repository's
// performance benchmark is crowdbench (bench/README.md), not loadgen.
//
// With no -server it boots an in-process service on 127.0.0.1:0 and drives
// it over real HTTP, so a single command reproduces the loadtest:
//
//	loadgen -jobs 1000
//	loadgen -jobs 60 -mix max,topk,score
//	loadgen -server http://127.0.0.1:8080 -jobs 200
//	loadgen -server http://$(cat addr) -jobs 4 -submit-only
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdmax"
	"crowdmax/internal/service"
)

var (
	server     = flag.String("server", "", "base URL of a running maxcrowdd (empty: boot an in-process server on 127.0.0.1:0)")
	jobs       = flag.Int("jobs", 200, "number of jobs to submit")
	nItems     = flag.Int("n", 100, "instance size per job")
	un         = flag.Int("un", 4, "filter parameter un per job")
	seed       = flag.Uint64("seed", 1, "root seed; job i runs with a seed derived from (seed, i)")
	tenants    = flag.Int("tenants", 4, "spread jobs round-robin over this many synthetic tenants")
	workers    = flag.Int("concurrency", 32, "concurrent client workers")
	submitOnly = flag.Bool("submit-only", false, "submit the jobs and exit without waiting for completion (smoke scripts use this to hold work in flight)")
	waitAll    = flag.Bool("wait-all", false, "submit nothing: poll the server's /healthz until every job it knows is terminal, exit non-zero if any failed (smoke scripts use this after a restart)")
	maxConc    = flag.Int("max-concurrent", 8, "in-process server only: session slots")
	cmpLat     = flag.Duration("cmp-latency", 0, "in-process server only: per-comparison latency")
	retryEvery = flag.Duration("retry-every", 25*time.Millisecond, "client backoff between admission retries (the server's Retry-After is whole seconds; a loadtest retries faster but still counts every rejection)")
	timeout    = flag.Duration("timeout", 10*time.Minute, "overall deadline for the run")
	mix        = flag.String("mix", "max", "','-separated workload modes cycled job-by-job across the stream (max, topk, score); anything beyond plain max also prints per-mode latency lines")
	kFlag      = flag.Int("k", 3, "ranks requested by the topk jobs in the mix")
	votesFlag  = flag.Int("votes", 3, "cardinal votes per element for the score jobs in the mix")

	// Torture-harness flags (scripts/store-torture.sh).
	idsOut      = flag.String("ids-out", "", "append every acknowledged job ID to this file (torture bookkeeping: an acked ID must survive any crash)")
	audit       = flag.Bool("audit", false, "audit a server instead of driving it: every job terminal, every ID in -ids-file accounted for, tenant budgets reconciled against recorded spend (needs -server)")
	idsFile     = flag.String("ids-file", "", "file of acknowledged job IDs (one per line) that -audit checks against the server")
	deadlineSec = flag.Float64("deadline", 0, "deadline_seconds attached to every submitted job (0 = none)")
	faultEvery  = flag.Int("fault-every", 0, "submit every Nth job with fault:\"panic\" (server must run -allow-faults)")
	allowFailed = flag.Bool("allow-failed", false, "-wait-all/-audit: tolerate failed and expired jobs (fault/deadline torture runs)")
	idemKeys    = flag.Bool("idem", false, "attach a deterministic Idempotency-Key to every submission (retries can never double-charge)")
	cePrice     = flag.Float64("ce", 10, "-audit only: the server's expert comparison price, for the monetary reconciliation")
)

// jobStatus is the subset of the service's jobView the client reads.
type jobStatus struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Mode      string `json:"mode"`
		Rung      string `json:"rung"`
		Guarantee string `json:"guarantee"`
		Ranked    []struct {
			Rung      string `json:"rung"`
			Guarantee string `json:"guarantee"`
		} `json:"ranked"`
	} `json:"result"`
}

// parseMix validates the -mix flag and returns the per-job mode cycle.
func parseMix() ([]string, error) {
	var modes []string
	for _, m := range strings.Split(*mix, ",") {
		m = strings.TrimSpace(m)
		switch m {
		case "max", "topk", "score":
			modes = append(modes, m)
		default:
			return nil, fmt.Errorf("unknown mode %q in -mix (want max, topk, or score)", m)
		}
	}
	return modes, nil
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	modes, err := parseMix()
	if err != nil {
		return err
	}
	base := *server
	if *waitAll {
		if base == "" {
			return fmt.Errorf("-wait-all needs -server")
		}
		return waitAllJobs(ctx, base)
	}
	if *audit {
		if base == "" {
			return fmt.Errorf("-audit needs -server")
		}
		return auditServer(ctx, base)
	}
	if base == "" {
		stop, url, err := bootInProcess()
		if err != nil {
			return err
		}
		defer stop()
		base = url
	}

	var (
		rejected  atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		failures  []string
		ackedIDs  []string
		latByMode = make(map[string][]time.Duration, len(modes))
		jobByMode = make(map[string]int, len(modes))
	)
	client := &http.Client{}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				m := modes[i%len(modes)]
				lat, id, err := runOne(ctx, client, base, i, m, &rejected)
				mu.Lock()
				jobByMode[m]++
				if id != "" {
					ackedIDs = append(ackedIDs, id)
				}
				if err != nil {
					failures = append(failures, fmt.Sprintf("job %d (%s): %v", i, m, err))
				} else {
					latencies = append(latencies, lat)
					latByMode[m] = append(latByMode[m], lat)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	if *idsOut != "" && len(ackedIDs) > 0 {
		// Append, not truncate: the torture harness accumulates acked IDs
		// across many kill/restart cycles and audits the union at the end.
		f, err := os.OpenFile(*idsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sort.Strings(ackedIDs)
		if _, err := f.WriteString(strings.Join(ackedIDs, "\n") + "\n"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "loadgen:", f)
	}
	completed := len(latencies)
	fmt.Printf("loadgen: %d/%d jobs done in %.2fs (%.1f jobs/s, p50 %.1fms, p99 %.1fms, %d rejections retried)\n",
		completed, *jobs, wall.Seconds(), float64(completed)/wall.Seconds(),
		quantileMS(latencies, 0.50), quantileMS(latencies, 0.99), rejected.Load())
	if len(modes) > 1 || modes[0] != "max" {
		printed := make(map[string]bool, len(modes))
		for _, m := range modes {
			if printed[m] {
				continue
			}
			printed[m] = true
			fmt.Printf("loadgen: mode %-5s %d/%d done (p50 %.1fms, p99 %.1fms)\n",
				m, len(latByMode[m]), jobByMode[m], quantileMS(latByMode[m], 0.50), quantileMS(latByMode[m], 0.99))
		}
	}
	if len(failures) > 0 || completed != *jobs {
		return fmt.Errorf("%d of %d jobs did not complete cleanly", *jobs-completed+len(failures), *jobs)
	}
	return nil
}

// runOne submits job i as workload mode m (retrying admission rejections)
// and, unless -submit-only, polls it to a terminal state and validates the
// result — including per-rank label honesty for topk jobs. The returned
// latency is client-observed: submission retries included. The returned ID
// is the server's acknowledgment — once non-empty, the job must survive any
// later crash.
func runOne(ctx context.Context, client *http.Client, base string, i int, m string, rejected *atomic.Int64) (time.Duration, string, error) {
	spec := map[string]any{
		"tenant": fmt.Sprintf("t%02d", i%max(1, *tenants)),
		"mode":   m,
		"n":      *nItems,
		"un":     *un,
		"seed":   jobSeed(i),
	}
	switch m {
	case "topk":
		spec["k"] = *kFlag
	case "score":
		spec["votes"] = *votesFlag
	}
	if *deadlineSec > 0 {
		spec["deadline_seconds"] = *deadlineSec
	}
	faulted := *faultEvery > 0 && i%*faultEvery == 0
	if faulted {
		spec["fault"] = "panic"
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, "", err
	}
	start := time.Now()

	var statusURL, jobID string
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		if *idemKeys {
			req.Header.Set("Idempotency-Key", fmt.Sprintf("lg-%d-%d", *seed, i))
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			rejected.Add(1)
			select {
			case <-time.After(*retryEvery):
				continue
			case <-ctx.Done():
				return 0, "", fmt.Errorf("deadline while retrying admission: %w", ctx.Err())
			}
		}
		// 202 is a fresh admission; 200 is an idempotent replay of one.
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return 0, "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, msg)
		}
		var accepted struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil {
			return 0, "", fmt.Errorf("decode submit response: %w", err)
		}
		statusURL, jobID = base+accepted.Status, accepted.ID
		break
	}
	if *submitOnly {
		return time.Since(start), jobID, nil
	}

	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, statusURL, nil)
		if err != nil {
			return 0, jobID, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, jobID, err
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, jobID, fmt.Errorf("decode status: %w", err)
		}
		switch st.State {
		case "done":
			if st.Result == nil {
				return 0, jobID, fmt.Errorf("done without result")
			}
			if st.Result.Mode != m {
				return 0, jobID, fmt.Errorf("result mode %q, submitted %q", st.Result.Mode, m)
			}
			strongest, ok := crowdmax.StrongestGuaranteeFor(st.Result.Rung)
			if !ok {
				return 0, jobID, fmt.Errorf("unknown rung %q", st.Result.Rung)
			}
			if crowdmax.Guarantee(st.Result.Guarantee).Strength() > strongest.Strength() {
				return 0, jobID, fmt.Errorf("label %q stronger than rung %q allows", st.Result.Guarantee, st.Result.Rung)
			}
			if m == "topk" && len(st.Result.Ranked) != *kFlag {
				return 0, jobID, fmt.Errorf("topk job returned %d ranks, want %d", len(st.Result.Ranked), *kFlag)
			}
			if m != "topk" && len(st.Result.Ranked) != 0 {
				return 0, jobID, fmt.Errorf("%s job returned %d ranks, want none", m, len(st.Result.Ranked))
			}
			for ri, rr := range st.Result.Ranked {
				rs, ok := crowdmax.StrongestGuaranteeFor(rr.Rung)
				if !ok {
					return 0, jobID, fmt.Errorf("rank %d: unknown rung %q", ri+1, rr.Rung)
				}
				if crowdmax.Guarantee(rr.Guarantee).Strength() > rs.Strength() {
					return 0, jobID, fmt.Errorf("rank %d: label %q stronger than rung %q allows", ri+1, rr.Guarantee, rr.Rung)
				}
			}
			return time.Since(start), jobID, nil
		case "expired":
			if *allowFailed || *deadlineSec > 0 {
				return time.Since(start), jobID, nil
			}
			return 0, jobID, fmt.Errorf("job expired: %s", st.Error)
		case "failed":
			if *allowFailed && faulted {
				// An injected panic is supposed to fail; the isolation (the
				// server still answering this poll) is the point.
				return time.Since(start), jobID, nil
			}
			return 0, jobID, fmt.Errorf("job failed: %s", st.Error)
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return 0, jobID, fmt.Errorf("deadline while polling %s (state %q): %w", statusURL, st.State, ctx.Err())
		}
	}
}

// waitAllJobs polls /healthz until no job is queued, running, or interrupted
// (a restarted server re-runs interrupted jobs automatically, so they drain
// to done on their own), then fails if any job ended failed.
func waitAllJobs(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		var health struct {
			Status string         `json:"status"`
			Jobs   map[string]int `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decode healthz: %w", err)
		}
		if health.Jobs["queued"]+health.Jobs["running"]+health.Jobs["interrupted"] == 0 {
			if f := health.Jobs["failed"]; f > 0 && !*allowFailed {
				return fmt.Errorf("%d jobs failed", f)
			}
			fmt.Printf("loadgen: all jobs settled (%d done, %d expired, %d failed)\n",
				health.Jobs["done"], health.Jobs["expired"], health.Jobs["failed"])
			return nil
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("deadline waiting for jobs to settle (%v): %w", health.Jobs, ctx.Err())
		}
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// auditServer is the torture harness's closing argument: after every crash,
// fault window, and restart, the books must balance. It verifies that
//
//  1. every job the server knows is terminal (run -wait-all first);
//  2. every acknowledged ID in -ids-file is either a live job or accounted
//     for by name in the quarantine report — acked work never vanishes;
//  3. per tenant, the budget's recorded spend equals the sum of the
//     terminal results' comparisons — failed (panicked) jobs bill zero —
//     and the monetary spend matches at -ce prices to the cent.
func auditServer(ctx context.Context, base string) error {
	var list struct {
		Jobs []struct {
			ID     string `json:"id"`
			Tenant string `json:"tenant"`
			State  string `json:"state"`
			Result *struct {
				Naive  int64   `json:"naive_comparisons"`
				Expert int64   `json:"expert_comparisons"`
				Cost   float64 `json:"cost"`
			} `json:"result"`
		} `json:"jobs"`
	}
	if err := getJSON(ctx, base+"/v1/jobs", &list); err != nil {
		return err
	}
	var health struct {
		Status      string `json:"status"`
		Quarantined []struct {
			Name string `json:"name"`
		} `json:"quarantined"`
		Dirty int `json:"dirty"`
	}
	if err := getJSON(ctx, base+"/healthz", &health); err != nil {
		return err
	}
	var tens struct {
		Tenants []struct {
			Tenant     string   `json:"tenant"`
			Jobs       int      `json:"jobs"`
			SpentNaive *int64   `json:"spent_naive"`
			SpentExp   *int64   `json:"spent_expert"`
			SpentCost  *float64 `json:"spent_cost"`
		} `json:"tenants"`
	}
	if err := getJSON(ctx, base+"/v1/tenants", &tens); err != nil {
		return err
	}

	var problems []string
	badp := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	known := make(map[string]bool, len(list.Jobs))
	type spend struct {
		naive, expert int64
	}
	byTenant := map[string]spend{}
	for _, j := range list.Jobs {
		known[j.ID] = true
		switch j.State {
		case "done", "failed", "expired":
		default:
			badp("job %s not terminal: %q", j.ID, j.State)
		}
		if j.State == "failed" && !*allowFailed {
			badp("job %s failed", j.ID)
		}
		if j.Result != nil {
			s := byTenant[j.Tenant]
			s.naive += j.Result.Naive
			s.expert += j.Result.Expert
			byTenant[j.Tenant] = s
		}
	}

	if *idsFile != "" {
		data, err := os.ReadFile(*idsFile)
		if err != nil {
			return err
		}
		quarantined := make(map[string]bool, len(health.Quarantined))
		for _, q := range health.Quarantined {
			// Quarantine names look like "jNNNNNNNN.job" (maybe with a
			// collision suffix); index by the leading ID token.
			id, _, _ := strings.Cut(q.Name, ".")
			quarantined[id] = true
		}
		acked := 0
		for _, line := range strings.Split(string(data), "\n") {
			id := strings.TrimSpace(line)
			if id == "" {
				continue
			}
			acked++
			if !known[id] && !quarantined[id] {
				badp("acked job %s lost: neither on the server nor quarantined", id)
			}
		}
		fmt.Printf("loadgen: audit: %d acked IDs checked, %d jobs on server, %d quarantined, %d dirty\n",
			acked, len(list.Jobs), len(health.Quarantined), health.Dirty)
	}

	for _, t := range tens.Tenants {
		if t.Jobs != 0 {
			badp("tenant %s still holds %d unsettled job slots", t.Tenant, t.Jobs)
		}
		if t.SpentNaive == nil {
			continue // unlimited tenant: no budget to reconcile
		}
		want := byTenant[t.Tenant]
		if *t.SpentNaive != want.naive || *t.SpentExp != want.expert {
			badp("tenant %s books off: budget %d naive / %d expert, records sum %d / %d",
				t.Tenant, *t.SpentNaive, *t.SpentExp, want.naive, want.expert)
		}
		wantCost := float64(want.naive) + float64(want.expert)*(*cePrice)
		if diff := *t.SpentCost - wantCost; diff > 0.005 || diff < -0.005 {
			badp("tenant %s cost off by more than a cent: budget %.4f, records %.4f", t.Tenant, *t.SpentCost, wantCost)
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "loadgen: audit:", p)
		}
		return fmt.Errorf("audit found %d problem(s)", len(problems))
	}
	fmt.Printf("loadgen: audit clean: %d jobs, %d tenants reconciled, status %q\n",
		len(list.Jobs), len(tens.Tenants), health.Status)
	return nil
}

// jobSeed derives job i's root seed from the run seed — a fixed odd-constant
// mix, so the stream is reproducible from (-seed, -jobs) alone.
func jobSeed(i int) uint64 {
	return (*seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
}

// quantileMS returns the q-quantile of the latencies in milliseconds
// (nearest-rank), 0 for an empty set.
func quantileMS(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// bootInProcess starts a service server over a throwaway state directory and
// a real TCP listener, so the loadtest exercises the same HTTP path as a
// deployed maxcrowdd.
func bootInProcess() (stop func(), url string, err error) {
	dir, err := os.MkdirTemp("", "loadgen-*")
	if err != nil {
		return nil, "", err
	}
	srv, err := service.NewServer(service.Options{
		Dir:           dir,
		MaxConcurrent: *maxConc,
		CmpLatency:    *cmpLat,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	stop = func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(drainCtx) //nolint:errcheck
		httpSrv.Close()
		os.RemoveAll(dir)
	}
	return stop, "http://" + ln.Addr().String(), nil
}
