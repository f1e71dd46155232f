package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"time"

	"crowdmax/internal/checkpoint"
)

// runOpts configures one in-process run of a workload.
type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
	// setupOnly stops right after set-up (the parent times several set-ups
	// per run and reports their median).
	setupOnly bool
	// minJobs keeps the closed loops starting jobs until this many have
	// started, however short the window (pinning needs prefixJobs).
	minJobs int
	// relaxed drops the rule that a tail percentile needs minBeyond samples
	// beyond it, for runs too short to have them (smoke tests, pinning).
	relaxed bool
	// spansDir, when set in a traced run, receives the span JSONL.
	spansDir string
	// ready is called once, when set-up is done and the first job is about
	// to be sent.
	ready func()
	// log receives the traced run's self-time table.
	log io.Writer
}

// runResult is one run's report to its parent.
type runResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Digests maps a prefix length to the digest of that many first jobs.
	Digests map[int]string `json:"digests,omitempty"`
}

// runWorkload runs one workload in this process: set-up, one warm-up, the
// measured window, then the checks and the metrics.
func runWorkload(ctx context.Context, w workload, o runOpts) (runResult, error) {
	clk := newClock()
	var tr *tracer
	if o.traced {
		tr = &tracer{}
	}
	var h *svcHarness
	if w.loop != closedLibrary {
		var err error
		if h, err = bootService(clk, tr); err != nil {
			return runResult{}, err
		}
	}
	if o.ready != nil {
		o.ready()
	}
	if o.setupOnly {
		if h != nil {
			return runResult{}, h.stop()
		}
		return runResult{}, nil
	}

	start := clk.now()
	win := window{from: start + int64(warmup)}
	win.to = win.from + int64(o.seconds*float64(time.Second))
	var recs []*jobRec
	var err error
	rss := sampleRSS(100 * time.Millisecond)
	switch w.loop {
	case closedService:
		recs, err = runClosedService(ctx, w, o.seed, h, clk, win.to, o.minJobs)
	case burstService:
		bursts := int(math.Ceil(o.seconds * float64(time.Second) / float64(burstEvery)))
		win = window{from: start + warmBursts*int64(burstEvery), burst: true}
		recs, err = runBurstService(ctx, w, o.seed, h, clk, start, warmBursts+bursts)
	case closedLibrary:
		recs, err = runLib(ctx, w, o.seed, clk, win.to, o.minJobs)
	}
	rssMBs := rss.finish()
	if h != nil {
		err = errors.Join(err, h.stop())
	}
	if err != nil {
		return runResult{}, err
	}
	slices.SortFunc(recs, func(a, b *jobRec) int { return a.idx - b.idx })

	res := runResult{Attempted: len(recs), Digests: map[int]string{}}
	for _, r := range recs {
		if r.err != nil {
			res.Failed++
		}
		if r.dishonest && len(res.Problems) < 5 {
			res.Problems = append(res.Problems, fmt.Sprintf("job %d (%s): %v", r.idx, r.mode, r.err))
		}
	}
	for _, k := range []int{5, prefixJobs} {
		if d, ok := digest(recs, k); ok {
			res.Digests[k] = d
		}
	}
	res.Problems = append(res.Problems, checkPins(w.name, o.seed, res.Digests)...)

	m := measured(recs, win)
	if res.Metrics, err = endToEnd(w, recs, m, win, rssMBs, o.relaxed); err != nil {
		return res, err
	}
	if !o.traced {
		return res, nil
	}

	layer, err := perLayer(ctx, w, o, recs, m, h, clk, tr)
	if err != nil {
		return res, err
	}
	for k, v := range layer {
		res.Metrics[k] = v
	}
	if w.loop == closedService {
		if c := coverage(m); c < 0.95 || c > 1.05 {
			res.Problems = append(res.Problems, fmt.Sprintf("submit+queue+run cover %.3f of the median job's latency, want within 5%%", c))
		}
	}
	spans := append(tr.all(), jobSpans(w, recs)...)
	adopt(spans)
	if o.log != nil {
		printSelfTimes(o.log, fmt.Sprintf("%s seed %d", w.name, o.seed), spans)
	}
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// window is the measured part of a run: closed loops measure the jobs that
// ended in [from, to]; svc-burst measures every job past its warm-up bursts.
type window struct {
	from, to int64
	burst    bool
}

// measured returns the jobs the run's timing metrics cover.
func measured(recs []*jobRec, win window) []*jobRec {
	var out []*jobRec
	for _, r := range recs {
		if win.burst && r.idx >= warmBursts*burstSize || !win.burst && r.end >= win.from && r.end <= win.to {
			out = append(out, r)
		}
	}
	return out
}

// ok returns the jobs among recs that ended done with an honest result.
func ok(recs []*jobRec) []*jobRec {
	var out []*jobRec
	for _, r := range recs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// durations returns f(r) in milliseconds for every job where both stamps
// were reached.
func durations(recs []*jobRec, from, to func(*jobRec) int64) []float64 {
	var out []float64
	for _, r := range recs {
		a, b := from(r), to(r)
		if a > 0 && b > 0 {
			out = append(out, float64(max(b-a, 0))/1e6)
		}
	}
	return out
}

func due(r *jobRec) int64      { return r.due }
func sent(r *jobRec) int64     { return r.sent }
func admitted(r *jobRec) int64 { return r.admitted }
func running(r *jobRec) int64  { return r.running }
func ended(r *jobRec) int64    { return r.end }

// endToEnd computes the metrics a user of the system sees (all but
// setup_s, which the parent measures across processes). rssMBs are the
// resident-set samples taken over the run.
func endToEnd(w workload, recs, m []*jobRec, win window, rssMBs []float64, relaxed bool) (map[string]float64, error) {
	good := ok(m)
	if len(good) == 0 && !relaxed {
		return nil, errors.New("no measured job completed")
	}
	lat := durations(good, due, ended)
	elapsed := float64(win.to - win.from)
	if win.burst {
		// The open loop measures from its first measured burst's due time
		// to the last completion.
		last := win.from
		for _, r := range good {
			last = max(last, r.end)
		}
		elapsed = float64(last - win.from)
	}
	p50, _ := percentile(lat, 0.5)
	tl, err := tailOf("latency_tail_ms", lat, w.tailQ, relaxed)
	if err != nil {
		return nil, err
	}
	var cost []float64
	for _, r := range ok(prefix(recs)) {
		cost = append(cost, r.out.cost)
	}
	return map[string]float64{
		"jobs_per_s":      float64(len(good)) / (elapsed / 1e9),
		"latency_p50_ms":  p50,
		"latency_tail_ms": tl,
		"cost_per_job":    mean(cost),
		"rss_p50_mb":      median(rssMBs),
	}, nil
}

// tailOf is tail for the named metric; a relaxed run takes the percentile
// however few samples lie beyond it.
func tailOf(name string, xs []float64, q float64, relaxed bool) (float64, error) {
	if relaxed {
		v, _ := percentile(xs, q)
		return v, nil
	}
	v, err := tail(xs, q)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// medianJob returns the job of median latency among recs.
func medianJob(recs []*jobRec) *jobRec {
	s := slices.Clone(recs)
	slices.SortFunc(s, func(a, b *jobRec) int { return cmp.Compare(a.end-a.due, b.end-b.due) })
	return s[len(s)/2]
}

// prefix returns the first prefixJobs jobs by index (recs is sorted).
func prefix(recs []*jobRec) []*jobRec {
	return recs[:min(len(recs), prefixJobs)]
}

// jobSpans turns each job's stamps into its client-side span tree.
func jobSpans(w workload, recs []*jobRec) []span {
	var out []span
	next := int64(1 << 40) // clear of the tracer's own IDs
	add := func(s span) int64 {
		if s.Start <= 0 || s.End <= 0 {
			return 0
		}
		next++
		s.ID, s.End = next, max(s.End, s.Start)
		out = append(out, s)
		return s.ID
	}
	for _, r := range recs {
		if r.end == 0 {
			continue
		}
		if w.loop == closedLibrary {
			job := add(span{Name: "session.run", Job: r.id, Start: r.due, End: r.end})
			add(span{Name: "phase1", Parent: job, Job: r.id, Start: r.phase[phaseStart], End: r.phase[phase1]})
			add(span{Name: "phase2", Parent: job, Job: r.id, Start: r.phase[phase1], End: r.phase[phaseDone]})
			continue
		}
		job := add(span{Name: "job", Job: r.id, Start: r.due, End: r.end})
		if w.loop == burstService {
			admit := add(span{Name: "admit", Parent: job, Job: r.id, Start: r.due, End: r.admitted})
			add(span{Name: "submit", Parent: admit, Job: r.id, Start: r.sent, End: r.admitted})
			add(span{Name: "wait", Parent: job, Job: r.id, Start: r.admitted, End: r.end})
			continue
		}
		add(span{Name: "submit", Parent: job, Job: r.id, Start: r.sent, End: r.admitted})
		add(span{Name: "queue", Parent: job, Job: r.id, Start: r.admitted, End: r.running})
		run := add(span{Name: "run", Parent: job, Job: r.id, Start: r.running, End: r.end})
		add(span{Name: "phase1", Parent: run, Job: r.id, Start: r.phase[phaseStart], End: r.phase[phase1]})
		add(span{Name: "phase2", Parent: run, Job: r.id, Start: r.phase[phase1], End: r.phase[phaseDone]})
	}
	return out
}

// coverage is how much of the median measured job's latency its submit,
// queue and run spans cover.
func coverage(m []*jobRec) float64 {
	good := ok(m)
	if len(good) == 0 {
		return 0
	}
	r := medianJob(good)
	parts := (r.admitted - r.sent) + max(r.running-r.admitted, 0) + (r.end - r.running)
	return float64(parts) / float64(r.end-r.due)
}

// perLayer computes the traced run's per-layer metrics. A layer the
// workload never enters reads 0.
func perLayer(ctx context.Context, w workload, o runOpts, recs, m []*jobRec, h *svcHarness, clk *clock, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		out[n] = 0
	}
	good := ok(m)
	pre := ok(prefix(recs))
	var naive, expert []float64
	for _, r := range pre {
		naive = append(naive, float64(r.out.naive))
		expert = append(expert, float64(r.out.expert))
	}
	out["core.naive_cmp_per_job"], out["core.expert_cmp_per_job"] = mean(naive), mean(expert)

	var p1 []float64
	for _, r := range good {
		from := r.running
		if w.loop == closedLibrary {
			from = r.due
		}
		if r.phase[phaseStart] > 0 && r.phase[phase1] > 0 && r.end > from {
			p1 = append(p1, float64(r.phase[phase1]-r.phase[phaseStart])/float64(r.end-from))
		}
	}
	out["crowdmax.phase1_share"] = median(p1)

	if w.loop == closedLibrary {
		return libLayers(ctx, w, o, recs, good, out, clk, tr)
	}

	submit := durations(good, sent, admitted)
	out["service.submit_p50_ms"], _ = percentile(submit, 0.5)
	var err error
	if out["service.submit_tail_ms"], err = tailOf("service.submit_tail_ms", submit, w.tailQ, o.relaxed); err != nil {
		return nil, err
	}
	out["service.admit_wait_p50_ms"], _ = percentile(durations(good, due, admitted), 0.5)
	out["service.queue_p50_ms"], _ = percentile(durations(good, admitted, running), 0.5)
	runs := durations(good, running, ended)
	out["service.run_p50_ms"], _ = percentile(runs, 0.5)
	refusals := 0
	for _, r := range m {
		refusals += r.refusals
	}
	out["service.refusals_per_job"] = float64(refusals) / float64(max(len(m), 1))
	if w.loop == burstService {
		late := durations(m, due, func(r *jobRec) int64 { return r.firstSent })
		if out["loadgen.lateness_p99_ms"], err = tailOf("loadgen.lateness_p99_ms", late, 0.99, o.relaxed); err != nil {
			return nil, err
		}
	}

	// Filesystem spans of the measured jobs, by layer.
	ids := map[string]bool{}
	for _, r := range good {
		ids[r.id] = true
	}
	type ioLayer struct {
		n, bytes, syncs int64
		ms              []float64
		total           int64
	}
	layers := map[string]*ioLayer{"store.write": {}, "checkpoint.write": {}}
	for _, s := range tr.all() {
		l := layers[s.Name]
		if l == nil || !ids[s.Job] {
			continue
		}
		l.n++
		l.bytes += s.Bytes
		l.syncs += s.Syncs
		l.ms = append(l.ms, float64(s.dur())/1e6)
		l.total += s.dur()
	}
	jobs := float64(max(len(good), 1))
	sw, cw := layers["store.write"], layers["checkpoint.write"]
	out["store.writes_per_job"] = float64(sw.n) / jobs
	out["store.fsyncs_per_job"] = float64(sw.syncs) / jobs
	out["store.write_p50_ms"], _ = percentile(sw.ms, 0.5)
	out["checkpoint.snapshots_per_job"] = float64(cw.n) / jobs
	out["checkpoint.bytes_per_job"] = float64(cw.bytes) / jobs
	out["checkpoint.write_p50_ms"], _ = percentile(cw.ms, 0.5)
	var runNs float64
	for _, d := range runs {
		runNs += d * 1e6
	}
	if runNs > 0 {
		out["checkpoint.io_share"] = float64(cw.total) / runNs
	}
	save, err := saveFinal(h.mem, pre)
	if err != nil {
		return nil, err
	}
	out["checkpoint.save_final_ms"] = save
	return out, nil
}

// libLayers fills lib-mixed's per-layer metrics: run time per job kind,
// the pool's duplicated requests, the memo hit share and the trust
// extraction time.
func libLayers(ctx context.Context, w workload, o runOpts, recs, good []*jobRec, out map[string]float64, clk *clock, tr *tracer) (map[string]float64, error) {
	byMode := map[string][]*jobRec{}
	for _, r := range good {
		byMode[r.mode] = append(byMode[r.mode], r)
	}
	out["crowdmax.max_run_p50_ms"], _ = percentile(durations(byMode["max"], due, ended), 0.5)
	out["crowdmax.topk_run_p50_ms"], _ = percentile(durations(byMode["topk"], due, ended), 0.5)
	out["crowdmax.pool_run_p50_ms"], _ = percentile(durations(byMode["pool"], due, ended), 0.5)
	var dups []float64
	for _, r := range byMode["pool"] {
		dups = append(dups, float64(r.dups))
	}
	out["dispatch.duplicates_per_job"] = mean(dups)
	share, err := memoHitShare(ctx, w, o.seed, recs)
	if err != nil {
		return nil, err
	}
	out["tournament.memo_hit_share"] = share
	out["trust.extract_ms"] = float64(extractTime(int64(median(dups)), 20, clk, tr)) / 1e6
	return out, nil
}

// saveFinal times checkpoint.SaveFS (encode plus the atomic write) into a
// memory filesystem that keeps nothing, on the final snapshot of the
// median-latency job among the first prefixJobs, and returns the median of
// 20 saves in milliseconds.
func saveFinal(mem *memFS, pre []*jobRec) (float64, error) {
	if len(pre) == 0 {
		return 0, nil
	}
	path := filepath.Join(stateDir, "ck", medianJob(pre).id+".ck")
	st, err := checkpoint.LoadFS(mem, path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint.save_final_ms: %w", err)
	}
	discard := newMemFS(func(string) bool { return false })
	ds := make([]float64, 20)
	for i := range ds {
		t := time.Now()
		if err := checkpoint.SaveFS(discard, path, st); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t)) / 1e6
	}
	return median(ds), nil
}
