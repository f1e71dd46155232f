package main

import (
	"errors"
	"fmt"
	"time"

	"crowdmax"
	"crowdmax/internal/service"
)

// The load shape shared by the workloads. Two clients (or goroutines) match
// the two cores the benchmark was calibrated on; eight slots and four
// tenants are the service defaults loadgen drives.
const (
	clients    = 2
	slots      = 8
	tenants    = 4
	warmup     = time.Second
	prefixJobs = 50 // jobs the digest, cost and comparison counts cover

	burstEvery  = 500 * time.Millisecond
	burstSize   = 32
	warmBursts  = 2
	retryEvery  = 25 * time.Millisecond // loadgen's admission retry policy
	giveUpAfter = 5 * time.Second
	pollEvery   = 5 * time.Millisecond

	libTopK    = 5
	poolSize   = 20
	burstTopK  = 3
	burstVotes = 3
)

// Loop shapes: a closed loop sends a client's next job only after its
// previous one finished; an open loop sends on a schedule regardless.
const (
	closedService = iota // clients stream each job's events to its end
	burstService         // one submitter on a burst schedule, one poller
	closedLibrary        // goroutines call Session.Run in-process
)

// workload is one traffic mix. Why each exists is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name  string
	loop  int
	n, un int
	// tailQ is the tail percentile reported as latency_tail_ms: the highest
	// one with at least minBeyond measured samples beyond it at the
	// calibrated run length.
	tailQ float64
}

var workloads = []workload{
	{name: "svc-small", loop: closedService, n: 100, un: 4, tailQ: 0.99},
	{name: "svc-large", loop: closedService, n: 500, un: 6, tailQ: 0.90},
	{name: "svc-burst", loop: burstService, n: 100, un: 4, tailQ: 0.99},
	{name: "lib-mixed", loop: closedLibrary, n: 2000, un: 8, tailQ: 0.95},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobSeed derives job i's seed from the run seed with loadgen's fixed mix.
func jobSeed(seed uint64, i int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
}

// jobMode is the mode of job i: max only on the closed service loops,
// max/topk/score on svc-burst, max/topk/pool on lib-mixed.
func jobMode(w workload, i int) string {
	switch w.loop {
	case burstService:
		return [...]string{service.ModeMax, service.ModeTopK, service.ModeScore}[i%3]
	case closedLibrary:
		return [...]string{service.ModeMax, service.ModeTopK, "pool"}[i%3]
	}
	return service.ModeMax
}

// serviceSpec is job i's submission to the service.
func serviceSpec(w workload, seed uint64, i int) service.JobSpec {
	sp := service.JobSpec{
		Tenant: fmt.Sprintf("t%02d", i%tenants),
		Mode:   jobMode(w, i),
		N:      w.n,
		Un:     w.un,
		Seed:   jobSeed(seed, i),
	}
	switch sp.Mode {
	case service.ModeTopK:
		sp.K = burstTopK
	case service.ModeScore:
		sp.Votes = burstVotes
	}
	return sp
}

// jobRec is one job as the benchmark saw it: stamps in nanoseconds since the
// run's epoch (0 = not reached) and the outcome it checked.
type jobRec struct {
	idx  int
	mode string
	id   string // the server's job ID, or "lib-<idx>"

	due       int64 // scheduled send (open loop) or first send (closed)
	firstSent int64 // first POST attempt began
	sent      int64 // last POST attempt began
	admitted  int64 // 202 received
	running   int64 // the "running" event arrived (closed service loops)
	phase     [3]int64
	end       int64 // terminal seen: event-stream EOF, a poll, or Run returning
	refusals  int

	out outcome
	// err is any reason the job did not end done with an honest result;
	// dishonest marks the ones that are correctness violations.
	err       error
	dishonest bool

	dups int64 // lib-mixed pool jobs: duplicated requests in the pool
}

// The phase stamps: the session's start, phase1 and done boundaries.
const (
	phaseStart = iota
	phase1
	phaseDone
)

// outcome is what a job computed: the digest's inputs plus its price.
type outcome struct {
	best          int
	ranked        []int
	naive, expert int64
	cost          float64
}

// errDishonest wraps results whose labels, mode or ranks are wrong.
var errDishonest = errors.New("dishonest result")

// honest checks that a guarantee label is one its rung can deliver.
func honest(rung, guarantee string) error {
	strongest, ok := crowdmax.StrongestGuaranteeFor(rung)
	if !ok {
		return fmt.Errorf("%w: unknown rung %q", errDishonest, rung)
	}
	if crowdmax.Guarantee(guarantee).Strength() > strongest.Strength() {
		return fmt.Errorf("%w: label %q stronger than rung %q allows", errDishonest, guarantee, rung)
	}
	return nil
}

// checkService validates a terminal job view from the service and extracts
// its outcome.
func checkService(rec *jobRec, sp service.JobSpec, st jobStatus) {
	if st.State != "done" || st.Result == nil {
		rec.err = fmt.Errorf("job %s ended %q: %s", rec.id, st.State, st.Error)
		return
	}
	r := st.Result
	rec.out = outcome{best: r.BestID, naive: r.NaiveComparisons, expert: r.ExpertComparisons, cost: r.Cost}
	wantRanks := 0
	if sp.Mode == service.ModeTopK {
		wantRanks = sp.K
	}
	switch {
	case r.Mode != sp.Mode:
		rec.err = fmt.Errorf("%w: result mode %q, submitted %q", errDishonest, r.Mode, sp.Mode)
	case len(r.Ranked) != wantRanks:
		rec.err = fmt.Errorf("%w: %d ranks, want %d", errDishonest, len(r.Ranked), wantRanks)
	default:
		rec.err = honest(r.Rung, r.Guarantee)
	}
	for _, e := range r.Ranked {
		rec.out.ranked = append(rec.out.ranked, e.ID)
		if rec.err == nil {
			rec.err = honest(e.Rung, e.Guarantee)
		}
	}
	rec.dishonest = errors.Is(rec.err, errDishonest)
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State  string             `json:"state"`
	Error  string             `json:"error"`
	Result *service.JobResult `json:"result"`
}
