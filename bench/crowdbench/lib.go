package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crowdmax"
	"crowdmax/internal/trust"
)

// libJob is one lib-mixed job built from its spec: the session, the
// workload it runs and its input, and for pool jobs the worker pool whose
// scorecards the benchmark reads afterwards.
type libJob struct {
	sess  *crowdmax.Session
	w     crowdmax.Workload
	items []crowdmax.Item
	pool  *crowdmax.WorkerPool
}

// newLibJob builds job i of lib-mixed: deterministic threshold workers with
// hash tie-breaking (as the service builds them), degradation on, no
// checkpoint. Pool jobs route naive comparisons through a 20-worker pool
// under the agreement-graph scorer, duplicating every second request.
func newLibJob(w workload, seed uint64, i int, memo bool, onPhase func(string)) (*libJob, error) {
	s := jobSeed(seed, i)
	set := crowdmax.UniformDataset(w.n, 0, 1, crowdmax.NewRand(s).Child("data"))
	dn, err := set.DeltaForU(w.un)
	if err != nil {
		return nil, err
	}
	de, err := set.DeltaForU(max(1, w.un/2))
	if err != nil {
		return nil, err
	}
	cfg := crowdmax.Config{
		Naive:              &crowdmax.ThresholdWorker{Delta: dn, Tie: crowdmax.HashTie{Seed: s}},
		Expert:             &crowdmax.ThresholdWorker{Delta: de, Tie: crowdmax.HashTie{Seed: s + 1}},
		Un:                 w.un,
		Prices:             crowdmax.Prices{Naive: 1, Expert: 10},
		Rand:               crowdmax.NewRand(s),
		Degrade:            &crowdmax.DegradeConfig{},
		DisableMemoization: !memo,
		OnPhase:            func(phase string, _ []crowdmax.Item) { onPhase(phase) },
	}
	j := &libJob{items: set.Items(), w: crowdmax.MaxFind()}
	switch jobMode(w, i) {
	case "topk":
		j.w = crowdmax.TopKWorkload(libTopK)
	case "pool":
		workers := make([]crowdmax.PoolWorker, poolSize)
		for k := range workers {
			workers[k] = crowdmax.PoolWorker{
				Name:    fmt.Sprintf("w%02d", k),
				Backend: crowdmax.NewSimulatedBackend(&crowdmax.ThresholdWorker{Delta: dn, Tie: crowdmax.HashTie{Seed: s + 2 + uint64(k)}}),
			}
		}
		if j.pool, err = crowdmax.NewWorkerPool(workers, s); err != nil {
			return nil, err
		}
		cfg.NaiveBackend = j.pool
		cfg.Health = crowdmax.HealthConfig{Scorer: crowdmax.ScorerGraph, DisagreeEvery: 2, Seed: s}
	}
	if j.sess, err = crowdmax.NewSession(cfg); err != nil {
		return nil, err
	}
	return j, nil
}

// checkLib validates a library result and extracts its outcome.
func checkLib(rec *jobRec, w crowdmax.Workload, res crowdmax.Result, err error) {
	rec.out = outcome{best: res.Best.ID, naive: res.NaiveComparisons, expert: res.ExpertComparisons, cost: res.Cost}
	for _, r := range res.Ranked {
		rec.out.ranked = append(rec.out.ranked, r.Item.ID)
	}
	if err != nil {
		rec.err = err
		return
	}
	wantRanks := 0
	if w.Kind() == crowdmax.TopKKind {
		wantRanks = libTopK
	}
	if len(res.Ranked) != wantRanks {
		rec.err = fmt.Errorf("%w: %d ranks, want %d", errDishonest, len(res.Ranked), wantRanks)
	} else {
		rec.err = honest(res.Rung, string(res.Guarantee))
	}
	for _, r := range res.Ranked {
		if rec.err == nil {
			rec.err = honest(r.Rung, string(r.Guarantee))
		}
	}
	rec.dishonest = errors.Is(rec.err, errDishonest)
}

// runLib drives lib-mixed: a closed loop of goroutines calling Session.Run
// in-process, each taking the next job index once its previous job
// returned.
func runLib(ctx context.Context, w workload, seed uint64, clk *clock, end int64, minJobs int) ([]*jobRec, error) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []*jobRec
		wg   sync.WaitGroup
	)
	errs := make(chan error, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.now() < end || next.Load() < int64(minJobs) {
				i := int(next.Add(1) - 1)
				rec := &jobRec{idx: i, mode: jobMode(w, i), id: fmt.Sprintf("lib-%d", i)}
				j, err := newLibJob(w, seed, i, true, func(phase string) {
					switch phase {
					case "start":
						rec.phase[phaseStart] = clk.now()
					case "phase1":
						rec.phase[phase1] = clk.now()
					case "done":
						rec.phase[phaseDone] = clk.now()
					}
				})
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				rec.due = clk.now()
				res, err := j.sess.Run(ctx, j.w, j.items)
				rec.end = clk.now()
				checkLib(rec, j.w, res, err)
				if j.pool != nil {
					for _, sc := range j.pool.Scorecards() {
						rec.dups += sc.Duplicated
					}
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	return recs, errors.Join(collect(errs)...)
}

// memoHitShare replays the top-k jobs among the first prefixJobs with
// memoization off. With deterministic workers the replay asks the same
// comparisons, every one of them paid, so hits = paid without memo − paid
// with it. (Sessions attach no obs scope to their oracles, so the obs memo
// counters stay zero for Session.Run; this measures the same share from
// outside.)
func memoHitShare(ctx context.Context, w workload, seed uint64, recs []*jobRec) (float64, error) {
	var withMemo, without int64
	for _, rec := range recs {
		if rec.idx >= prefixJobs || rec.mode != "topk" || rec.err != nil {
			continue
		}
		j, err := newLibJob(w, seed, rec.idx, false, func(string) {})
		if err != nil {
			return 0, err
		}
		res, err := j.sess.Run(ctx, j.w, j.items)
		if err != nil {
			return 0, fmt.Errorf("memo-off replay of job %d: %w", rec.idx, err)
		}
		withMemo += rec.out.naive + rec.out.expert
		without += res.NaiveComparisons + res.ExpertComparisons
	}
	if without == 0 {
		return 0, nil
	}
	return 1 - float64(withMemo)/float64(without), nil
}

// extractTime times trust.Graph.Extract on a poolSize-worker graph fed obs
// observations (one pool job's duplicates): workers w00..w19 answer pairs in
// a fixed rotation and agree nine times in ten. It returns the median of
// reps extractions.
func extractTime(obs int64, reps int, clk *clock, tr *tracer) time.Duration {
	g := trust.New(trust.Config{Seed: 1})
	for k := int64(0); k < obs; k++ {
		a, b := k%poolSize, (k*7+3)%poolSize
		if a == b {
			b = (b + 1) % poolSize
		}
		g.Observe(fmt.Sprintf("w%02d", a), fmt.Sprintf("w%02d", b), k%10 != 0)
	}
	ds := make([]float64, reps)
	for r := range ds {
		start := clk.now()
		g.Extract()
		end := clk.now()
		tr.add(span{Name: "trust.extract", Start: start, End: end})
		ds[r] = float64(end - start)
	}
	return time.Duration(median(ds))
}
