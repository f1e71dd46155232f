package dispatch

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/rng"
	"crowdmax/internal/trust"
	"crowdmax/internal/worker"
)

// ScorerMode selects which detector feeds the quarantine circuit breaker.
type ScorerMode string

const (
	// ScorerGold is the historical detector (and the zero value): gold-set
	// probe accuracy plus the raw disagreement rate.
	ScorerGold ScorerMode = "gold"
	// ScorerGraph is the gold-free detector: workers are scored by pooled
	// agreement with the dense core extracted from the worker agreement
	// graph (internal/trust), built from the same disagreement-sampling
	// duplicates the pool already pays for. Catches coordinated cliques
	// that answer gold honestly; needs no gold set at all.
	ScorerGraph ScorerMode = "graph"
	// ScorerHybrid runs both detectors; either may condemn a worker.
	ScorerHybrid ScorerMode = "hybrid"
)

// graphVerdictFloor is the minimum extraction confidence at which graph
// verdicts are applied: below it the graph is too thin (or the core too
// contested) to evict anyone.
const graphVerdictFloor = 0.5

// GoldPair is one comparison with a known correct answer, used to probe
// worker reliability. Algorithm 4's training set is the natural source: it
// compares each training element against the known training maximum, so any
// pair (x, max) with d(x, max) above the naïve threshold is a question an
// honest worker must answer correctly.
type GoldPair struct {
	// A and B are the probe elements.
	A, B item.Item
	// WinnerID is the ID of the known correct answer.
	WinnerID int
}

// GoldFromTraining builds gold probes Algorithm-4 style from a training set
// with known maximum: every element whose distance from the maximum exceeds
// minGap yields one (element, max) probe, up to max pairs (0 = unlimited).
// minGap should be at least the naïve threshold δn, so the threshold model
// obliges honest workers to answer every probe correctly.
func GoldFromTraining(training []item.Item, minGap float64, max int) []GoldPair {
	best := 0
	for i := 1; i < len(training); i++ {
		if training[i].Value > training[best].Value {
			best = i
		}
	}
	var gold []GoldPair
	for i, x := range training {
		if i == best || item.Distance(x, training[best]) <= minGap {
			continue
		}
		gold = append(gold, GoldPair{A: x, B: training[best], WinnerID: training[best].ID})
		if max > 0 && len(gold) >= max {
			break
		}
	}
	return gold
}

// HealthConfig configures per-worker health tracking on a Pool: gold-set
// probing, disagreement sampling, and the quarantine circuit breaker. The
// zero value (no gold set, all thresholds zero) disables tracking.
type HealthConfig struct {
	// Gold is the probe set; empty disables gold probing.
	Gold []GoldPair
	// Floor is the minimum gold accuracy a worker must sustain; workers
	// below it (after MinProbes probes) are quarantined. Defaults to 0.7,
	// the industry-standard gold floor the paper's platform section cites.
	Floor float64
	// MinProbes is the number of gold answers required before the floor is
	// enforced, so one unlucky probe cannot evict an honest worker.
	// Defaults to 4.
	MinProbes int
	// ProbeEvery issues one gold probe per worker every N routed requests.
	// Defaults to 8.
	ProbeEvery int
	// DisagreeEvery, when > 0, duplicates every Nth request to a second
	// worker and records disagreement between the two answers.
	DisagreeEvery int
	// MaxDisagree quarantines a worker whose disagreement rate (after
	// MinProbes duplicated answers) exceeds it. Defaults to 1 (disabled)
	// because under-threshold pairs legitimately disagree.
	MaxDisagree float64
	// MinActive is the number of workers the pool refuses to go below, no
	// matter how sick they look — somebody has to answer. Defaults to 1.
	MinActive int
	// HedgeAfter, when > 0, wraps the session's backends in a Hedge
	// decorator with this delay (consumed by Session, not Pool).
	HedgeAfter time.Duration
	// ReprobeAfter, when > 0, makes the quarantine half-open: an evicted
	// worker sits out that many routing decisions and is then reinstated
	// with a clean scorecard, getting a fresh chance to prove itself (and
	// getting re-quarantined if still sick). 0 keeps quarantine permanent.
	ReprobeAfter int
	// Scorer selects the detector feeding the breaker: ScorerGold (the
	// zero value, historical behaviour), ScorerGraph (gold-free agreement-
	// graph extraction), or ScorerHybrid (both). The graph scorers condemn
	// a worker whose pooled agreement with the extracted core falls below
	// Floor, once the extraction's confidence clears the verdict floor.
	Scorer ScorerMode
	// Trust parameterizes the agreement-graph extractor behind ScorerGraph
	// and ScorerHybrid; the zero value gets trust.Config's defaults, with
	// the seed falling back to Seed.
	Trust trust.Config
	// Seed seeds probe selection.
	Seed uint64
}

// IsZero reports whether the config enables nothing.
func (c HealthConfig) IsZero() bool {
	return len(c.Gold) == 0 && c.Floor == 0 && c.MinProbes == 0 && c.ProbeEvery == 0 &&
		c.DisagreeEvery == 0 && c.MaxDisagree == 0 && c.MinActive == 0 &&
		c.HedgeAfter == 0 && c.ReprobeAfter == 0 && c.Seed == 0 &&
		(c.Scorer == "" || c.Scorer == ScorerGold)
}

// graphScorer reports whether the config runs the agreement-graph detector.
func (c HealthConfig) graphScorer() bool {
	return c.Scorer == ScorerGraph || c.Scorer == ScorerHybrid
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Floor <= 0 {
		c.Floor = 0.7
	}
	if c.MinProbes <= 0 {
		c.MinProbes = 4
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	if c.MaxDisagree <= 0 {
		c.MaxDisagree = 1
	}
	if c.MinActive <= 0 {
		c.MinActive = 1
	}
	if c.Scorer == "" {
		c.Scorer = ScorerGold
	}
	if c.graphScorer() {
		// The graph is fed by disagreement-sampling duplicates; a graph
		// scorer without sampling would never observe anything.
		if c.DisagreeEvery <= 0 {
			c.DisagreeEvery = 8
		}
		if c.Trust.Seed == 0 {
			c.Trust.Seed = c.Seed
		}
	}
	return c
}

// PoolWorker is one named worker backend in a Pool.
type PoolWorker struct {
	// Name identifies the worker in scorecards.
	Name string
	// Backend answers the worker's comparisons.
	Backend Backend
}

// Scorecard is a point-in-time copy of one worker's health counters.
type Scorecard struct {
	// Name is the worker's name.
	Name string
	// Answered counts requests routed to the worker (excluding probes).
	Answered int64
	// GoldProbes and GoldCorrect count gold probes issued and passed.
	GoldProbes, GoldCorrect int64
	// Duplicated and Disagreed count disagreement samples and mismatches.
	Duplicated, Disagreed int64
	// Quarantined reports whether the circuit breaker evicted the worker.
	Quarantined bool
	// Reason names the detector that quarantined the worker ("gold",
	// "disagree", or "graph"); "" while not quarantined.
	Reason string
	// TrustScore is the worker's pooled agreement rate with the extracted
	// core from the latest graph extraction, or -1 when no graph scorer
	// runs (or the worker has too few samples for a score yet).
	TrustScore float64
	// InCore reports whether the latest extraction placed the worker in the
	// dense core. Always false without a graph scorer.
	InCore bool
}

// GoldAccuracy returns the worker's gold pass rate (1 with no probes yet).
func (s Scorecard) GoldAccuracy() float64 {
	if s.GoldProbes == 0 {
		return 1
	}
	return float64(s.GoldCorrect) / float64(s.GoldProbes)
}

// poolWorker is a Pool's mutable per-worker record; all fields are guarded
// by the pool mutex.
type poolWorker struct {
	PoolWorker
	answered    int64
	goldN       int64
	goldOK      int64
	dupN        int64
	disagree    int64
	sinceProbe  int
	quarantined bool
	// reason names the detector that quarantined the worker; "" when not
	// quarantined.
	reason string
	// satOut counts routing decisions this worker has sat out while
	// quarantined, toward the half-open ReprobeAfter threshold.
	satOut int
}

// Pool multiplexes comparison requests across a set of named worker
// backends with seeded routing — the crowd made explicit. With health
// tracking enabled (EnableHealth) it maintains a per-worker scorecard fed by
// gold-set probes and disagreement sampling, and a circuit breaker
// quarantines any worker whose gold accuracy falls below the reliability
// floor, never reducing the pool below MinActive workers. Safe for
// concurrent use; routing decisions are serialized under one mutex while
// the backend calls themselves run outside it.
type Pool struct {
	mu      sync.Mutex
	workers []*poolWorker
	active  int
	r       *rng.Source

	health     bool
	cfg        HealthConfig
	evictions  int64
	reinstates int64

	// graph is the agreement graph behind the graph/hybrid scorers (nil
	// under ScorerGold); ext is its latest extraction, refilled in place,
	// and sinceExtract the observations accumulated since, toward
	// Trust.ExtractEvery.
	graph        *trust.Graph
	ext          trust.Extraction
	sinceExtract int
}

// NewPool builds a pool over the given workers with seeded routing.
func NewPool(workers []PoolWorker, seed uint64) (*Pool, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dispatch: pool needs at least one worker")
	}
	p := &Pool{r: rng.New(seed).Child("pool-route"), active: len(workers)}
	for i, w := range workers {
		if w.Backend == nil {
			return nil, fmt.Errorf("dispatch: pool worker %d (%q) has no backend", i, w.Name)
		}
		if w.Name == "" {
			w.Name = fmt.Sprintf("worker-%d", i)
		}
		p.workers = append(p.workers, &poolWorker{PoolWorker: w})
	}
	return p, nil
}

// EnableHealth turns on health tracking per cfg (defaults applied).
func (p *Pool) EnableHealth(cfg HealthConfig) {
	p.mu.Lock()
	p.cfg = cfg.withDefaults()
	p.health = true
	if p.cfg.graphScorer() {
		p.graph = trust.New(p.cfg.Trust)
		p.cfg.Trust = p.graph.Config() // trust defaults (ExtractEvery &c.)
	}
	p.mu.Unlock()
}

// Answer implements Backend: route to a seeded-random active worker,
// interleave gold probes and disagreement samples per the health config, and
// quarantine workers the scorecard condemns.
func (p *Pool) Answer(ctx context.Context, req Request) (Answer, error) {
	w, probe := p.route()
	if probe != nil {
		p.runProbe(ctx, w, probe, req.Class)
		// The probe may have quarantined w; route the real request again.
		if p.isQuarantined(w) {
			w, _ = p.route()
		}
	}
	ans, err := w.Backend.Answer(ctx, req)
	if err != nil {
		return Answer{}, err
	}
	p.mu.Lock()
	w.answered++
	dup := p.health && p.cfg.DisagreeEvery > 0 && w.answered%int64(p.cfg.DisagreeEvery) == 0 && p.active > 1
	p.mu.Unlock()
	if dup {
		p.sampleDisagreement(ctx, w, req, ans)
	}
	return ans, nil
}

// route picks an active worker under the pool lock and decides whether it is
// due a gold probe.
func (p *Pool) route() (*poolWorker, *GoldPair) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reinstateLocked()
	w := p.pickLocked(nil)
	var probe *GoldPair
	if p.health && len(p.cfg.Gold) > 0 {
		w.sinceProbe++
		if w.sinceProbe >= p.cfg.ProbeEvery {
			w.sinceProbe = 0
			probe = &p.cfg.Gold[p.r.Intn(len(p.cfg.Gold))]
		}
	}
	return w, probe
}

// pickLocked returns a seeded-random non-quarantined worker, excluding skip
// (the disagreement counterpart must differ from the original answerer).
// Callers hold p.mu and guarantee at least one eligible worker exists.
func (p *Pool) pickLocked(skip *poolWorker) *poolWorker {
	eligible := p.active
	if skip != nil && !skip.quarantined {
		eligible--
	}
	k := p.r.Intn(eligible)
	for _, w := range p.workers {
		if w.quarantined || w == skip {
			continue
		}
		if k == 0 {
			return w
		}
		k--
	}
	// Unreachable while the active counter is consistent.
	panic("dispatch: pool has no eligible worker")
}

// runProbe issues one gold probe to w and updates its scorecard; probe
// transport errors are ignored (an unreachable worker is a transport
// problem, not dishonesty — the caller's real request will surface it).
func (p *Pool) runProbe(ctx context.Context, w *poolWorker, g *GoldPair, class worker.Class) {
	ans, err := w.Backend.Answer(ctx, Request{A: g.A, B: g.B, Class: class})
	if err != nil {
		return
	}
	correct := ans.Winner.ID == g.WinnerID
	if m := obs.Active(); m != nil {
		m.GoldProbe(correct)
	}
	p.mu.Lock()
	w.goldN++
	if correct {
		w.goldOK++
	}
	p.maybeQuarantineLocked(w)
	p.mu.Unlock()
}

// sampleDisagreement duplicates req to a second worker and records whether
// the two answers disagree. Both workers' duplicate counters advance, but
// only the original answerer's disagreement is charged — the sampler cannot
// tell who is wrong, and symmetric charging would let one spammer poison
// every honest worker's rate.
func (p *Pool) sampleDisagreement(ctx context.Context, w *poolWorker, req Request, ans Answer) {
	p.mu.Lock()
	other := p.pickLocked(w)
	p.mu.Unlock()
	if other == w {
		return
	}
	dupAns, err := other.Backend.Answer(ctx, req)
	if err != nil {
		return
	}
	agreed := dupAns.Winner.ID == ans.Winner.ID
	p.mu.Lock()
	w.dupN++
	if !agreed {
		w.disagree++
	}
	if p.graph != nil {
		// The duplicate the pool already paid for doubles as one agreement
		// observation between the two workers — the graph scorer's entire
		// input. Extractions run every Trust.ExtractEvery observations and
		// sweep the whole pool, so a condemning core change lands at once.
		p.graph.Observe(w.Name, other.Name, agreed)
		p.sinceExtract++
		if p.sinceExtract >= p.cfg.Trust.ExtractEvery {
			p.sinceExtract = 0
			p.graph.ExtractInto(&p.ext)
			for _, ww := range p.workers {
				p.maybeQuarantineLocked(ww)
			}
		}
	}
	p.maybeQuarantineLocked(w)
	p.mu.Unlock()
}

// maybeQuarantineLocked applies the circuit breaker to w; callers hold p.mu.
// Which detectors run depends on the configured Scorer; the first detector
// to condemn names the quarantine reason.
func (p *Pool) maybeQuarantineLocked(w *poolWorker) {
	if !p.health || w.quarantined || p.active <= p.cfg.MinActive {
		return
	}
	reason := ""
	if p.cfg.Scorer != ScorerGraph {
		if w.goldN >= int64(p.cfg.MinProbes) &&
			float64(w.goldOK)/float64(w.goldN) < p.cfg.Floor {
			reason = "gold"
		} else if w.dupN >= int64(p.cfg.MinProbes) &&
			float64(w.disagree)/float64(w.dupN) > p.cfg.MaxDisagree {
			reason = "disagree"
		}
	}
	if reason == "" && p.graphCondemnsLocked(w) {
		reason = "graph"
	}
	if reason == "" {
		return
	}
	w.quarantined = true
	w.reason = reason
	w.satOut = 0
	p.active--
	p.evictions++
	if m := obs.Active(); m != nil {
		m.Quarantine(reason)
	}
}

// graphCondemnsLocked reports the agreement-graph verdict on w: condemned
// when the latest extraction is confident enough to stand behind and w's
// pooled agreement with the core falls below the reliability floor. Workers
// without a score yet (too few samples) get no verdict. Callers hold p.mu.
func (p *Pool) graphCondemnsLocked(w *poolWorker) bool {
	if p.graph == nil || p.ext.Confidence < graphVerdictFloor {
		return false
	}
	score, ok := p.ext.Scores[w.Name]
	return ok && score < p.cfg.Floor
}

// reinstateLocked advances every quarantined worker's probation clock by one
// routing decision and returns those past ReprobeAfter to rotation with a
// clean scorecard — the half-open state of the circuit breaker. Callers hold
// p.mu. Disabled while ReprobeAfter is 0.
func (p *Pool) reinstateLocked() {
	if !p.health || p.cfg.ReprobeAfter <= 0 {
		return
	}
	for _, w := range p.workers {
		if !w.quarantined {
			continue
		}
		w.satOut++
		if w.satOut < p.cfg.ReprobeAfter {
			continue
		}
		reason := w.reason
		w.quarantined = false
		w.reason = ""
		w.goldN, w.goldOK, w.dupN, w.disagree = 0, 0, 0, 0
		w.sinceProbe, w.satOut = 0, 0
		if p.graph != nil {
			// The clean scorecard extends to the graph: the worker's edges
			// are forgotten and its stale extraction score dropped, so the
			// grudge that evicted it cannot instantly re-condemn — it must
			// re-earn (or re-lose) its trust from fresh duplicates.
			p.graph.Forget(w.Name)
			delete(p.ext.Scores, w.Name)
		}
		p.active++
		p.reinstates++
		if m := obs.Active(); m != nil {
			m.Reinstate(reason)
		}
	}
}

// isQuarantined reports w's circuit-breaker state.
func (p *Pool) isQuarantined(w *poolWorker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return w.quarantined
}

// Scorecards returns a copy of every worker's health counters, in pool
// order.
func (p *Pool) Scorecards() []Scorecard {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Scorecard, len(p.workers))
	for i, w := range p.workers {
		out[i] = Scorecard{
			Name: w.Name, Answered: w.answered,
			GoldProbes: w.goldN, GoldCorrect: w.goldOK,
			Duplicated: w.dupN, Disagreed: w.disagree,
			Quarantined: w.quarantined, Reason: w.reason,
			TrustScore: -1,
		}
		if p.graph != nil {
			if score, ok := p.ext.Scores[w.Name]; ok {
				out[i].TrustScore = score
			}
			out[i].InCore = p.ext.InCore(w.Name)
		}
	}
	return out
}

// TrustExtraction returns a copy of the latest agreement-graph extraction
// (the zero Extraction before the first one, or when no graph scorer runs).
// Core and Scores are cloned: the pool refills its own extraction in place,
// so the copy stays as it was when later duplicates trigger extractions.
func (p *Pool) TrustExtraction() trust.Extraction {
	p.mu.Lock()
	defer p.mu.Unlock()
	ext := p.ext
	ext.Core = slices.Clone(ext.Core)
	ext.Scores = maps.Clone(ext.Scores)
	return ext
}

// Evictions returns the number of workers quarantined so far.
func (p *Pool) Evictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// Reinstates returns the number of quarantined workers returned to rotation
// by the half-open circuit breaker.
func (p *Pool) Reinstates() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reinstates
}

// ActiveWorkers returns the number of non-quarantined workers.
func (p *Pool) ActiveWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Hedge duplicates slow in-flight requests: if the inner backend has not
// answered within the configured delay, a second identical request is
// launched and the first *successful* answer wins (both errors surface the
// first error). Hedging trades extra spend on the platform's slow tail for
// latency — the classic tail-at-scale defense.
//
// Unlike everything else in this package, hedging is wall-clock-driven and
// therefore NOT deterministic: which copy wins depends on real scheduling.
// Keep it out of runs that must replay bit-identically (checkpointed runs
// with simulated backends don't need it; real-platform runs do).
type Hedge struct {
	inner Backend
	delay time.Duration
}

// NewHedge wraps inner so requests still unanswered after delay are
// duplicated.
func NewHedge(inner Backend, delay time.Duration) *Hedge {
	return &Hedge{inner: inner, delay: delay}
}

// Answer implements Backend.
func (h *Hedge) Answer(ctx context.Context, req Request) (Answer, error) {
	type result struct {
		ans    Answer
		err    error
		hedged bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	launch := func(hedged bool) {
		go func() {
			ans, err := h.inner.Answer(hctx, req)
			ch <- result{ans: ans, err: err, hedged: hedged}
		}()
	}
	launch(false)
	t := time.NewTimer(h.delay)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.ans, r.err
	case <-ctx.Done():
		return Answer{}, ctx.Err()
	case <-t.C:
	}
	launch(true)
	var firstErr error
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.err == nil {
				if m := obs.Active(); m != nil {
					m.Hedge(r.hedged)
				}
				return r.ans, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-ctx.Done():
			return Answer{}, ctx.Err()
		}
	}
	if m := obs.Active(); m != nil {
		m.Hedge(false)
	}
	return Answer{}, firstErr
}
