package dispatch

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

// cliqueBackend models one member of a coordinated ring that defeats gold
// probing: pairs touching the (leaked) training set are answered honestly,
// everything else is inverted. All members answer identically, so the ring
// forms a perfectly-agreeing clique in the agreement graph.
func cliqueBackend() *countingBackend {
	return &countingBackend{cmp: worker.Func(func(a, b item.Item) item.Item {
		if a.ID < 10 || b.ID < 10 { // training/gold IDs are 0..4
			return worker.Truth.Compare(a, b)
		}
		if a.Value < b.Value {
			return a
		}
		return b
	})}
}

// trustPool builds 6 honest workers plus 3 gold-acing clique members.
func trustPool(t *testing.T, seed uint64) *Pool {
	t.Helper()
	var ws []PoolWorker
	for i := 0; i < 6; i++ {
		ws = append(ws, PoolWorker{Name: "honest-" + string(rune('0'+i)), Backend: honestWorker()})
	}
	for i := 0; i < 3; i++ {
		ws = append(ws, PoolWorker{Name: "clique-" + string(rune('0'+i)), Backend: cliqueBackend()})
	}
	p, err := NewPool(ws, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func driveTrust(t *testing.T, p *Pool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphScorerCatchesGoldAcingClique(t *testing.T) {
	gold := GoldFromTraining(training(), 0.25, 0)

	// Arm 1: the historical gold scorer. The ring aces every probe and the
	// raw disagreement ceiling is disabled by default, so it survives.
	goldArm := trustPool(t, 7)
	goldArm.EnableHealth(HealthConfig{Gold: gold, ProbeEvery: 2, DisagreeEvery: 2, Seed: 7})
	driveTrust(t, goldArm, 600)
	for _, c := range goldArm.Scorecards() {
		if c.Quarantined {
			t.Fatalf("gold scorer quarantined %q (%+v) — the clique should ace gold", c.Name, c)
		}
		if c.TrustScore != -1 || c.InCore {
			t.Fatalf("gold scorer produced trust fields for %q: %+v", c.Name, c)
		}
	}
	if ext := goldArm.TrustExtraction(); ext.Scores != nil || ext.Confidence != 0 {
		t.Fatalf("gold scorer produced a trust extraction %+v, want none", ext)
	}

	// Arm 2: the agreement-graph scorer, same crowd, no gold set at all.
	// The ring's internal agreement is perfect but the honest core is
	// bigger; extraction scores the ring at ~0 agreement with the core.
	graphArm := trustPool(t, 7)
	graphArm.EnableHealth(HealthConfig{Scorer: ScorerGraph, DisagreeEvery: 2, Seed: 7})
	driveTrust(t, graphArm, 600)
	if conf := graphArm.TrustExtraction().Confidence; conf < graphVerdictFloor {
		t.Fatalf("graph extraction confidence %v never cleared the verdict floor", conf)
	}
	ext := graphArm.TrustExtraction()
	for _, c := range graphArm.Scorecards() {
		isClique := c.Name[0] == 'c'
		if isClique {
			if !c.Quarantined {
				t.Fatalf("graph scorer kept clique member %q: %+v (ext %+v)", c.Name, c, ext)
			}
			if c.Reason != "graph" {
				t.Fatalf("clique member %q quarantined for %q, want \"graph\"", c.Name, c.Reason)
			}
			if c.InCore {
				t.Fatalf("clique member %q in the extracted core", c.Name)
			}
		} else {
			if c.Quarantined {
				t.Fatalf("graph scorer quarantined honest %q: %+v", c.Name, c)
			}
			if !c.InCore {
				t.Fatalf("honest %q outside the extracted core (ext %+v)", c.Name, ext)
			}
		}
	}

	// Arm 3: hybrid — graph verdicts land with a gold set present too.
	hybrid := trustPool(t, 7)
	hybrid.EnableHealth(HealthConfig{
		Scorer: ScorerHybrid, Gold: gold, ProbeEvery: 2, DisagreeEvery: 2, Seed: 7,
	})
	driveTrust(t, hybrid, 600)
	var caught int
	for _, c := range hybrid.Scorecards() {
		if c.Name[0] == 'c' && c.Quarantined {
			caught++
			if c.Reason != "graph" {
				t.Fatalf("hybrid caught %q via %q, want \"graph\" (gold was aced)", c.Name, c.Reason)
			}
		}
	}
	if caught != 3 {
		t.Fatalf("hybrid caught %d/3 clique members", caught)
	}
}

func TestScorecardReasonNamesDetector(t *testing.T) {
	// Gold failer → reason "gold".
	p, err := NewPool([]PoolWorker{
		{Name: "honest-0", Backend: honestWorker()},
		{Name: "honest-1", Backend: honestWorker()},
		{Name: "bad", Backend: alwaysWrong()},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableHealth(HealthConfig{Gold: GoldFromTraining(training(), 0.25, 0), ProbeEvery: 2, Seed: 7})
	for i := 0; i < 200; i++ {
		if _, err := p.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range p.Scorecards() {
		if c.Name == "bad" && (!c.Quarantined || c.Reason != "gold") {
			t.Fatalf("gold failer: %+v, want quarantined with reason \"gold\"", c)
		}
		if c.Name != "bad" && c.Reason != "" {
			t.Fatalf("healthy worker carries reason %q", c.Reason)
		}
	}

	// Disagreement failer → reason "disagree".
	p2, err := NewPool([]PoolWorker{
		{Name: "honest-0", Backend: honestWorker()},
		{Name: "honest-1", Backend: honestWorker()},
		{Name: "honest-2", Backend: honestWorker()},
		{Name: "bad", Backend: alwaysWrong()},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	p2.EnableHealth(HealthConfig{DisagreeEvery: 1, MaxDisagree: 0.75, MinProbes: 4, Seed: 11})
	for i := 0; i < 300; i++ {
		if _, err := p2.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range p2.Scorecards() {
		if c.Name == "bad" && (!c.Quarantined || c.Reason != "disagree") {
			t.Fatalf("disagreement failer: %+v, want quarantined with reason \"disagree\"", c)
		}
	}
}

func TestReinstateForgetsGraphEdges(t *testing.T) {
	p := trustPool(t, 7)
	p.EnableHealth(HealthConfig{
		Scorer: ScorerGraph, DisagreeEvery: 2, ReprobeAfter: 1 << 30, Seed: 7,
	})
	driveTrust(t, p, 600)
	p.mu.Lock()
	var evicted *poolWorker
	for _, w := range p.workers {
		if w.quarantined {
			evicted = w
			break
		}
	}
	if evicted == nil {
		p.mu.Unlock()
		t.Fatal("no worker was quarantined")
	}
	if evicted.reason != "graph" {
		p.mu.Unlock()
		t.Fatalf("evicted for %q, want \"graph\"", evicted.reason)
	}
	before := p.graph.Samples()
	// Force the probation clock past the threshold and run one half-open
	// sweep: the worker returns with a clean scorecard AND a clean slate in
	// the agreement graph — no stale grudge can instantly re-condemn it.
	evicted.satOut = p.cfg.ReprobeAfter
	p.reinstateLocked()
	if evicted.quarantined || evicted.reason != "" {
		p.mu.Unlock()
		t.Fatalf("worker not reinstated: quarantined=%v reason=%q", evicted.quarantined, evicted.reason)
	}
	if _, ok := p.ext.Scores[evicted.Name]; ok {
		p.mu.Unlock()
		t.Fatalf("reinstated worker %q still carries an extraction score", evicted.Name)
	}
	after := p.graph.Samples()
	p.mu.Unlock()
	if after >= before {
		t.Fatalf("graph samples %d → %d after Forget, want a drop", before, after)
	}
	if p.Reinstates() != 1 {
		t.Fatalf("reinstates = %d, want 1", p.Reinstates())
	}
}

// TestHalfOpenBreakerConcurrentReprobe hammers a pool whose breaker is
// half-open (quarantine → sit out → reinstate → re-quarantine) from many
// goroutines at once, then checks the breaker's invariants held. Run under
// -race in both GOMAXPROCS legs, this pins the quarantine/reinstatement
// cycle as race-free; the sequential replay at the end pins it as
// deterministic.
func TestHalfOpenBreakerConcurrentReprobe(t *testing.T) {
	build := func() *Pool {
		p, err := NewPool([]PoolWorker{
			{Name: "honest-0", Backend: honestWorker()},
			{Name: "honest-1", Backend: honestWorker()},
			{Name: "sick", Backend: alwaysWrong()},
		}, 7)
		if err != nil {
			t.Fatal(err)
		}
		p.EnableHealth(HealthConfig{
			Gold: GoldFromTraining(training(), 0.25, 0), ProbeEvery: 2,
			DisagreeEvery: 2, ReprobeAfter: 10, Seed: 7,
		})
		return p
	}

	p := build()
	const goroutines, each = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := p.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Breaker invariants under concurrency: the active count matches the
	// scorecards, never dips below MinActive, and every reinstatement was
	// preceded by an eviction.
	cards := p.Scorecards()
	var active int
	for _, c := range cards {
		if !c.Quarantined {
			active++
			if c.Reason != "" {
				t.Fatalf("active worker %q carries reason %q", c.Name, c.Reason)
			}
		}
	}
	if got := p.ActiveWorkers(); got != active {
		t.Fatalf("ActiveWorkers=%d but %d scorecards are active", got, active)
	}
	if active < 1 || active > len(cards) {
		t.Fatalf("active=%d out of range [1, %d]", active, len(cards))
	}
	if p.Reinstates() > p.Evictions() {
		t.Fatalf("reinstates %d > evictions %d", p.Reinstates(), p.Evictions())
	}
	if p.Evictions() == 0 || p.Reinstates() == 0 {
		t.Fatalf("breaker never cycled: evictions=%d reinstates=%d", p.Evictions(), p.Reinstates())
	}

	// Sequential replay: the same decision stream driven single-threaded is
	// a pure function of the seed — two runs agree card for card.
	replay := func() ([]Scorecard, int64, int64) {
		rp := build()
		for i := 0; i < goroutines*each; i++ {
			if _, err := rp.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
				t.Fatal(err)
			}
		}
		return rp.Scorecards(), rp.Evictions(), rp.Reinstates()
	}
	c1, e1, r1 := replay()
	c2, e2, r2 := replay()
	if !reflect.DeepEqual(c1, c2) || e1 != e2 || r1 != r2 {
		t.Fatalf("sequential replay diverged:\n%+v e=%d r=%d\n%+v e=%d r=%d", c1, e1, r1, c2, e2, r2)
	}
}

// TestTrustExtractionDoesNotAlias: the pool refills its extraction in place,
// so the copy TrustExtraction hands out must own its Core and Scores — later
// duplicates that trigger further extractions must not change it.
func TestTrustExtractionDoesNotAlias(t *testing.T) {
	p := trustPool(t, 7)
	p.EnableHealth(HealthConfig{Scorer: ScorerGraph, DisagreeEvery: 2, Seed: 7})
	driveTrust(t, p, 40) // 20 duplicates: one extraction
	early := p.TrustExtraction()
	if len(early.Core) == 0 || len(early.Scores) == 0 {
		t.Fatalf("no extraction after 40 answers: %+v", early)
	}
	want := early
	want.Core = slices.Clone(early.Core)
	want.Scores = maps.Clone(early.Scores)

	driveTrust(t, p, 600)
	late := p.TrustExtraction()
	if reflect.DeepEqual(late, want) {
		t.Fatalf("extraction never changed (%+v): the check below would prove nothing", late)
	}
	if !reflect.DeepEqual(early, want) {
		t.Fatalf("an earlier TrustExtraction changed under later extractions:\n got %+v\nwant %+v", early, want)
	}
}

// TestTrustExtractionConcurrentReaders reads TrustExtraction and Scorecards,
// walking every copied Core entry and score, while Answer goroutines keep
// extracting in place. Under -race (both GOMAXPROCS legs) a copy that
// aliased the pool's storage is a reported race.
func TestTrustExtractionConcurrentReaders(t *testing.T) {
	p := trustPool(t, 7)
	p.EnableHealth(HealthConfig{Scorer: ScorerGraph, DisagreeEvery: 2, Seed: 7})
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				if _, err := p.Answer(context.Background(), req(it(10, 1), it(11, 2))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var seen atomic.Int64
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				ext := p.TrustExtraction()
				var sum float64
				for _, name := range ext.Core {
					sum += ext.Scores[name]
				}
				for _, c := range p.Scorecards() {
					sum += c.TrustScore
				}
				if sum != 0 {
					seen.Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if seen.Load() == 0 {
		t.Fatal("readers never saw an extraction")
	}
}
