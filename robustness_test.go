package crowdmax

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
)

// statelessSession builds a session over deterministic, order-independent
// workers (ε = 0, HashTie) — the configuration under which checkpoint/resume
// promises bit-identical results.
func statelessSession(t *testing.T, cal dataset.Calibrated, seed uint64, mutate func(*Config)) *Session {
	t.Helper()
	cfg := Config{
		Naive:  &ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: seed}},
		Expert: &ThresholdWorker{Delta: cal.DeltaE, Tie: HashTie{Seed: seed + 1}},
		Un:     cal.Un,
		Prices: Prices{Naive: 1, Expert: 50},
		Rand:   NewRand(seed),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(33))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 77

	// Uninterrupted baseline (checkpointing on, to prove the decorator
	// itself does not perturb the run).
	baseDir := t.TempDir()
	base := statelessSession(t, cal, seed, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: filepath.Join(baseDir, "base.ck"), Every: 64}
	})
	want, err := base.FindMax(items)
	if err != nil {
		t.Fatal(err)
	}
	if d := item.Distance(cal.Set.Max(), want.Best); d > 2*cal.DeltaE {
		t.Fatalf("baseline answer is %g from the max, want ≤ 2δe = %g", d, 2*cal.DeltaE)
	}

	for _, crashAfter := range []int64{50, 333, 1000, 2500} {
		t.Run(fmt.Sprintf("crash-after-%d", crashAfter), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ck")
			crashed := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
				c.Chaos = &ChaosPlan{CrashAfter: crashAfter}
			})
			_, err := crashed.FindMax(items)
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
			}
			if !errors.Is(err, ErrPermanentBackend) {
				t.Fatalf("crash error %v does not wrap ErrPermanentBackend", err)
			}

			resumed := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
			})
			got, err := resumed.ResumeWorkload(context.Background(), MaxFind(), path, items)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if got.Best.ID != want.Best.ID {
				t.Fatalf("resumed best = %d, uninterrupted best = %d", got.Best.ID, want.Best.ID)
			}
			if got.NaiveComparisons != want.NaiveComparisons ||
				got.ExpertComparisons != want.ExpertComparisons ||
				got.Cost != want.Cost {
				t.Fatalf("resumed totals (%d naive, %d expert, cost %g) differ from uninterrupted (%d, %d, %g)",
					got.NaiveComparisons, got.ExpertComparisons, got.Cost,
					want.NaiveComparisons, want.ExpertComparisons, want.Cost)
			}
			if len(got.Candidates) != len(want.Candidates) {
				t.Fatalf("resumed candidate set size %d, want %d", len(got.Candidates), len(want.Candidates))
			}
			for i := range got.Candidates {
				if got.Candidates[i].ID != want.Candidates[i].ID {
					t.Fatalf("candidate %d: resumed %d, uninterrupted %d",
						i, got.Candidates[i].ID, want.Candidates[i].ID)
				}
			}
		})
	}
}

func TestResumeRejectsMismatchedFingerprint(t *testing.T) {
	cal, err := dataset.UniformCalibrated(120, 5, 2, NewRand(34))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	path := filepath.Join(t.TempDir(), "run.ck")
	s := statelessSession(t, cal, 5, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 32}
	})
	if _, err := s.FindMax(items); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
		items  []Item
	}{
		{name: "different-un", mutate: func(c *Config) { c.Un++ }, items: items},
		{name: "different-seed", mutate: func(c *Config) { c.Rand = NewRand(999) }, items: items},
		{name: "different-items", mutate: nil, items: items[:len(items)-1]},
		{name: "memoization-off", mutate: func(c *Config) { c.DisableMemoization = true }, items: items},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := statelessSession(t, cal, 5, func(c *Config) {
				if tc.mutate != nil {
					tc.mutate(c)
				}
			})
			if _, err := other.ResumeWorkload(context.Background(), MaxFind(), path, tc.items); err == nil {
				t.Fatal("ResumeWorkload accepted a mismatched checkpoint")
			}
		})
	}

	// Snapshots of configurations no session can run any more — another
	// phase-2 algorithm, loss tracking — are refused by name.
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []struct {
		name, field string
		mutate      func(*checkpoint.State)
	}{
		{name: "different-phase2", field: "phase2", mutate: func(st *checkpoint.State) { st.Phase2 = 2 }},
		{name: "different-track-losses", field: "TrackLosses", mutate: func(st *checkpoint.State) { st.TrackLosses = true }},
	} {
		t.Run(retired.name, func(t *testing.T) {
			old := *st
			retired.mutate(&old)
			oldPath := filepath.Join(t.TempDir(), "old.ck")
			if err := os.WriteFile(oldPath, checkpoint.Encode(&old), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := statelessSession(t, cal, 5, nil).ResumeWorkload(context.Background(), MaxFind(), oldPath, items)
			if err == nil || !strings.Contains(err.Error(), retired.field) {
				t.Fatalf("ResumeWorkload err = %v, want a refusal naming %s", err, retired.field)
			}
		})
	}
}

func TestResumeRejectsCorruptFile(t *testing.T) {
	cal, err := dataset.UniformCalibrated(60, 4, 2, NewRand(35))
	if err != nil {
		t.Fatal(err)
	}
	s := statelessSession(t, cal, 5, nil)
	path := filepath.Join(t.TempDir(), "garbage.ck")
	if err := os.WriteFile(path, []byte("CMCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResumeWorkload(context.Background(), MaxFind(), path, cal.Set.Items()); err == nil {
		t.Fatal("Resume accepted a corrupt checkpoint file")
	}
}

// dieAfterN answers the first n requests via cmp, then fails every request
// permanently with ErrBackendUnavailable — a platform that went away and
// never came back.
type dieAfterN struct {
	mu    sync.Mutex
	n     int64
	cmp   Comparator
	calls int64
}

func (d *dieAfterN) Answer(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if d.calls > d.n {
		return BackendAnswer{}, fmt.Errorf("platform gone: %w", ErrBackendUnavailable)
	}
	return BackendAnswer{Winner: d.cmp.Compare(req.A, req.B)}, nil
}

func TestBackendDiesMidPhase1(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(36))
	if err != nil {
		t.Fatal(err)
	}
	const survive = 40
	naive := &ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: 9}}
	dying := &dieAfterN{n: survive, cmp: naive}
	s := statelessSession(t, cal, 9, func(c *Config) {
		c.NaiveBackend = dying
	})
	res, err := s.Run(context.Background(), MaxFind(), cal.Set.Items())
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("err = %v, want ErrBackendUnavailable", err)
	}
	// The result must report the true paid spend: exactly the comparisons
	// the backend answered before dying, priced accordingly.
	if res.NaiveComparisons != survive {
		t.Fatalf("paid %d naive comparisons, want %d", res.NaiveComparisons, survive)
	}
	if res.ExpertComparisons != 0 {
		t.Fatalf("phase 2 ran after a phase-1 death: %d expert comparisons", res.ExpertComparisons)
	}
	if want := float64(survive) * 1; res.Cost != want {
		t.Fatalf("cost = %g, want %g", res.Cost, want)
	}
	if res.Best.ID != 0 || res.Best.Value != 0 {
		t.Fatalf("phase-1 death still produced a best item: %+v", res.Best)
	}
}

func TestBackendDiesMidPhase2(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(37))
	if err != nil {
		t.Fatal(err)
	}
	const survive = 3
	expert := &ThresholdWorker{Delta: cal.DeltaE, Tie: HashTie{Seed: 10}}
	dying := &dieAfterN{n: survive, cmp: expert}
	s := statelessSession(t, cal, 9, func(c *Config) {
		c.ExpertBackend = dying
	})
	res, err := s.Run(context.Background(), MaxFind(), cal.Set.Items())
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("err = %v, want ErrBackendUnavailable", err)
	}
	// Phase 1 completed: the partial result carries the full candidate set
	// and the naïve spend, plus exactly the expert comparisons that were
	// answered before the platform died.
	if len(res.Candidates) == 0 {
		t.Fatal("phase-2 death lost the phase-1 candidate set")
	}
	if res.NaiveComparisons == 0 {
		t.Fatal("phase-2 death lost the naïve spend")
	}
	if res.ExpertComparisons != survive {
		t.Fatalf("paid %d expert comparisons, want %d", res.ExpertComparisons, survive)
	}
	if want := float64(res.NaiveComparisons)*1 + float64(survive)*50; res.Cost != want {
		t.Fatalf("cost = %g, want %g", res.Cost, want)
	}
}

func TestCheckpointRequiresMemoization(t *testing.T) {
	cal, err := dataset.UniformCalibrated(60, 4, 2, NewRand(38))
	if err != nil {
		t.Fatal(err)
	}
	s := statelessSession(t, cal, 5, func(c *Config) {
		c.DisableMemoization = true
		c.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ck")}
	})
	if _, err := s.FindMax(cal.Set.Items()); err == nil {
		t.Fatal("checkpointing without memoization was accepted")
	}
}

// degradedOutageSession is statelessSession plus the degrade controller and
// a chaos plan that kills the expert backend for good from paid comparison
// `from` on — the acceptance scenario for graceful degradation.
func degradedOutageSession(t *testing.T, cal dataset.Calibrated, seed uint64, from int64, mutate func(*Config)) *Session {
	t.Helper()
	return statelessSession(t, cal, seed, func(c *Config) {
		plan, err := ParseChaosPlan(fmt.Sprintf("expert-outage:1.0@%d+", from))
		if err != nil {
			t.Fatal(err)
		}
		plan.Seed = seed
		plan.PairHash = true
		c.Chaos = &plan
		c.Degrade = &DegradeConfig{}
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestSessionDegradeExpertOutage(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(35))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	s := degradedOutageSession(t, cal, 91, 40, nil)
	res, err := s.FindMax(items)
	if err != nil {
		t.Fatalf("expert outage was not absorbed: %v", err)
	}
	if res.Rung != "naive-majority" || res.Guarantee != GuaranteeDeltaN {
		t.Fatalf("degraded run reports rung %q (%q), want naive-majority (δn)", res.Rung, res.Guarantee)
	}
	if !res.Phase1Complete {
		t.Fatal("δn label claimed without a completed phase 1")
	}
	found := false
	for _, c := range res.Candidates {
		if c.ID == res.Best.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("majority answer %d is not in the candidate set", res.Best.ID)
	}
	if len(res.Decisions) < 2 {
		t.Fatalf("decision log has %d entries, want the start pick plus at least one downgrade", len(res.Decisions))
	}
	last := res.Decisions[len(res.Decisions)-1]
	if last.To != "naive-majority" || last.Direction() >= 0 {
		t.Fatalf("last decision %+v is not a downgrade to naive-majority", last)
	}
	// Without the controller the same outage is a hard failure (the
	// pre-degrade contract, still the default).
	hard := statelessSession(t, cal, 91, func(c *Config) {
		plan, perr := ParseChaosPlan("expert-outage:1.0@40+")
		if perr != nil {
			t.Fatal(perr)
		}
		plan.Seed = 91
		plan.PairHash = true
		c.Chaos = &plan
	})
	if _, err := hard.FindMax(items); !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("undegraded outage run: err = %v, want ErrBackendUnavailable", err)
	}
}

func TestSessionDegradeCrashResumeSameRung(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(36))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 92

	// Uninterrupted degraded reference run: outage mid-run forces the
	// naive-majority rung.
	refPath := filepath.Join(t.TempDir(), "ref.ck")
	ref := degradedOutageSession(t, cal, seed, 40, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: refPath, Every: 16}
	})
	want, err := ref.FindMax(items)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rung != "naive-majority" {
		t.Fatalf("reference run landed on %q, want naive-majority", want.Rung)
	}
	// The final snapshot carries the achieved rung and the decision-log hash.
	st, err := checkpoint.Load(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rung != "naive-majority" || st.DecisionHash == 0 {
		t.Fatalf("final snapshot carries rung %q hash %#x, want naive-majority and a non-zero hash", st.Rung, st.DecisionHash)
	}

	// Same run, crashed inside the degraded phase 2, then resumed: the
	// replay must land on the same rung with the same answer and costs.
	total := want.NaiveComparisons + want.ExpertComparisons
	path := filepath.Join(t.TempDir(), "run.ck")
	crashed := degradedOutageSession(t, cal, seed, 40, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
		c.Chaos.CrashAfter = total - 5
	})
	if _, err := crashed.FindMax(items); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
	}
	resumed := degradedOutageSession(t, cal, seed, 40, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
	})
	got, err := resumed.ResumeWorkload(context.Background(), MaxFind(), path, items)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got.Rung != want.Rung || got.Guarantee != want.Guarantee {
		t.Fatalf("resumed run landed on %q (%q), reference on %q (%q)",
			got.Rung, got.Guarantee, want.Rung, want.Guarantee)
	}
	if got.Best != want.Best {
		t.Fatalf("resumed best %+v differs from reference %+v", got.Best, want.Best)
	}
	if got.NaiveComparisons != want.NaiveComparisons || got.ExpertComparisons != want.ExpertComparisons {
		t.Fatalf("resumed totals (%d, %d) differ from reference (%d, %d)",
			got.NaiveComparisons, got.ExpertComparisons, want.NaiveComparisons, want.ExpertComparisons)
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("resumed decision log has %d entries, reference %d", len(got.Decisions), len(want.Decisions))
	}
}
