package crowdmax

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/core"
	"crowdmax/internal/dataset"
	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

// resultsEqual compares the engine-visible outcome of two runs: answer,
// paid totals, labels, candidate sets, ranks, and scores.
func resultsEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Best.ID != want.Best.ID {
		t.Fatalf("best = %d, want %d", got.Best.ID, want.Best.ID)
	}
	if got.NaiveComparisons != want.NaiveComparisons ||
		got.ExpertComparisons != want.ExpertComparisons ||
		got.Cost != want.Cost {
		t.Fatalf("totals (%d naive, %d expert, cost %g) differ from (%d, %d, %g)",
			got.NaiveComparisons, got.ExpertComparisons, got.Cost,
			want.NaiveComparisons, want.ExpertComparisons, want.Cost)
	}
	if got.Rung != want.Rung || got.Guarantee != want.Guarantee {
		t.Fatalf("label %s/%s, want %s/%s", got.Rung, got.Guarantee, want.Rung, want.Guarantee)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidate set size %d, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		if got.Candidates[i].ID != want.Candidates[i].ID {
			t.Fatalf("candidate %d: %d, want %d", i, got.Candidates[i].ID, want.Candidates[i].ID)
		}
	}
	if len(got.Ranked) != len(want.Ranked) {
		t.Fatalf("%d ranks, want %d", len(got.Ranked), len(want.Ranked))
	}
	for i := range got.Ranked {
		g, w := got.Ranked[i], want.Ranked[i]
		if g.Item.ID != w.Item.ID || g.Rung != w.Rung || g.Guarantee != w.Guarantee {
			t.Fatalf("rank %d: %d/%s/%s, want %d/%s/%s",
				i+1, g.Item.ID, g.Rung, g.Guarantee, w.Item.ID, w.Rung, w.Guarantee)
		}
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%d scores, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("score %d: %+v, want %+v", i, got.Scores[i], want.Scores[i])
		}
	}
}

// TestRunMaxFindEquivalent pins the session engine to the bare algorithm:
// Session.Run with the MaxFind workload is core.FindMax on memoized
// oracles — same answer, candidate set, paid counts, cost and error, with
// 2-MaxFind's label on success — across seeds, budgets, and mid-run crashes.
func TestRunMaxFindEquivalent(t *testing.T) {
	cal, err := dataset.UniformCalibrated(150, 5, 2, NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	prices := Prices{Naive: 1, Expert: 50}
	lim := BudgetLimits{MaxNaive: 600, MaxExpert: 10_000}
	crash := ChaosPlan{CrashAfter: 120}
	for _, seed := range []uint64{3, 77} {
		for _, variant := range []string{"plain", "budget", "crash"} {
			// algo=0 is 2-MaxFind, the only phase 2 a session runs undegraded.
			t.Run(fmt.Sprintf("seed=%d/algo=0/%s", seed, variant), func(t *testing.T) {
				naive := &ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: seed}}
				expert := &ThresholdWorker{Delta: cal.DeltaE, Tie: HashTie{Seed: seed + 1}}
				ledger := NewLedger()
				no := NewOracle(naive, Naive, ledger, NewMemo(len(items)))
				eo := NewOracle(expert, Expert, ledger, NewMemo(len(items)))
				switch variant {
				case "budget":
					b := NewBudget(lim)
					no.WithBudget(b)
					eo.WithBudget(b)
				case "crash":
					clock := func() int64 { return ledger.Snapshot().TotalComparisons() }
					nb, eb, _, err := crash.Apply(NewSimulatedBackend(naive), NewSimulatedBackend(expert), clock)
					if err != nil {
						t.Fatal(err)
					}
					no.WithBackend(nb)
					eo.WithBackend(eb)
				}
				want, errA := core.FindMax(context.Background(), items, no, eo, core.FindMaxOptions{Un: cal.Un})

				s := statelessSession(t, cal, seed, func(c *Config) {
					switch variant {
					case "budget":
						c.Budget = lim
					case "crash":
						plan := crash
						c.Chaos = &plan
					}
				})
				got, errB := s.Run(context.Background(), MaxFind(), items)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("core.FindMax err %v, Run err %v", errA, errB)
				}
				rung, guarantee := "expert-2maxfind", Guarantee2DeltaE
				if errA != nil {
					rung, guarantee = "best-so-far", GuaranteeNone
				}
				resultsEqual(t, got, Result{
					Best:              want.Best,
					Candidates:        want.Candidates,
					NaiveComparisons:  ledger.Naive(),
					ExpertComparisons: ledger.Expert(),
					Cost:              ledger.Cost(prices),
					Rung:              rung,
					Guarantee:         guarantee,
				})
			})
		}
	}
}

// TestTopKWorkloadSession runs a top-k session end to end: k ordered ranks,
// honest per-rank labels, and a ranking whose head matches max-find.
func TestTopKWorkloadSession(t *testing.T) {
	cal, err := dataset.UniformCalibrated(120, 5, 2, NewRand(22))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const k = 4
	s := statelessSession(t, cal, 9, nil)
	res, err := s.Run(context.Background(), TopKWorkload(k), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != k {
		t.Fatalf("got %d ranks, want %d", len(res.Ranked), k)
	}
	if res.Best.ID != res.Ranked[0].Item.ID {
		t.Fatalf("Best %d != rank 1 %d", res.Best.ID, res.Ranked[0].Item.ID)
	}
	if !res.Phase1Complete {
		t.Fatal("clean top-k run reports Phase1Complete=false")
	}
	seen := map[int]bool{}
	for i, r := range res.Ranked {
		if seen[r.Item.ID] {
			t.Fatalf("rank %d repeats element %d", i+1, r.Item.ID)
		}
		seen[r.Item.ID] = true
		strongest, ok := StrongestGuaranteeFor(r.Rung)
		if !ok {
			t.Fatalf("rank %d names unknown rung %q", i+1, r.Rung)
		}
		if r.Guarantee.Strength() > strongest.Strength() {
			t.Fatalf("rank %d label %q stronger than rung %q allows", i+1, r.Guarantee, r.Rung)
		}
	}
	// Rank 1 agrees with a plain max-find over the same configuration.
	mf := statelessSession(t, cal, 9, nil)
	mres, err := mf.FindMax(items)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Best.ID != res.Ranked[0].Item.ID {
		t.Fatalf("top-k rank 1 = %d, max-find best = %d", res.Ranked[0].Item.ID, mres.Best.ID)
	}
	// Each rank's element is within 2δe of the best among its round's
	// remaining elements — spot-check rank 1 against the global max.
	if d := item.Distance(cal.Set.Max(), res.Ranked[0].Item); d > 2*cal.DeltaE {
		t.Fatalf("rank 1 is %g from the max, want ≤ 2δe = %g", d, 2*cal.DeltaE)
	}
}

// TestTopKCrashResumeBitIdentical extends the resume invariant to ranked
// runs: a top-k job crashed at several points and resumed must reproduce the
// uninterrupted ranking, totals, and labels exactly, and the resumed run
// must only execute rounds the snapshot had not completed.
func TestTopKCrashResumeBitIdentical(t *testing.T) {
	cal, err := dataset.UniformCalibrated(150, 6, 2, NewRand(23))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed, k = 55, 3

	baseDir := t.TempDir()
	base := statelessSession(t, cal, seed, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: filepath.Join(baseDir, "base.ck"), Every: 64}
	})
	want, err := base.Run(context.Background(), TopKWorkload(k), items)
	if err != nil {
		t.Fatal(err)
	}

	// Crash points span the run: early phase 1, mid-run, and late (the
	// baseline's totals bound the paid stream, so 9/10 of it is still
	// before the final comparison).
	total := want.NaiveComparisons + want.ExpertComparisons
	for _, crashAfter := range []int64{40, total / 4, total / 2, total * 9 / 10} {
		t.Run(fmt.Sprintf("crash-after-%d", crashAfter), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ck")
			crashed := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
				c.Chaos = &ChaosPlan{CrashAfter: crashAfter}
			})
			_, err := crashed.Run(context.Background(), TopKWorkload(k), items)
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("crashed run err = %v, want ErrInjectedCrash", err)
			}

			// The snapshot records the completed ranks; the resumed run must
			// re-execute only the rounds after them.
			st, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Kind != TopKKind {
				t.Fatalf("snapshot kind %q, want %q", st.Kind, TopKKind)
			}
			_, recs, err := decodeTopKBlob(st.Workload)
			if err != nil {
				t.Fatal(err)
			}
			var rankBoundaries int
			resumed := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
				c.OnPhase = func(phase string, _ []Item) {
					if phase == "rank" {
						rankBoundaries++
					}
				}
			})
			got, err := resumed.ResumeWorkload(context.Background(), TopKWorkload(k), path, items)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			resultsEqual(t, got, want)
			if wantRounds := k - len(recs); rankBoundaries != wantRounds {
				t.Fatalf("resumed run crossed %d rank boundaries, want %d (snapshot had %d of %d ranks)",
					rankBoundaries, wantRounds, len(recs), k)
			}
			for i, rec := range recs {
				if rec.id != want.Ranked[i].Item.ID {
					t.Fatalf("snapshot rank %d = %d, uninterrupted = %d", i+1, rec.id, want.Ranked[i].Item.ID)
				}
			}
		})
	}
}

// TestScoreWorkloadSession runs crowd scoring end to end with exact votes:
// the score leader is the true maximum, every element is scored, and the
// result carries the score-expert label.
func TestScoreWorkloadSession(t *testing.T) {
	cal, err := dataset.UniformCalibrated(100, 5, 2, NewRand(24))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	s := statelessSession(t, cal, 11, func(c *Config) {
		c.Valuer = worker.TruthValuer
	})
	res, err := s.Run(context.Background(), ScoreWorkload(ScoreConfig{Votes: 3}), items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.ID != cal.Set.Max().ID {
		t.Fatalf("exact-vote score run returned %d, true max is %d", res.Best.ID, cal.Set.Max().ID)
	}
	if res.Rung != "score-expert" || res.Guarantee != Guarantee2DeltaESubset {
		t.Fatalf("labeled %s/%s, want score-expert/%s", res.Rung, res.Guarantee, Guarantee2DeltaESubset)
	}
	if len(res.Scores) != len(items) {
		t.Fatalf("%d scores for %d elements", len(res.Scores), len(items))
	}
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i-1].Score < res.Scores[i].Score {
			t.Fatalf("scores not sorted descending at %d", i)
		}
	}
	if res.NaiveComparisons < int64(3*len(items)) {
		t.Fatalf("paid %d naive queries, want ≥ %d (n·votes)", res.NaiveComparisons, 3*len(items))
	}
	if !res.Phase1Complete {
		t.Fatal("clean score run reports Phase1Complete=false")
	}
}

// TestScoreCrashResumeBitIdentical extends the resume invariant to value
// queries: a score run crashed mid-flight resumes through the value memo to
// the identical answer, scores, and totals.
func TestScoreCrashResumeBitIdentical(t *testing.T) {
	cal, err := dataset.UniformCalibrated(120, 5, 2, NewRand(25))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 66
	valuer := NoisyValuer{Sigma: cal.DeltaN, Seed: seed + 2}

	base := statelessSession(t, cal, seed, func(c *Config) {
		c.Valuer = valuer
		c.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "base.ck"), Every: 32}
	})
	want, err := base.Run(context.Background(), ScoreWorkload(ScoreConfig{Votes: 5}), items)
	if err != nil {
		t.Fatal(err)
	}

	total := want.NaiveComparisons + want.ExpertComparisons
	for _, crashAfter := range []int64{33, total / 2, total * 9 / 10} {
		t.Run(fmt.Sprintf("crash-after-%d", crashAfter), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ck")
			crashed := statelessSession(t, cal, seed, func(c *Config) {
				c.Valuer = valuer
				c.Checkpoint = CheckpointConfig{Path: path, Every: 32}
				c.Chaos = &ChaosPlan{CrashAfter: crashAfter}
			})
			_, err := crashed.Run(context.Background(), ScoreWorkload(ScoreConfig{Votes: 5}), items)
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("crashed run err = %v, want ErrInjectedCrash", err)
			}
			st, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Kind != ScoreKind {
				t.Fatalf("snapshot kind %q, want %q", st.Kind, ScoreKind)
			}
			resumed := statelessSession(t, cal, seed, func(c *Config) {
				c.Valuer = valuer
				c.Checkpoint = CheckpointConfig{Path: path, Every: 32}
			})
			got, err := resumed.ResumeWorkload(context.Background(), ScoreWorkload(ScoreConfig{Votes: 5}), path, items)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			resultsEqual(t, got, want)
		})
	}
}

// failingBackend refuses every request permanently.
type failingBackend struct{}

func (failingBackend) Answer(context.Context, BackendRequest) (BackendAnswer, error) {
	return BackendAnswer{}, fmt.Errorf("expert pool offline: %w", ErrPermanentBackend)
}

// TestScoreNaiveFallback: with graceful degradation on, a score run whose
// expert phase fails after scoring completed serves the aggregated-score
// leader under the honest score-naive/δn label instead of failing.
func TestScoreNaiveFallback(t *testing.T) {
	cal, err := dataset.UniformCalibrated(80, 4, 2, NewRand(26))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	s := statelessSession(t, cal, 13, func(c *Config) {
		c.Valuer = worker.TruthValuer
		c.ExpertBackend = failingBackend{}
		c.Degrade = &DegradeConfig{}
	})
	res, err := s.Run(context.Background(), ScoreWorkload(ScoreConfig{Votes: 3}), items)
	if err != nil {
		t.Fatalf("degraded score run failed: %v", err)
	}
	if res.Rung != "score-naive" || res.Guarantee != GuaranteeDeltaN {
		t.Fatalf("labeled %s/%s, want score-naive/%s", res.Rung, res.Guarantee, GuaranteeDeltaN)
	}
	if res.Best.ID != cal.Set.Max().ID {
		t.Fatalf("exact-vote fallback returned %d, true max is %d", res.Best.ID, cal.Set.Max().ID)
	}
	// Without Degrade the same failure is fatal.
	hard := statelessSession(t, cal, 13, func(c *Config) {
		c.Valuer = worker.TruthValuer
		c.ExpertBackend = failingBackend{}
	})
	hres, err := hard.Run(context.Background(), ScoreWorkload(ScoreConfig{Votes: 3}), items)
	if err == nil {
		t.Fatal("undegraded score run with a dead expert backend succeeded")
	}
	if hres.Rung != "best-so-far" || hres.Guarantee != GuaranteeNone {
		t.Fatalf("failed run labeled %s/%s, want best-so-far/none", hres.Rung, hres.Guarantee)
	}
}

// TestWorkloadValidation covers the refuse-early paths: bad k, score without
// a value source, nil workload, and kind-mismatched resume.
func TestWorkloadValidation(t *testing.T) {
	cal, err := dataset.UniformCalibrated(60, 4, 2, NewRand(27))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	s := statelessSession(t, cal, 14, nil)
	ctx := context.Background()

	if _, err := s.Run(ctx, TopKWorkload(0), items); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.Run(ctx, TopKWorkload(len(items)+1), items); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := s.Run(ctx, ScoreWorkload(ScoreConfig{}), items); err == nil {
		t.Fatal("score without Valuer or NaiveBackend accepted")
	}
	if _, err := s.Run(ctx, nil, items); err == nil {
		t.Fatal("nil workload accepted")
	}

	// A top-k checkpoint refuses to resume as max-find (and vice versa).
	path := filepath.Join(t.TempDir(), "run.ck")
	crashed := statelessSession(t, cal, 15, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
		c.Chaos = &ChaosPlan{CrashAfter: 30}
	})
	if _, err := crashed.Run(ctx, TopKWorkload(2), items); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crash setup err = %v", err)
	}
	wrong := statelessSession(t, cal, 15, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 16}
	})
	if _, err := wrong.ResumeWorkload(ctx, MaxFind(), path, items); err == nil {
		t.Fatal("top-k checkpoint resumed as max-find")
	}
	// A mismatched k is refused even though the kind matches.
	if _, err := wrong.ResumeWorkload(ctx, TopKWorkload(3), path, items); err == nil {
		t.Fatal("top-k checkpoint resumed with different k")
	}
	// The matching workload resumes.
	if _, err := wrong.ResumeWorkload(ctx, TopKWorkload(2), path, items); err != nil {
		t.Fatalf("matching ResumeWorkload: %v", err)
	}
}

// TestTopKReusesMemos quantifies the engine's memo reuse: ranking k elements
// in one session is substantially cheaper than k independent max-finds,
// because later rounds replay phase-1 comparisons from the memo tables.
func TestTopKReusesMemos(t *testing.T) {
	cal, err := dataset.UniformCalibrated(150, 6, 2, NewRand(28))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const k = 4

	engine := statelessSession(t, cal, 31, nil)
	eres, err := engine.Run(context.Background(), TopKWorkload(k), items)
	if err != nil {
		t.Fatal(err)
	}

	var independent int64
	remaining := items
	for round := 0; round < k; round++ {
		s := statelessSession(t, cal, 31, nil)
		r, err := s.FindMax(remaining)
		if err != nil {
			t.Fatal(err)
		}
		independent += r.NaiveComparisons
		kept := make([]Item, 0, len(remaining)-1)
		for _, it := range remaining {
			if it.ID != r.Best.ID {
				kept = append(kept, it)
			}
		}
		remaining = kept
	}
	if eres.NaiveComparisons >= independent {
		t.Fatalf("engine top-k paid %d naive comparisons, %d independent max-finds paid %d — no memo reuse",
			eres.NaiveComparisons, k, independent)
	}
	t.Logf("top-k via engine: %d naive; %d independent max-finds: %d naive (%.1f%% saved)",
		eres.NaiveComparisons, k, independent,
		100*(1-float64(eres.NaiveComparisons)/float64(independent)))
}
