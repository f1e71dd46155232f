package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"crowdmax"
	"crowdmax/internal/checkpoint"
)

// testServer builds a server over a fresh state directory.
func testServer(t *testing.T, dir string, mutate func(*Options)) *Server {
	t.Helper()
	opt := Options{Dir: dir}
	if mutate != nil {
		mutate(&opt)
	}
	s, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !j.State().terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q after %s", j.ID, j.State(), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobCompletesWithHonestLabel(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{N: 120, Seed: 7, Un: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j, 30*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %q (err %q), want done", st, j.Err())
	}
	res, ok := j.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	strongest, known := crowdmax.StrongestGuaranteeFor(res.Rung)
	if !known {
		t.Fatalf("result names unknown rung %q", res.Rung)
	}
	if crowdmax.Guarantee(res.Guarantee).Strength() > strongest.Strength() {
		t.Fatalf("label %q stronger than rung %q allows (%q)", res.Guarantee, res.Rung, strongest)
	}
	if res.NaiveComparisons <= 0 {
		t.Fatalf("no naive comparisons recorded: %+v", res)
	}
	if res.NaiveComparisons > j.ReservedNaive || res.ExpertComparisons > j.ReservedExpert {
		t.Fatalf("spend (%d, %d) exceeded reservation (%d, %d)",
			res.NaiveComparisons, res.ExpertComparisons, j.ReservedNaive, j.ReservedExpert)
	}
}

func TestExplicitItemsJob(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())

	items := make([]ItemSpec, 40)
	for i := range items {
		items[i] = ItemSpec{Label: "it", Value: float64(i) / 40}
	}
	items[17].Label, items[17].Value = "winner", 9.5
	j, err := s.Submit(JobSpec{Items: items, Seed: 3, Un: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j, 30*time.Second)
	res, ok := j.Result()
	if !ok {
		t.Fatalf("state = %q err %q", j.State(), j.Err())
	}
	if res.BestLabel != "winner" {
		t.Fatalf("best = %q (value %g), want the planted winner", res.BestLabel, res.BestValue)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())

	for _, spec := range []JobSpec{
		{},              // no instance
		{N: 1, Un: 1},   // too small
		{N: 100, Un: 0}, // un < 1
		{N: maxInstance + 1, Un: 4},
	} {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadRequest", spec, err)
		}
	}
}

func TestAdmissionSlotCap(t *testing.T) {
	s := testServer(t, t.TempDir(), func(o *Options) {
		o.MaxConcurrent = 1
		o.CmpLatency = 20 * time.Millisecond // hold the slot
	})
	defer s.Drain(context.Background())

	j1, err := s.Submit(JobSpec{N: 60, Seed: 1, Un: 4})
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	var rej *RejectError
	if _, err := s.Submit(JobSpec{N: 60, Seed: 2, Un: 4}); !errors.As(err, &rej) {
		t.Fatalf("second Submit err = %v, want RejectError", err)
	} else if !strings.Contains(rej.Reason, "max concurrent sessions") {
		t.Fatalf("rejection reason %q", rej.Reason)
	}
	waitTerminal(t, j1, 60*time.Second)
	// Slot released: a new submission is admitted again. The job turns
	// terminal before its run goroutine returns the slot, so a Submit right
	// after may still meet the cap; retry that refusal, and only that one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(JobSpec{N: 60, Seed: 3, Un: 4})
		if err == nil {
			break
		}
		if !errors.As(err, &rej) || !strings.Contains(rej.Reason, "max concurrent sessions") {
			t.Fatalf("post-completion Submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released 5s after the job settled: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionTenantCaps(t *testing.T) {
	s := testServer(t, t.TempDir(), func(o *Options) {
		o.CmpLatency = 20 * time.Millisecond
		o.Tenants = map[string]TenantLimits{
			"jobs-capped": {MaxJobs: 1},
			"broke":       {MaxCost: 5}, // cannot cover any reservation
		}
	})
	defer s.Drain(context.Background())

	if _, err := s.Submit(JobSpec{Tenant: "jobs-capped", N: 60, Seed: 1, Un: 4}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	var rej *RejectError
	if _, err := s.Submit(JobSpec{Tenant: "jobs-capped", N: 60, Seed: 2, Un: 4}); !errors.As(err, &rej) {
		t.Fatalf("tenant job cap: err = %v, want RejectError", err)
	} else if !strings.Contains(rej.Reason, "max concurrent jobs") {
		t.Fatalf("rejection reason %q", rej.Reason)
	}
	if _, err := s.Submit(JobSpec{Tenant: "broke", N: 60, Seed: 3, Un: 4}); !errors.As(err, &rej) {
		t.Fatalf("tenant budget: err = %v, want RejectError", err)
	} else if !strings.Contains(rej.Reason, "budget") {
		t.Fatalf("rejection reason %q", rej.Reason)
	}
	// An unrelated tenant is unaffected.
	if _, err := s.Submit(JobSpec{Tenant: "solvent", N: 60, Seed: 4, Un: 4}); err != nil {
		t.Fatalf("unrelated tenant Submit: %v", err)
	}
}

func TestSettlementRefundsReservation(t *testing.T) {
	s := testServer(t, t.TempDir(), func(o *Options) {
		o.DefaultTenant = TenantLimits{MaxCost: 1e9}
	})
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{N: 100, Seed: 11, Un: 4})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j, 30*time.Second)
	res, ok := j.Result()
	if !ok {
		t.Fatalf("state %q err %q", j.State(), j.Err())
	}
	ten := s.tenant("default")
	if got := ten.budget.Spent(crowdmax.Naive); got != res.NaiveComparisons {
		t.Errorf("tenant naive spend after refund = %d, want the actual %d", got, res.NaiveComparisons)
	}
	if got := ten.budget.Spent(crowdmax.Expert); got != res.ExpertComparisons {
		t.Errorf("tenant expert spend after refund = %d, want the actual %d", got, res.ExpertComparisons)
	}
	if got := ten.budget.SpentCost(); math.Abs(got-res.Cost) > 1e-6 {
		t.Errorf("tenant monetary spend after refund = %g, want the actual cost %g", got, res.Cost)
	}
	ten.mu.Lock()
	jobs := ten.jobs
	ten.mu.Unlock()
	if jobs != 0 {
		t.Errorf("tenant job count after settlement = %d, want 0", jobs)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Submit(JobSpec{N: 60, Seed: 1, Un: 4}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain err = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	j := &Job{
		ID: "j00000042",
		Spec: JobSpec{
			Tenant: "acme", Mode: ModeTopK, K: 2, N: 0, Seed: 99, Un: 6, Ue: 3,
			Items: []ItemSpec{{Label: "a", Value: 0.25}, {Value: 0.75}},
		},
		ReservedNaive:  1234,
		ReservedExpert: 567,
		state:          StateDone,
		result: &JobResult{
			Mode: ModeTopK, BestID: 1, BestLabel: "b", BestValue: 0.75, Candidates: 3,
			Ranked: []RankedEntry{
				{ID: 1, Label: "b", Value: 0.75, Rung: "expert-2maxfind", Guarantee: "2δe"},
				{ID: 0, Label: "a", Value: 0.25, Rung: "naive-majority", Guarantee: "δn"},
			},
			NaiveComparisons: 100, ExpertComparisons: 9, Cost: 190,
			Rung: "naive-majority", Guarantee: "δn", Phase1Complete: true,
		},
	}
	j.attachLog()
	data := encodeRecord(j)
	got, err := decodeRecord(data)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if got.ID != j.ID || got.Spec.Tenant != "acme" || got.Spec.Seed != 99 ||
		got.Spec.Mode != ModeTopK || got.Spec.K != 2 ||
		got.Spec.Un != 6 || got.Spec.Ue != 3 || len(got.Spec.Items) != 2 ||
		got.Spec.Items[0] != j.Spec.Items[0] || got.Spec.Items[1] != j.Spec.Items[1] ||
		got.ReservedNaive != 1234 || got.ReservedExpert != 567 || got.state != StateDone {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.result == nil || !reflect.DeepEqual(*got.result, *j.result) {
		t.Fatalf("result mismatch: %+v", got.result)
	}

	// A version-1 record (pre-workload server) loads as mode "max" with no
	// fabricated ranked entries.
	v1 := encodeRecordV1(j)
	old, err := decodeRecord(v1)
	if err != nil {
		t.Fatalf("decode v1 record: %v", err)
	}
	if old.Spec.Mode != ModeMax || old.Spec.K != 0 || old.Spec.Votes != 0 {
		t.Fatalf("v1 spec decoded as mode=%q k=%d votes=%d, want max/0/0", old.Spec.Mode, old.Spec.K, old.Spec.Votes)
	}
	if old.result == nil || old.result.Mode != ModeMax || old.result.Ranked != nil {
		t.Fatalf("v1 result decoded as %+v, want mode max with no ranked entries", old.result)
	}
	// And re-persists as a valid current-version record.
	if _, err := decodeRecord(encodeRecord(old)); err != nil {
		t.Fatalf("re-encode of migrated v1 record: %v", err)
	}

	// Fail-closed on corruption: flip one payload byte.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x40
	if _, err := decodeRecord(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupted record err = %v, want ErrCorrupt", err)
	}
	// Wrong magic (a session checkpoint is not a job record).
	wrong := append([]byte(nil), data...)
	copy(wrong, "CMCK")
	if _, err := decodeRecord(wrong); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("wrong-magic err = %v, want ErrCorrupt", err)
	}
}

// TestModesEndToEnd submits one job per workload mode to the same server and
// checks each completes with its mode's result shape and honest labels.
func TestModesEndToEnd(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())

	jm, err := s.Submit(JobSpec{N: 80, Seed: 7, Un: 5})
	if err != nil {
		t.Fatalf("Submit max: %v", err)
	}
	jt, err := s.Submit(JobSpec{Mode: ModeTopK, K: 3, N: 80, Seed: 7, Un: 5})
	if err != nil {
		t.Fatalf("Submit topk: %v", err)
	}
	js, err := s.Submit(JobSpec{Mode: ModeScore, Votes: 5, N: 80, Seed: 7, Un: 5})
	if err != nil {
		t.Fatalf("Submit score: %v", err)
	}
	for _, j := range []*Job{jm, jt, js} {
		waitTerminal(t, j, 60*time.Second)
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s (mode %s) state %q err %q", j.ID, j.Spec.Mode, st, j.Err())
		}
	}

	rm, _ := jm.Result()
	if rm.Mode != ModeMax || rm.Ranked != nil {
		t.Fatalf("max result = %+v, want mode max with no ranked entries", rm)
	}

	rt, _ := jt.Result()
	if rt.Mode != ModeTopK || len(rt.Ranked) != 3 {
		t.Fatalf("topk result = %+v, want mode topk with 3 ranks", rt)
	}
	if rt.Ranked[0].ID != rt.BestID {
		t.Fatalf("topk rank 1 is %d, best is %d", rt.Ranked[0].ID, rt.BestID)
	}
	seen := map[int]bool{}
	for i, e := range rt.Ranked {
		if seen[e.ID] {
			t.Fatalf("topk rank %d repeats element %d", i+1, e.ID)
		}
		seen[e.ID] = true
		strongest, ok := crowdmax.StrongestGuaranteeFor(e.Rung)
		if !ok {
			t.Fatalf("topk rank %d names unknown rung %q", i+1, e.Rung)
		}
		if crowdmax.Guarantee(e.Guarantee).Strength() > strongest.Strength() {
			t.Fatalf("topk rank %d label %q stronger than rung %q allows", i+1, e.Guarantee, e.Rung)
		}
	}

	rs, _ := js.Result()
	if rs.Mode != ModeScore {
		t.Fatalf("score result mode = %q", rs.Mode)
	}
	if rs.Rung != "score-expert" || rs.Guarantee != "2δe@subset" {
		t.Fatalf("score result labeled %s/%s, want score-expert/2δe@subset", rs.Rung, rs.Guarantee)
	}
	if rs.NaiveComparisons < 80*5 {
		t.Fatalf("score run paid %d naive queries, want ≥ %d (n·votes)", rs.NaiveComparisons, 80*5)
	}

	// Mode-field validation is part of admission.
	for _, bad := range []JobSpec{
		{Mode: "rank", N: 10, Seed: 1, Un: 2},
		{Mode: ModeTopK, N: 10, Seed: 1, Un: 2},                 // k missing
		{Mode: ModeTopK, K: 11, N: 10, Seed: 1, Un: 2},          // k > n
		{K: 2, N: 10, Seed: 1, Un: 2},                           // k outside topk
		{Mode: ModeTopK, K: 2, Votes: 3, N: 10, Seed: 1, Un: 2}, // votes outside score
	} {
		if _, err := s.Submit(bad); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Submit(%+v) err = %v, want ErrBadRequest", bad, err)
		}
	}
}

// encodeRecordV1 renders j in the version-1 record layout — the format
// pre-workload servers wrote — for migration tests.
func encodeRecordV1(j *Job) []byte {
	var b checkpoint.Builder
	b.Str(j.ID)
	b.Str(j.Spec.Tenant)
	b.I64(int64(j.Spec.N))
	b.U64(j.Spec.Seed)
	b.I64(int64(j.Spec.Un))
	b.I64(int64(j.Spec.Ue))
	b.I64(int64(len(j.Spec.Items)))
	for _, it := range j.Spec.Items {
		b.Str(it.Label)
		b.F64(it.Value)
	}
	b.I64(j.ReservedNaive)
	b.I64(j.ReservedExpert)
	b.Str(string(j.state))
	b.Str(j.errMsg)
	b.Bool(j.result != nil)
	if r := j.result; r != nil {
		b.I64(int64(r.BestID))
		b.Str(r.BestLabel)
		b.F64(r.BestValue)
		b.I64(int64(r.Candidates))
		b.I64(r.NaiveComparisons)
		b.I64(r.ExpertComparisons)
		b.F64(r.Cost)
		b.Str(r.Rung)
		b.Str(r.Guarantee)
		b.Bool(r.Phase1Complete)
	}
	return checkpoint.SealEnvelope(recordMagic, recordVersionPreModes, b.Bytes())
}

func TestEventLogFollow(t *testing.T) {
	l := newEventLog()
	l.Write([]byte("one\n"))
	chunk, done, changed := l.since(0)
	if string(chunk) != "one\n" || done {
		t.Fatalf("since(0) = %q done=%v", chunk, done)
	}
	go func() {
		l.Write([]byte("two\n"))
		l.close()
	}()
	off := len(chunk)
	for {
		chunk, done, changed = l.since(off)
		off += len(chunk)
		if len(chunk) == 0 && done {
			break
		}
		if len(chunk) == 0 {
			<-changed
		}
	}
	all, _, _ := l.since(0)
	if string(all) != "one\ntwo\n" {
		t.Fatalf("final buffer %q", all)
	}
	l.close() // idempotent
}

func TestEventsCarryLifecycle(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())
	j, err := s.Submit(JobSpec{N: 80, Seed: 5, Un: 4})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j, 30*time.Second)
	buf, done, _ := j.events.since(0)
	if !done {
		t.Fatal("event log not closed after terminal state")
	}
	trace := string(buf)
	for _, want := range []string{
		`"ev":"job"`, `"state":"queued"`, `"state":"running"`, `"state":"done"`,
		`"ev":"phase"`, `"phase":"phase1"`, `"trial":"` + j.ID + `"`, `"seq":1,`,
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s:\n%s", want, trace)
		}
	}
}

// TestReservationPinned pins the worst-case reservation admission charges
// for each mode at a few instance shapes. For max and topk the numbers are
// the filter bound (Lemma 3) plus the most expensive quality-ladder rung over
// the candidate set bound; a score job reserves its votes and 2-MaxFind over
// its shortlist (⌈2·7^1.5⌉ = 38 expert comparisons at un=4). A change to
// either moves what tenants are charged up front.
func TestReservationPinned(t *testing.T) {
	cases := []struct {
		spec          JobSpec
		naive, expert int64
	}{
		{spec: JobSpec{Mode: ModeMax, N: 60, Un: 4}, naive: 981, expert: 1120},
		{spec: JobSpec{Mode: ModeMax, N: 500, Un: 8}, naive: 16105, expert: 2400},
		{spec: JobSpec{Mode: ModeMax, N: 2000, Un: 16}, naive: 128465, expert: 4960},
		// At |S| ≥ 6400 2-MaxFind's 2·|S|^1.5, not the randomized rung's
		// 160·|S|, is the expert worst case.
		{spec: JobSpec{Mode: ModeMax, N: 20000, Un: 4000}, naive: 351988001, expert: 1430816},
		{spec: JobSpec{Mode: ModeTopK, K: 3, N: 60, Un: 4}, naive: 2943, expert: 3360},
		{spec: JobSpec{Mode: ModeTopK, K: 3, N: 500, Un: 8}, naive: 48315, expert: 7200},
		{spec: JobSpec{Mode: ModeTopK, K: 3, N: 2000, Un: 16}, naive: 385395, expert: 14880},
		{spec: JobSpec{Mode: ModeScore, N: 60, Un: 4}, naive: 180, expert: 38},
		{spec: JobSpec{Mode: ModeScore, N: 500, Un: 8}, naive: 1500, expert: 117},
		{spec: JobSpec{Mode: ModeScore, Votes: 5, N: 60, Un: 4}, naive: 300, expert: 38},
		{spec: JobSpec{Mode: ModeScore, Votes: 5, N: 2000, Un: 16}, naive: 10000, expert: 346},
	}
	for _, tc := range cases {
		naive, expert := reservation(tc.spec)
		if naive != tc.naive || expert != tc.expert {
			t.Errorf("reservation(%s n=%d un=%d k=%d votes=%d) = (%d, %d), want (%d, %d)",
				tc.spec.Mode, tc.spec.N, tc.spec.Un, tc.spec.K, tc.spec.Votes, naive, expert, tc.naive, tc.expert)
		}
	}
}

// TestScoreSpendWithinReservation checks that a score job never spends more
// expert comparisons than admission reserved for it, over a few seeds and
// shapes (a shortlist clamped to n included): served jobs on the
// score-expert rung, and the same sessions with the experts failing
// mid-extraction, which settle on the score-naive fallback.
func TestScoreSpendWithinReservation(t *testing.T) {
	s := testServer(t, t.TempDir(), nil)
	defer s.Drain(context.Background())
	for _, shape := range []JobSpec{
		{Mode: ModeScore, N: 60, Un: 4},
		{Mode: ModeScore, Votes: 5, N: 200, Un: 8},
		{Mode: ModeScore, N: 9, Un: 6}, // shortlist clamped to n
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := shape
			spec.Seed = seed
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("Submit %+v: %v", spec, err)
			}
			waitTerminal(t, j, 30*time.Second)
			res, ok := j.Result()
			if j.State() != StateDone || !ok {
				t.Fatalf("%+v: state %q err %q", spec, j.State(), j.Err())
			}
			if res.Rung != "score-expert" || res.ExpertComparisons == 0 {
				t.Fatalf("%+v: rung %q with %d expert comparisons, want score-expert with some", spec, res.Rung, res.ExpertComparisons)
			}
			if res.ExpertComparisons > j.ReservedExpert || res.NaiveComparisons > j.ReservedNaive {
				t.Errorf("%+v: spend (%d, %d) exceeds reservation (%d, %d)", spec,
					res.NaiveComparisons, res.ExpertComparisons, j.ReservedNaive, j.ReservedExpert)
			}

			// The fallback: the job's own session, experts out from a few
			// comparisons into the extraction (the clock counts votes too).
			if err := spec.normalize(); err != nil {
				t.Fatal(err)
			}
			votes := max(spec.Votes, 3)
			for _, into := range []int{1, 4} {
				set := buildSet(spec)
				cfg, err := s.sessionConfig(&Job{ID: "fallback", Spec: spec}, set, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Checkpoint = crowdmax.CheckpointConfig{}
				plan, err := crowdmax.ParseChaosPlan(fmt.Sprintf("expert-outage:1.0@%d+", spec.N*votes+into))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Chaos = &plan
				sess, err := crowdmax.NewSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w, err := workloadOf(spec)
				if err != nil {
					t.Fatal(err)
				}
				out, err := sess.Run(context.Background(), w, set.Items())
				if err != nil {
					t.Fatalf("%+v outage after %d: %v", spec, into, err)
				}
				if out.Rung != "score-naive" {
					t.Fatalf("%+v outage after %d: rung %q, want score-naive", spec, into, out.Rung)
				}
				if _, re := reservation(spec); out.ExpertComparisons > re {
					t.Errorf("%+v outage after %d: %d expert comparisons exceed the %d reserved", spec, into, out.ExpertComparisons, re)
				}
			}
		}
	}
}
