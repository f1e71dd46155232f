package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crowdmax/internal/faults"
)

// ckFiles lists the checkpoint directory under dir, sorted.
func ckFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestSettledJobLeavesOneCheckpoint: a job's snapshots are a base and the
// segments since it, and the final base removes the segments, so a
// settled job of every mode leaves exactly <id>.ck.
func TestSettledJobLeavesOneCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, dir, func(o *Options) { o.CheckpointEvery = 16 })
	var want []string
	for _, spec := range []JobSpec{
		{N: 120, Seed: 3, Un: 5},
		{Mode: ModeTopK, K: 3, N: 120, Seed: 3, Un: 5},
		{Mode: ModeScore, Votes: 3, N: 120, Seed: 3, Un: 5},
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %s: %v", spec.Mode, err)
		}
		waitTerminal(t, j, 60*time.Second)
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s (mode %s) state %q err %q", j.ID, spec.Mode, st, j.Err())
		}
		want = append(want, j.ID+".ck")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ckFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("ck/ holds %v, want %v", got, want)
	}
}

// TestBootSweepsCheckpointDirectory kills one job mid-write under a fault
// plan — its fourth segment's rename fails and so does the removal of the
// temp file, which is what a kill -9 between the write and the rename
// leaves — and drains another mid-run. Segment removals fail too, so both
// jobs keep segments. The next boot must sweep the stranded temp file and
// the failed (settled) job's segments, keep the interrupted job's segments
// for its resume, and report the sweep.
func TestBootSweepsCheckpointDirectory(t *testing.T) {
	dir := t.TempDir()
	plan, err := faults.ParsePlan("renamefail%j00000001.ck-4,removefail%*.ck-*")
	if err != nil {
		t.Fatal(err)
	}
	s1 := testServer(t, dir, func(o *Options) {
		o.FS = faults.NewInjector(faults.OS(), plan)
		o.CheckpointEvery = 16
		o.CmpLatency = time.Millisecond
	})
	failing, err := s1.Submit(JobSpec{N: 200, Seed: 5, Un: 6})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, failing, 60*time.Second)
	if st := failing.State(); st != StateFailed {
		t.Fatalf("job under the fault plan settled %q (%s), want failed", st, failing.Err())
	}
	resumed, err := s1.Submit(JobSpec{N: 200, Seed: 6, Un: 6})
	if err != nil {
		t.Fatal(err)
	}
	seg := func(j *Job, n int) string { return filepath.Join(dir, "ck", j.ID+".ck-"+string(rune('0'+n))) }
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(seg(resumed, 2)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second job never wrote two segments")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := resumed.State(); st != StateInterrupted {
		t.Fatalf("drained job state %q, want interrupted", st)
	}
	before := ckFiles(t, dir)
	var tmp, failedSegs int
	for _, name := range before {
		switch {
		case strings.Contains(name, ".tmp-"):
			tmp++
		case strings.HasPrefix(name, failing.ID+".ck-"):
			failedSegs++
		}
	}
	if tmp == 0 || failedSegs == 0 {
		t.Fatalf("the kill left %v: want a stranded temp file and the failed job's segments", before)
	}

	// Hold the resumed job's first snapshot back, so its segments are
	// still there to inspect after the boot (that snapshot removes them).
	delay, err := faults.ParsePlan("renamedelay:500%" + resumed.ID + ".ck@0-1")
	if err != nil {
		t.Fatal(err)
	}
	s2 := testServer(t, dir, func(o *Options) { o.FS = faults.NewInjector(faults.OS(), delay) })
	defer s2.Drain(context.Background())
	for _, name := range ckFiles(t, dir) {
		if strings.Contains(name, ".tmp-") || strings.HasPrefix(name, failing.ID+".ck-") {
			t.Errorf("boot left %s in ck/", name)
		}
	}
	if _, err := os.Stat(seg(resumed, 1)); err != nil {
		t.Errorf("boot swept the interrupted job's segments: %v", err)
	}
	if h := s2.Health(); h.SweptTmp < tmp {
		t.Errorf("health reports %d swept temp files, want ≥ %d", h.SweptTmp, tmp)
	}

	j := s2.Job(resumed.ID)
	waitTerminal(t, j, 60*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("resumed job settled %q (%s)", st, j.Err())
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := ckFiles(t, dir), []string{failing.ID + ".ck", resumed.ID + ".ck"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ck/ holds %v after the resumed job settled, want %v", got, want)
	}
}
