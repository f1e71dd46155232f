package service

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/faults"
)

// nullFS is a filesystem that stores nothing: every write succeeds and is
// dropped, every directory is empty. It keeps disk time and file contents
// out of measurements of what the server itself retains.
type nullFS struct{}

type nullFile struct{}

func (nullFile) Write(p []byte) (int, error) { return len(p), nil }
func (nullFile) Chmod(os.FileMode) error     { return nil }
func (nullFile) Sync() error                 { return nil }
func (nullFile) Close() error                { return nil }
func (nullFile) Name() string                { return "null.tmp" }

func (nullFS) ReadFile(string) ([]byte, error)                { return nil, fs.ErrNotExist }
func (nullFS) ReadDir(string) ([]fs.DirEntry, error)          { return nil, nil }
func (nullFS) Stat(string) (fs.FileInfo, error)               { return nil, fs.ErrNotExist }
func (nullFS) MkdirAll(string, os.FileMode) error             { return nil }
func (nullFS) CreateTemp(string, string) (faults.File, error) { return nullFile{}, nil }
func (nullFS) Rename(string, string) error                    { return nil }
func (nullFS) Remove(string) error                            { return nil }

// settleJobs submits n small jobs, retrying while the slots are full, and
// returns once every job's run goroutine has finished (settled, persisted
// and entered into the settled window).
func settleJobs(t *testing.T, s *Server, n int) []*Job {
	t.Helper()
	jobs := make([]*Job, 0, n)
	for len(jobs) < n {
		j, err := s.Submit(JobSpec{N: 12, Seed: uint64(len(jobs)), Un: 2})
		var rej *RejectError
		switch {
		case errors.As(err, &rej):
			time.Sleep(50 * time.Microsecond)
			continue
		case err != nil:
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	s.wg.Wait()
	return jobs
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSettledJobHeapIsBounded settles several thousand jobs past the
// window of settled jobs that keep their event log in memory, and bounds
// what each one retains: the job, its result and its index entries — not
// its event log or tracer.
func TestSettledJobHeapIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("settles thousands of jobs")
	}
	s := testServer(t, "state", func(o *Options) { o.FS = nullFS{} })
	defer s.Drain(context.Background())
	settleJobs(t, s, 300)
	before := liveHeap()
	const n = 3000
	jobs := settleJobs(t, s, n)
	after := liveHeap()
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Fatalf("job %s ended %q: %s", j.ID, j.State(), j.Err())
		}
	}
	per := float64(after-before) / n
	t.Logf("retained heap per settled job: %.0f bytes", per)
	// 960 bytes is half of what these jobs retained while each kept its
	// event log and tracer for the life of the server.
	if per > 960 {
		t.Fatalf("each settled job retains %.0f bytes of heap, want ≤ 960", per)
	}
}

// getEvents fetches a job's event history over HTTP.
func getEvents(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?follow=1")
	if err != nil {
		t.Fatalf("GET events of %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events of %s: HTTP %d, %v: %s", id, resp.StatusCode, err, body)
	}
	return string(body)
}

// TestTerminalEventHistoryOutlivesWindowAndRestart settles jobs one at a
// time past a two-job window: the jobs inside the window serve their
// history from memory, the older ones from their records, and after a
// restart every job serves the same bytes it served when it settled.
func TestTerminalEventHistoryOutlivesWindowAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, dir, nil)
	s.window = make([]*Job, 2)
	ts := httptest.NewServer(s.Handler())
	var jobs []*Job
	want := map[string]string{}
	for i := 0; i < 5; i++ {
		j := settleJobs(t, s, 1)[0]
		jobs = append(jobs, j)
		want[j.ID] = getEvents(t, ts, j.ID)
		if !strings.Contains(want[j.ID], `"state":"queued"`) || !strings.Contains(want[j.ID], `"state":"done"`) {
			t.Fatalf("job %s history is incomplete:\n%s", j.ID, want[j.ID])
		}
	}
	for i, j := range jobs {
		if inWindow := i >= len(jobs)-2; (j.log() != nil) != inWindow {
			t.Fatalf("job %d: in-memory log present = %v, want %v", i, j.log() != nil, inWindow)
		}
		if got := getEvents(t, ts, j.ID); got != want[j.ID] {
			t.Fatalf("job %s history changed after settling:\n got %s\nwant %s", j.ID, got, want[j.ID])
		}
	}
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted := testServer(t, dir, nil)
	defer restarted.Drain(context.Background())
	ts = httptest.NewServer(restarted.Handler())
	defer ts.Close()
	for _, j := range jobs {
		if got := getEvents(t, ts, j.ID); got != want[j.ID] {
			t.Fatalf("job %s history after restart:\n got %s\nwant %s", j.ID, got, want[j.ID])
		}
	}
}

// jobRenameFS fails every rename onto an existing job record while failing
// is set — admission's first write lands, every later transition of the
// job parks its record dirty.
type jobRenameFS struct {
	faults.FS
	failing atomic.Bool
}

func (f *jobRenameFS) Rename(oldpath, newpath string) error {
	if f.failing.Load() && strings.HasSuffix(newpath, ".job") {
		if _, err := f.FS.Stat(newpath); err == nil {
			return syscall.EIO
		}
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestParkedRecordKeepsLogUntilItLands leaves a job's terminal record
// parked dirty while the job leaves the window: its history must stay in
// memory (the disk has none yet) until the drain-time flush lands the
// record, and then be served from that record.
func TestParkedRecordKeepsLogUntilItLands(t *testing.T) {
	fsys := &jobRenameFS{FS: faults.OS()}
	s := testServer(t, t.TempDir(), func(o *Options) { o.FS = fsys; o.PersistAttempts = 1 })
	s.window = make([]*Job, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fsys.failing.Store(true)
	parked := settleJobs(t, s, 1)[0]
	fsys.failing.Store(false)
	want := getEvents(t, ts, parked.ID)
	settleJobs(t, s, 2)
	if s.dirtyCount() != 1 {
		t.Fatalf("%d records parked, want 1", s.dirtyCount())
	}
	if parked.log() == nil {
		t.Fatal("a job whose record is parked dropped its only copy of the history")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.dirtyCount() != 0 || parked.log() != nil {
		t.Fatalf("after the flush: %d parked, log kept = %v; want 0 and false", s.dirtyCount(), parked.log() != nil)
	}
	if got := getEvents(t, ts, parked.ID); got != want {
		t.Fatalf("history served from the landed record:\n got %s\nwant %s", got, want)
	}
}

// TestRecordV4CarriesTerminalLog pins the version-4 appendix: a terminal
// job's record carries its event log, a version-3 record of the same job
// still decodes (with an empty history), and a non-terminal record
// carrying a log is corrupt.
func TestRecordV4CarriesTerminalLog(t *testing.T) {
	j := mkJob("j00000007", "acme")
	j.events.Write([]byte(`{"seq":1,"ev":"job"}` + "\n"))
	j.events.close()
	rec := encodeRecord(j)
	got, err := decodeRecord(rec)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if buf, done, _ := got.events.since(0); string(buf) != `{"seq":1,"ev":"job"}`+"\n" || !done {
		t.Fatalf("decoded log %q (complete %v)", buf, done)
	}
	if got.trace != nil {
		t.Fatal("a decoded terminal job has a tracer")
	}

	// The same job as a version-3 server wrote it: no log appendix.
	v3 := mkJob("j00000007", "acme")
	v3.events = nil
	body, _, err := checkpoint.OpenEnvelopeAny(recordMagic, encodeRecord(v3))
	if err != nil {
		t.Fatal(err)
	}
	old, err := decodeRecord(checkpoint.SealEnvelope(recordMagic, recordVersionPreLog, body[:len(body)-8]))
	if err != nil {
		t.Fatalf("decode v3: %v", err)
	}
	if buf, done, _ := old.events.since(0); len(buf) != 0 || !done {
		t.Fatalf("v3 terminal record decoded with log %q (complete %v)", buf, done)
	}

	// A queued job's record never carries a log: forge one.
	q := mkJob("j00000008", "acme")
	q.state, q.result = StateQueued, nil
	var b checkpoint.Builder
	b.Blob([]byte("{}\n"))
	body, _, err = checkpoint.OpenEnvelopeAny(recordMagic, encodeRecord(q))
	if err != nil {
		t.Fatal(err)
	}
	forged := append(append([]byte(nil), body[:len(body)-8]...), b.Bytes()...)
	if _, err := decodeRecord(checkpoint.SealEnvelope(recordMagic, recordVersion, forged)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("queued record with a log: err = %v, want ErrCorrupt", err)
	}
}
