package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdmax/internal/faults"
	"crowdmax/internal/service"
)

// stateDir is the service's state directory inside the memory filesystem.
const stateDir = "state"

// keptSnapshot reports whether the memory filesystem keeps a published
// file's contents: only the session snapshots of the first server job IDs,
// which cover the first prefixJobs jobs whatever order the clients were
// admitted in; checkpoint.save_final_ms picks its job among them.
func keptSnapshot(path string) bool {
	if filepath.Ext(path) != ".ck" {
		return false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSuffix(filepath.Base(path), ".ck"), "j"))
	return err == nil && n <= 2*prefixJobs
}

// svcHarness is one in-process service booted behind net/http on
// 127.0.0.1, as cmd/loadgen boots it.
type svcHarness struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	mem    *memFS
}

// bootService starts a server over a fresh memory filesystem, decorated
// with the timing filesystem when tr is non-nil.
func bootService(clk *clock, tr *tracer) (*svcHarness, error) {
	h := &svcHarness{mem: newMemFS(keptSnapshot), served: make(chan error, 1)}
	var fsys faults.FS = h.mem
	if tr != nil {
		fsys = newTimedFS(h.mem, clk, tr)
	}
	srv, err := service.NewServer(service.Options{Dir: stateDir, MaxConcurrent: slots, FS: fsys})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	h.srv, h.hs, h.base = srv, &http.Server{Handler: srv.Handler()}, "http://"+ln.Addr().String()
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// stop drains the service and closes the HTTP server, waiting for both.
func (h *svcHarness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := h.srv.Drain(ctx)
	serr := h.hs.Shutdown(ctx)
	if err := <-h.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// client is one keep-alive connection to the service.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the response with its body unread.
func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// submit POSTs a job spec. It returns the job ID, or refused on a 429.
func (c *client) submit(ctx context.Context, body []byte) (id string, refused bool, err error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		_, err := io.Copy(io.Discard, resp.Body)
		return "", true, err
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", false, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, msg)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		return "", false, fmt.Errorf("decode submit response: %w", err)
	}
	return acc.ID, false, nil
}

// status GETs a job's view.
func (c *client) status(ctx context.Context, id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode status %s: %w", id, err)
	}
	return st, nil
}

// follow streams a job's events until the server closes the stream at a
// terminal state, stamping when the job was first seen running and when
// each session phase boundary arrived.
func (c *client) follow(ctx context.Context, clk *clock, rec *jobRec) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+rec.id+"/events?follow=1", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", rec.id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) {
			rec.end = clk.now()
			return nil
		}
		if err != nil {
			return fmt.Errorf("events %s: %w", rec.id, err)
		}
		now := clk.now()
		var ev struct {
			Ev    string `json:"ev"`
			State string `json:"state"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("events %s: %w", rec.id, err)
		}
		switch {
		case ev.Ev == "job" && ev.State == "running":
			rec.running = now
		case ev.Ev == "phase" && ev.Phase == "start":
			rec.phase[phaseStart] = now
		case ev.Ev == "phase" && ev.Phase == "phase1":
			rec.phase[phase1] = now
		case ev.Ev == "phase" && ev.Phase == "done":
			rec.phase[phaseDone] = now
		}
	}
}

// runClosedService drives the service with a closed loop: each client
// submits a job, follows its event stream to the end, then fetches and
// checks the result. Clients stop taking new jobs once the window closes
// and at least minJobs jobs have been started.
func runClosedService(ctx context.Context, w workload, seed uint64, h *svcHarness, clk *clock, end int64, minJobs int) ([]*jobRec, error) {
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
			c := newClient(h.base)
			defer c.close()
			for clk.now() < end || next.Load() < int64(minJobs) {
				i := int(next.Add(1) - 1)
				sp := serviceSpec(w, seed, i)
				rec := &jobRec{idx: i, mode: sp.Mode}
				if err := closedJob(ctx, c, clk, rec, sp); err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
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

// closedJob runs one closed-loop job. Transport failures are returned; a
// job that ends wrong is recorded in rec.
func closedJob(ctx context.Context, c *client, clk *clock, rec *jobRec, sp service.JobSpec) error {
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	rec.due = clk.now()
	rec.firstSent, rec.sent = rec.due, rec.due
	id, refused, err := c.submit(ctx, body)
	if err != nil {
		return err
	}
	if refused {
		// Two clients never fill eight slots; a refusal here is a bug.
		rec.refusals++
		rec.err = errors.New("refused admission in a closed loop below the slot count")
		return nil
	}
	rec.admitted, rec.id = clk.now(), id
	if err := c.follow(ctx, clk, rec); err != nil {
		return err
	}
	st, err := c.status(ctx, id)
	if err != nil {
		return err
	}
	checkService(rec, sp, st)
	return nil
}

// runBurstService drives the service with an open loop: a burst of
// burstSize jobs falls due every burstEvery. One submitter sends them in
// order on one connection, retrying each 429 every retryEvery and giving up
// after giveUpAfter; one poller on another connection GETs every admitted
// job each pollEvery until it is terminal. Most jobs run for less than a
// poll interval, so the poller does not split their wait into queue and
// run.
func runBurstService(ctx context.Context, w workload, seed uint64, h *svcHarness, clk *clock, start int64, bursts int) ([]*jobRec, error) {
	var (
		mu        sync.Mutex
		pending   []*jobRec
		finished  []*jobRec
		specs     = map[*jobRec]service.JobSpec{}
		submitted atomic.Bool
		wg        sync.WaitGroup
	)
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer submitted.Store(true)
		c := newClient(h.base)
		defer c.close()
		for i := range bursts * burstSize {
			sp := serviceSpec(w, seed, i)
			rec := &jobRec{idx: i, mode: sp.Mode, due: start + int64(i/burstSize)*int64(burstEvery)}
			body, err := json.Marshal(sp)
			if err != nil {
				errs <- err
				return
			}
			clk.sleepUntil(rec.due)
			rec.firstSent = clk.now()
			for {
				rec.sent = clk.now()
				id, refused, err := c.submit(ctx, body)
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				if !refused {
					rec.admitted, rec.id = clk.now(), id
					mu.Lock()
					pending = append(pending, rec)
					specs[rec] = sp
					mu.Unlock()
					break
				}
				rec.refusals++
				if time.Duration(clk.now()-rec.firstSent) >= giveUpAfter {
					rec.end, rec.err = clk.now(), fmt.Errorf("gave up after %d refusals", rec.refusals)
					mu.Lock()
					finished = append(finished, rec)
					mu.Unlock()
					break
				}
				time.Sleep(retryEvery)
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(h.base)
		defer c.close()
		for {
			sweep := clk.now()
			done := submitted.Load()
			mu.Lock()
			batch := append([]*jobRec(nil), pending...)
			mu.Unlock()
			if len(batch) == 0 && done {
				return
			}
			for _, rec := range batch {
				st, err := c.status(ctx, rec.id)
				if err != nil {
					errs <- err
					return
				}
				if st.State != "done" && st.State != "failed" && st.State != "expired" {
					continue
				}
				rec.end = clk.now()
				mu.Lock()
				checkService(rec, specs[rec], st)
				finished = append(finished, rec)
				pending = remove(pending, rec)
				mu.Unlock()
			}
			clk.sleepUntil(sweep + int64(pollEvery))
		}
	}()
	wg.Wait()
	close(errs)
	return finished, errors.Join(collect(errs)...)
}

func remove(recs []*jobRec, r *jobRec) []*jobRec {
	for i, x := range recs {
		if x == r {
			return append(recs[:i], recs[i+1:]...)
		}
	}
	return recs
}

// collect drains a closed error channel.
func collect(errs <-chan error) []error {
	var out []error
	for err := range errs {
		out = append(out, err)
	}
	return out
}
