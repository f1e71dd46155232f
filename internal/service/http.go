package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"crowdmax/internal/obs"
)

// maxBody bounds the accepted request body (a maxInstance-item explicit
// instance fits comfortably).
const maxBody = 64 << 20

// jobView is the JSON shape of GET /v1/jobs/{id}.
type jobView struct {
	ID              string     `json:"id"`
	Tenant          string     `json:"tenant"`
	State           State      `json:"state"`
	Mode            string     `json:"mode"`
	K               int        `json:"k,omitempty"`
	Votes           int        `json:"votes,omitempty"`
	N               int        `json:"n"`
	Un              int        `json:"un"`
	Ue              int        `json:"ue"`
	Seed            uint64     `json:"seed"`
	ReservedNaive   int64      `json:"reserved_naive"`
	ReservedExpert  int64      `json:"reserved_expert"`
	DeadlineSeconds float64    `json:"deadline_seconds,omitempty"`
	Stalled         bool       `json:"stalled,omitempty"`
	Error           string     `json:"error,omitempty"`
	Result          *JobResult `json:"result,omitempty"`
}

func viewOf(j *Job) jobView {
	v := jobView{
		ID:              j.ID,
		Tenant:          j.Spec.Tenant,
		State:           j.State(),
		Mode:            j.Spec.Mode,
		K:               j.Spec.K,
		Votes:           j.Spec.Votes,
		N:               j.Spec.size(),
		Un:              j.Spec.Un,
		Ue:              j.Spec.Ue,
		Seed:            j.Spec.Seed,
		ReservedNaive:   j.ReservedNaive,
		ReservedExpert:  j.ReservedExpert,
		DeadlineSeconds: j.Spec.DeadlineSeconds,
		Stalled:         j.Stalled(),
		Error:           j.Err(),
	}
	if r, ok := j.Result(); ok {
		v.Result = &r
	}
	return v
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs              submit a job (202; 400/429/503 on refusal)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status and result
//	GET  /v1/jobs/{id}/events  the job's JSONL event trace (?follow=1 streams
//	                           until the job reaches a terminal state)
//	GET  /v1/tenants           per-tenant job counts and budget spend
//	GET  /healthz              liveness + drain/degraded status + damage report
//	GET  /debug/vars, /debug/pprof/...   via obs.Routes
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	obs.Routes(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client gone is not a server error
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decode job spec: %v", err))
		return
	}
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = r.Header.Get("Idempotency-Key")
	}
	j, reused, err := s.SubmitIdempotent(spec)
	if err != nil {
		var rej *RejectError
		switch {
		case errors.As(err, &rej):
			w.Header().Set("Retry-After", strconv.Itoa(int(max(1, rej.RetryAfter.Seconds()))))
			writeErr(w, http.StatusTooManyRequests, rej.Reason)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "10")
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrBadRequest):
			writeErr(w, http.StatusBadRequest, err.Error())
		default:
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// A replayed idempotent submission returns the original job with 200:
	// nothing was admitted or charged by this request.
	status := http.StatusAccepted
	body := map[string]any{
		"id":     j.ID,
		"status": "/v1/jobs/" + j.ID,
		"events": "/v1/jobs/" + j.ID + "/events",
	}
	if reused {
		status = http.StatusOK
		body["replayed"] = true
	}
	writeJSON(w, status, body)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.TenantUsages()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// handleEvents serves the job's JSONL trace. Without ?follow=1 it returns
// the events so far; with it, it streams — flushing each chunk — until the
// job's log closes (terminal state or drain) or the client disconnects. A
// terminal job outside the settled window is served from its record.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	l := j.log()
	if l == nil {
		rec, err := s.store.read(j.ID)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Sprintf("read event history: %v", err))
			return
		}
		l = rec.events
	}
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, done, changed := l.since(off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			off += len(chunk)
			if flusher != nil {
				flusher.Flush()
			}
			continue // re-check for bytes appended while writing
		}
		if done || !follow {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz reports liveness plus the damage report: a server running
// with quarantined records, unmovable corrupt files, or dirty (unpersisted)
// records says "degraded" — it is serving, but an operator should look.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	counts := map[State]int{}
	for _, j := range s.Jobs() {
		counts[j.State()]++
	}
	h := s.Health()
	status := "ok"
	if h.Degraded() {
		status = "degraded"
	}
	if s.Draining() {
		status = "draining"
	}
	body := map[string]any{
		"status":    status,
		"jobs":      counts,
		"swept_tmp": h.SweptTmp,
		"dirty":     h.Dirty,
		"stalled":   h.Stalled,
	}
	if len(h.Quarantined) > 0 {
		body["quarantined"] = h.Quarantined
	}
	if h.Unmovable > 0 {
		body["unmovable"] = h.Unmovable
	}
	writeJSON(w, http.StatusOK, body)
}
