package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// clock stamps events in nanoseconds since the run's epoch (monotonic).
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil blocks until the clock reads t.
func (c *clock) sleepUntil(t int64) {
	if d := time.Duration(t - c.now()); d > 0 {
		time.Sleep(d)
	}
}

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the system: name, start, end, the span that caused
// it, and the job it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Syncs  int64  `json:"syncs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records s and returns its ID.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// adopt gives every parentless span of a job (the filesystem spans, which
// the decorator records without knowing the client's view) the innermost
// span of the same job that contains its start.
func adopt(spans []span) {
	isIO := func(s span) bool { return s.Name == "store.write" || s.Name == "checkpoint.write" }
	byJob := map[string][]int{}
	for i, s := range spans {
		if s.Job != "" && !isIO(s) {
			byJob[s.Job] = append(byJob[s.Job], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || !isIO(*s) {
			continue
		}
		best := -1
		for _, j := range byJob[s.Job] {
			c := spans[j]
			if c.Start <= s.Start && s.Start <= c.End && (best < 0 || c.dur() < spans[best].dur()) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// selfTimes sums, per span name, the count, total duration and self time:
// a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

type layerTime struct {
	count       int
	total, self int64
}

// covered returns how much of parent's interval the children cover, each
// clipped to the parent and overlaps counted once.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			sum += x[1] - lo
		}
		end = max(end, x[1])
	}
	return sum
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, title string, spans []span) {
	lt := selfTimes(spans)
	names := make([]string, 0, len(lt))
	var all int64
	for n, t := range lt {
		names = append(names, n)
		all += t.self
	}
	sort.Slice(names, func(a, b int) bool { return lt[names[a]].self > lt[names[b]].self })
	fmt.Fprintf(w, "%s: self time per layer (spans recorded by the benchmark around its calls)\n", title)
	fmt.Fprintf(w, "  %-18s %8s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	for _, n := range names {
		t := lt[n]
		share := 0.0
		if all > 0 {
			share = 100 * float64(t.self) / float64(all)
		}
		fmt.Fprintf(w, "  %-18s %8d %12.1f %12.1f %6.1f%%\n", n, t.count,
			float64(t.total)/1e6, float64(t.self)/1e6, share)
	}
}

// writeSpans writes spans as JSON Lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
