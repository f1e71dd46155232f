package service

import (
	"sync"
)

// eventLog buffers one job's JSONL event trace and lets readers stream it
// with follow semantics. The obs.Tracer writes into it (it is an io.Writer),
// so the wire format of GET /v1/jobs/{id}/events is exactly the tracer's
// JSONL — the same format maxcrowd -trace-out writes to disk.
//
// Follow readers block on a change channel that is closed and replaced on
// every append; close() closes the final channel and leaves it in place, so
// late readers drain the buffer and return immediately.
type eventLog struct {
	mu      sync.Mutex
	buf     []byte
	changed chan struct{}
	done    bool
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// Write appends one (or more) trace lines. Implements io.Writer for the
// tracer; never fails.
func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.buf = append(l.buf, p...)
	if !l.done {
		close(l.changed)
		l.changed = make(chan struct{})
	}
	l.mu.Unlock()
	return len(p), nil
}

// closedLog returns a complete log holding buf — a terminal job's history
// read back from its record.
func closedLog(buf []byte) *eventLog {
	l := &eventLog{buf: buf, changed: make(chan struct{}), done: true}
	close(l.changed)
	return l
}

// close marks the log complete and wakes every waiting reader. Idempotent.
func (l *eventLog) close() {
	l.mu.Lock()
	if !l.done {
		l.done = true
		close(l.changed)
	}
	l.mu.Unlock()
}

// since returns the bytes appended past off, whether the log is complete,
// and a channel that is closed on the next change (already closed when the
// log is complete). The returned slice aliases the internal buffer, which
// is append-only — safe to read, never mutated in place.
func (l *eventLog) since(off int) (chunk []byte, done bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < len(l.buf) {
		chunk = l.buf[off:]
	}
	return chunk, l.done, l.changed
}
