package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdmax/internal/faults"
)

// memFS is an in-memory faults.FS for the service's state directory. The
// benchmark keeps state off disk for two reasons: disk write and fsync
// latency drift with the host, so they would not repeat from run to run
// (fsyncs are counted by the traced run instead of timed), and the benchmark
// must write nothing outside its checkout. Writes copy their bytes, as a
// tmpfs would. A published file keeps its contents only when keep says so:
// the service never reads a record or snapshot back during a run, and
// keeping every snapshot would make the benchmark's own bookkeeping the
// largest thing in peak RSS.
type memFS struct {
	keep func(path string) bool

	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*memFile
	seq   int
}

func newMemFS(keep func(path string) bool) *memFS {
	return &memFS{keep: keep, dirs: map[string]bool{".": true, "/": true}, files: map[string]*memFile{}}
}

// memFile is one file of a memFS; only its writer touches data until the
// rename publishes it.
type memFile struct {
	name string
	data []byte
	size int64
	mod  time.Time
}

func (f *memFile) Write(p []byte) (int, error) {
	f.data = append(f.data, p...)
	return len(p), nil
}
func (f *memFile) Chmod(os.FileMode) error { return nil }
func (f *memFile) Sync() error             { return nil }
func (f *memFile) Close() error            { return nil }
func (f *memFile) Name() string            { return f.name }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(dir string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (faults.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	m.seq++
	name := pattern + strconv.Itoa(m.seq)
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		name = pattern[:i] + strconv.Itoa(m.seq) + pattern[i+1:]
	}
	f := &memFile{name: filepath.Join(dir, name), mod: time.Now()}
	m.files[f.name] = f
	return f, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	f.name, f.size, f.mod = newpath, int64(len(f.data)), time.Now()
	if !m.keep(newpath) {
		f.data = nil
	}
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, notExist("read", path)
	}
	if f.data == nil && f.size > 0 {
		return nil, &fs.PathError{Op: "read", Path: path, Err: errors.New("contents not kept by the benchmark's memory filesystem")}
	}
	return slices.Clone(f.data), nil
}

func (m *memFS) Stat(path string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if f, ok := m.files[path]; ok {
		return memInfo{name: filepath.Base(path), size: f.size, mod: f.mod}, nil
	}
	if m.dirs[path] {
		return memInfo{name: filepath.Base(path), dir: true}, nil
	}
	return nil, notExist("stat", path)
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var out []fs.DirEntry
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(d), dir: true}))
		}
	}
	for p, f := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: f.size, mod: f.mod}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

// memInfo is the fs.FileInfo of a memFS file or directory.
type memInfo struct {
	name string
	size int64
	mod  time.Time
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// timedFS decorates the service's filesystem in traced runs: every
// CreateTemp→Rename of the atomic-write protocol becomes a span (store.write
// under <dir>/jobs, checkpoint.write under <dir>/ck) carrying the bytes
// written and the fsyncs issued, attributed to the job its file name names.
type timedFS struct {
	faults.FS
	clk *clock
	tr  *tracer

	mu   sync.Mutex
	open map[string]*ioRec
}

// ioRec accumulates one temp file's write; only the writing goroutine
// touches it between CreateTemp and Rename.
type ioRec struct {
	start        int64
	bytes, syncs int64
}

func newTimedFS(base faults.FS, clk *clock, tr *tracer) *timedFS {
	return &timedFS{FS: base, clk: clk, tr: tr, open: map[string]*ioRec{}}
}

func (t *timedFS) CreateTemp(dir, pattern string) (faults.File, error) {
	start := t.clk.now()
	f, err := t.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	rec := &ioRec{start: start}
	t.mu.Lock()
	t.open[f.Name()] = rec
	t.mu.Unlock()
	return &timedFile{File: f, rec: rec}, nil
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	end := t.clk.now()
	t.mu.Lock()
	rec := t.open[oldpath]
	delete(t.open, oldpath)
	t.mu.Unlock()
	if err != nil || rec == nil {
		return err
	}
	name := "store.write"
	if filepath.Base(filepath.Dir(newpath)) == "ck" {
		name = "checkpoint.write"
	}
	base := filepath.Base(newpath)
	t.tr.add(span{Name: name, Job: strings.TrimSuffix(base, filepath.Ext(base)),
		Start: rec.start, End: end, Bytes: rec.bytes, Syncs: rec.syncs})
	return nil
}

type timedFile struct {
	faults.File
	rec *ioRec
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.rec.bytes += int64(n)
	return n, err
}

func (f *timedFile) Sync() error {
	f.rec.syncs++
	return f.File.Sync()
}
