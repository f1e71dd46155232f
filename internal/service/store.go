package service

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/faults"
	"crowdmax/internal/obs"
)

// storeShards is the fan-out of the in-memory job index. Sharding bounds
// lock contention when thousands of concurrent submissions and status polls
// hit the store; each shard has its own RWMutex and map.
const storeShards = 16

// quarantineDir is where load moves records it cannot trust, under the
// store directory.
const quarantineDir = "quarantine"

// store is the sharded, persistent job index. The in-memory maps are the
// read path; every durable transition additionally writes the job's record
// — one envelope-framed file per job, via the checkpoint codec's atomic
// write — so the set of records under dir is always a crash-consistent
// snapshot of the server's jobs.
//
// All disk access goes through an injectable faults.FS, so every recovery
// path below is exercised under injected ENOSPC/EIO/torn-write faults.
type store struct {
	fsys   faults.FS
	dir    string
	shards [storeShards]struct {
		sync.RWMutex
		m map[string]*Job
	}

	// Load-time damage report, guarded by hmu: record files moved to
	// quarantine (with the reason), records that were corrupt but could not
	// even be moved aside, and orphaned temp files swept.
	hmu         sync.Mutex
	quarantined []QuarantinedRecord
	unmovable   int
	sweptTmp    int
}

// QuarantinedRecord is one record file moved aside at load.
type QuarantinedRecord struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

func newStore(fsys faults.FS, dir string) (*store, error) {
	if fsys == nil {
		fsys = faults.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &store{fsys: fsys, dir: dir}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*Job)
	}
	return st, nil
}

func (st *store) shard(id string) *struct {
	sync.RWMutex
	m map[string]*Job
} {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &st.shards[h.Sum32()%storeShards]
}

// put indexes the job in memory (no disk write; see persist).
func (st *store) put(j *Job) {
	sh := st.shard(j.ID)
	sh.Lock()
	sh.m[j.ID] = j
	sh.Unlock()
}

// get returns the job by ID, or nil.
func (st *store) get(id string) *Job {
	sh := st.shard(id)
	sh.RLock()
	defer sh.RUnlock()
	return sh.m[id]
}

// all returns every job, sorted by ID for stable listings.
func (st *store) all() []*Job {
	var out []*Job
	for i := range st.shards {
		sh := &st.shards[i]
		sh.RLock()
		for _, j := range sh.m {
			out = append(out, j)
		}
		sh.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// recordPath is the job's durable record file.
func (st *store) recordPath(id string) string {
	return filepath.Join(st.dir, id+".job")
}

// persist writes the job's current durable state atomically. Called at
// every state transition; a crash between transitions leaves the previous
// complete record behind.
func (st *store) persist(j *Job) error {
	if err := checkpoint.WriteFileAtomicFS(st.fsys, st.recordPath(j.ID), encodeRecord(j), 0o644); err != nil {
		return fmt.Errorf("service: persist job %s: %w", j.ID, err)
	}
	return nil
}

// read loads and decodes the job's record from disk.
func (st *store) read(id string) (*Job, error) {
	data, err := st.fsys.ReadFile(st.recordPath(id))
	if err != nil {
		return nil, err
	}
	return decodeRecord(data)
}

// health reports the load-time damage: quarantined records, records that
// could not even be moved aside, and swept temp files.
func (st *store) health() (quarantined []QuarantinedRecord, unmovable, sweptTmp int) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	return append([]QuarantinedRecord(nil), st.quarantined...), st.unmovable, st.sweptTmp
}

// noteSwept adds n orphaned temp files swept outside the store's own
// directory (the checkpoint directory) to the damage report.
func (st *store) noteSwept(n int) {
	if n == 0 {
		return
	}
	st.hmu.Lock()
	st.sweptTmp += n
	st.hmu.Unlock()
	if m := obs.Active(); m != nil {
		m.StoreTmpSweep(int64(n))
	}
}

// degraded reports whether load found damage a client should know about.
func (st *store) degraded() bool {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	return len(st.quarantined) > 0 || st.unmovable > 0
}

// quarantine moves a record file the load cannot trust into the
// quarantine subdirectory — preserving the evidence while getting it out
// of the boot path — and accounts for it. When even the move fails (disk
// errors, read-only directory) the file is left in place and counted as
// unmovable; either way the server boots.
func (st *store) quarantine(name string, reason error, logf func(string, ...any)) {
	if m := obs.Active(); m != nil {
		m.StoreQuarantine()
	}
	src := filepath.Join(st.dir, name)
	qdir := filepath.Join(st.dir, quarantineDir)
	err := st.fsys.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, name)
	if err == nil {
		// Never clobber evidence from an earlier boot: pick the first
		// free numbered suffix.
		for i := 1; ; i++ {
			if _, serr := st.fsys.Stat(dst); serr != nil {
				break
			}
			dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
		}
		err = st.fsys.Rename(src, dst)
	}
	st.hmu.Lock()
	if err == nil {
		// Report the landed filename (suffix included), so the health
		// report names exactly the files sitting in quarantine/.
		st.quarantined = append(st.quarantined, QuarantinedRecord{Name: filepath.Base(dst), Reason: reason.Error()})
	} else {
		st.unmovable++
	}
	st.hmu.Unlock()
	if err != nil {
		logf("service: record %s is corrupt (%v) and could not be quarantined: %v", name, reason, err)
		return
	}
	logf("service: quarantined record %s: %v", name, reason)
}

// load reads every record under dir into the store and returns the loaded
// jobs. Damage does not refuse startup: corrupt, truncated, or
// unknown-kind records are moved to <dir>/quarantine/ (one tenant's
// poisoned record must not take every tenant's service down), duplicate
// job IDs are resolved deterministically — newest mtime wins, ties to the
// lexicographically larger filename, the loser quarantined — and orphaned
// temp files from writes interrupted mid-crash are swept. Only a failure
// to list the directory itself is fatal.
func (st *store) load(logf func(string, ...any)) ([]*Job, error) {
	entries, err := st.fsys.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	type candidate struct {
		name  string
		mtime int64
		job   *Job
	}
	best := make(map[string]candidate)
	swept := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.Contains(name, ".tmp-") {
			// A crash between CreateTemp and rename strands the temp file;
			// it holds at most an incomplete copy of a record that either
			// still exists or was never acknowledged.
			if rerr := st.fsys.Remove(filepath.Join(st.dir, name)); rerr != nil {
				logf("service: could not sweep orphaned temp file %s: %v", name, rerr)
			} else {
				swept++
			}
			continue
		}
		if !strings.HasSuffix(name, ".job") {
			continue
		}
		data, rerr := st.fsys.ReadFile(filepath.Join(st.dir, name))
		if rerr != nil {
			st.quarantine(name, rerr, logf)
			continue
		}
		j, derr := decodeRecord(data)
		if derr != nil {
			st.quarantine(name, derr, logf)
			continue
		}
		var mtime int64
		if info, ierr := e.Info(); ierr == nil {
			mtime = info.ModTime().UnixNano()
		}
		cand := candidate{name: name, mtime: mtime, job: j}
		prev, dup := best[j.ID]
		if !dup {
			best[j.ID] = cand
			continue
		}
		winner, loser := cand, prev
		if prev.mtime > cand.mtime || (prev.mtime == cand.mtime && prev.name > cand.name) {
			winner, loser = prev, cand
		}
		best[j.ID] = winner
		st.quarantine(loser.name, fmt.Errorf("duplicate record for job %s (kept %s)", j.ID, winner.name), logf)
	}
	// Damage from earlier boots stays on the books: files already sitting in
	// the quarantine directory are re-reported by every load, so /healthz
	// keeps saying "degraded" — and a post-crash audit can account for every
	// acknowledged job ID — until an operator inspects and clears them. The
	// obs counter is not re-bumped; it counted each file when it was moved.
	if qents, qerr := st.fsys.ReadDir(filepath.Join(st.dir, quarantineDir)); qerr == nil {
		st.hmu.Lock()
		fresh := make(map[string]bool, len(st.quarantined))
		for _, q := range st.quarantined {
			fresh[q.Name] = true
		}
		for _, e := range qents {
			if e.IsDir() || fresh[e.Name()] {
				continue
			}
			st.quarantined = append(st.quarantined, QuarantinedRecord{
				Name:   e.Name(),
				Reason: "quarantined by an earlier boot",
			})
		}
		st.hmu.Unlock()
	}
	st.hmu.Lock()
	st.sweptTmp = swept
	st.hmu.Unlock()
	if swept > 0 {
		if m := obs.Active(); m != nil {
			m.StoreTmpSweep(int64(swept))
		}
		logf("service: swept %d orphaned temp file(s) from %s", swept, st.dir)
	}
	jobs := make([]*Job, 0, len(best))
	for _, c := range best {
		st.put(c.job)
		jobs = append(jobs, c.job)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}
