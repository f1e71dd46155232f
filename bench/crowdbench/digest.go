package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
)

// pinnedDigests maps workload → seed → prefix length → the digest of that
// many first jobs, for the seeds `crowdbench pin` ran. A change that alters
// any answer, ranking or comparison count of a pinned job fails the run's
// correctness check until the pins are regenerated on purpose.
//
//go:embed digests.json
var pinnedDigests []byte

// digest is an FNV-1a hash over (index, mode, best ID, ranked IDs, naive
// comparisons, expert comparisons) of the first k jobs, which must all have
// ended done. recs is sorted by index.
func digest(recs []*jobRec, k int) (string, bool) {
	if len(recs) < k {
		return "", false
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for i, r := range recs[:k] {
		if r.idx != i || r.err != nil {
			return "", false
		}
		put(int64(i))
		h.Write([]byte(r.mode))
		h.Write([]byte{0})
		put(int64(r.out.best))
		put(int64(len(r.out.ranked)))
		for _, id := range r.out.ranked {
			put(int64(id))
		}
		put(r.out.naive)
		put(r.out.expert)
	}
	return fmt.Sprintf("%016x", h.Sum64()), true
}

type pinTable map[string]map[string]map[string]string

// checkPins compares a run's digests with the pinned ones for its workload
// and seed. A pinned prefix the run did not complete (a short smoke run) is
// skipped; an unpinned seed checks nothing.
func checkPins(name string, seed uint64, got map[int]string) []string {
	var pins pinTable
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return []string{fmt.Sprintf("digests.json: %v", err)}
	}
	var problems []string
	for k, want := range pins[name][strconv.FormatUint(seed, 10)] {
		n, err := strconv.Atoi(k)
		if err != nil {
			return []string{fmt.Sprintf("digests.json: prefix %q", k)}
		}
		if d, ok := got[n]; ok && d != want {
			problems = append(problems, fmt.Sprintf("digest of the first %d jobs is %s, pinned %s", n, d, want))
		}
	}
	return problems
}

// pinCmd regenerates bench/crowdbench/digests.json: it runs every workload
// in this process for seeds 1..N until the first prefixJobs jobs are done
// and records their digests.
func pinCmd(args []string) error {
	fl := flag.NewFlagSet("pin", flag.ContinueOnError)
	seeds := fl.Int("seeds", 32, "pin seeds 1..N")
	if err := fl.Parse(args); err != nil {
		return err
	}
	_, root, err := loadSpec()
	if err != nil {
		return err
	}
	pins := pinTable{}
	for _, w := range workloads {
		pins[w.name] = map[string]map[string]string{}
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			res, err := runWorkload(context.Background(), w, runOpts{seed: seed, seconds: 0.1, minJobs: prefixJobs, relaxed: true})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if res.Failed > 0 || len(res.Digests) < 2 {
				return fmt.Errorf("%s seed %d: %d failed jobs, digests %v", w.name, seed, res.Failed, res.Digests)
			}
			byPrefix := map[string]string{}
			for k, d := range res.Digests {
				byPrefix[strconv.Itoa(k)] = d
			}
			pins[w.name][strconv.FormatUint(seed, 10)] = byPrefix
			fmt.Fprintf(os.Stderr, "pin: %s seed %d: %v\n", w.name, seed, byPrefix)
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "crowdbench", "digests.json"), append(data, '\n'), 0o644)
}
