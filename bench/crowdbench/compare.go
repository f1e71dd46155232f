package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// runFile is one result file: every selected workload's result for one seed.
type runFile struct {
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func readRunFile(path string) (runFile, error) {
	var rf runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// verdict is the comparison of one metric on one workload across paired
// runs of a parent and a change.
type verdict struct {
	pairs            int
	winShare         float64
	p, c             [3]float64 // quartiles of the parent's and the change's runs
	pSpread, cSpread float64
	call             string
}

// judge applies the paired-run rule: the change gains only when it wins at
// least nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than the parent's interquartile distance; a
// spread wider than the bound leaves the metric unresolved unless every
// change run reads better than every parent run; otherwise a median worse
// by more than the bound is a regression. Runs pair by position.
func judge(parent, change []float64, higherBetter bool, bound float64) verdict {
	v := verdict{pairs: min(len(parent), len(change))}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range v.pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if v.pairs > 0 {
		v.winShare = float64(wins) / float64(v.pairs)
	}
	v.p[0], v.p[1], v.p[2] = quartiles(parent)
	v.c[0], v.c[1], v.c[2] = quartiles(change)
	v.pSpread, v.cSpread = spread(parent), spread(change)
	gap := v.c[1] - v.p[1] // positive: the change reads better
	if !higherBetter {
		gap = -gap
	}
	allBetter := false
	if len(parent) > 0 && len(change) > 0 {
		if higherBetter {
			allBetter = slices.Min(change) > slices.Max(parent)
		} else {
			allBetter = slices.Max(change) < slices.Min(parent)
		}
	}
	switch {
	case v.winShare >= 0.9 && gap > v.p[2]-v.p[0]:
		v.call = "gain"
	case bound > 0 && max(v.pSpread, v.cSpread) > bound && !allBetter:
		v.call = "unresolved"
	case bound > 0 && -gap > bound*math.Abs(v.p[1]):
		v.call = "regression"
	default:
		v.call = "same"
	}
	return v
}

// compareCmd implements `crowdbench compare <parent.json>… -- <change.json>…`.
func compareCmd(w io.Writer, args []string) error {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		return errors.New("usage: crowdbench compare <parent.json>... -- <change.json>...")
	}
	load := func(paths []string) ([]runFile, error) {
		var out []runFile
		for _, p := range paths {
			rf, err := readRunFile(p)
			if err != nil {
				return nil, err
			}
			out = append(out, rf)
		}
		return out, nil
	}
	parent, err := load(args[:i])
	if err != nil {
		return err
	}
	change, err := load(args[i+1:])
	if err != nil {
		return err
	}
	if len(parent) != len(change) {
		fmt.Fprintf(w, "note: %d parent runs and %d change runs; only %d pairs count\n",
			len(parent), len(change), min(len(parent), len(change)))
	}
	spec, _, err := loadSpec()
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for _, rf := range parent {
		for n := range rf.Workloads {
			names[n] = true
		}
	}
	var wls []string
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-10s %-30s %5s %5s %24s %24s %8s  %s\n",
		"workload", "metric", "pairs", "wins", "parent q1/median/q3", "change q1/median/q3", "bound", "verdict")
	for _, wl := range wls {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			var pv, cv []float64
			for k := range min(len(parent), len(change)) {
				a, okA := parent[k].Workloads[wl].Metrics[m.Name]
				b, okB := change[k].Workloads[wl].Metrics[m.Name]
				if okA && okB {
					pv, cv = append(pv, a.Value), append(cv, b.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			v := judge(pv, cv, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-10s %-30s %5d %4.0f%% %24s %24s %8s  %s\n", wl, m.Name, v.pairs, 100*v.winShare,
				fmt.Sprintf("%.4g/%.4g/%.4g", v.p[0], v.p[1], v.p[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.c[0], v.c[1], v.c[2]),
				boundText(m.Bound), v.call)
		}
	}
	return nil
}

func boundText(b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*b)
}
