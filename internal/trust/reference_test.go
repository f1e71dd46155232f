package trust

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"crowdmax/internal/rng"
)

// refGraph is the map-backed agreement graph Graph replaced, kept verbatim
// in its arithmetic as the oracle for TestExtractMatchesMapReference: edges
// in a map keyed by vertex pair, a fresh n×n weight matrix per extraction,
// and the tie hash recomputed on every comparison.
type refGraph struct {
	cfg     Config
	idx     map[string]int
	names   []string
	edges   map[[2]int]*edge
	samples int64
}

func newRefGraph(cfg Config) *refGraph {
	return &refGraph{cfg: cfg.withDefaults(), idx: map[string]int{}, edges: map[[2]int]*edge{}}
}

func (g *refGraph) node(name string) int {
	if i, ok := g.idx[name]; ok {
		return i
	}
	g.idx[name] = len(g.names)
	g.names = append(g.names, name)
	return len(g.names) - 1
}

func (g *refGraph) Observe(a, b string, agreed bool) {
	if a == b {
		return
	}
	i, j := g.node(a), g.node(b)
	if i > j {
		i, j = j, i
	}
	e := g.edges[[2]int{i, j}]
	if e == nil {
		e = &edge{}
		g.edges[[2]int{i, j}] = e
	}
	e.total++
	if agreed {
		e.agree++
	}
	g.samples++
}

func (g *refGraph) Forget(name string) {
	i, ok := g.idx[name]
	if !ok {
		return
	}
	for key, e := range g.edges {
		if key[0] == i || key[1] == i {
			g.samples -= e.total
			delete(g.edges, key)
		}
	}
}

func (g *refGraph) before(i, j int) bool {
	tie := func(i int) uint64 {
		h := fnv.New64a()
		h.Write([]byte(g.names[i]))
		return splitmix(g.cfg.Seed ^ h.Sum64())
	}
	if hi, hj := tie(i), tie(j); hi != hj {
		return hi < hj
	}
	return g.names[i] < g.names[j]
}

func (g *refGraph) Extract() Extraction {
	n := len(g.names)
	ext := Extraction{Samples: g.samples}
	if n == 0 {
		return ext
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for key, e := range g.edges {
		weight := float64(e.agree) - g.cfg.Penalty*float64(e.total-e.agree)
		if weight <= 0 {
			continue
		}
		w[key[0]][key[1]] = weight
		w[key[1]][key[0]] = weight
	}
	alive := make([]bool, n)
	deg := make([]float64, n)
	var totalW float64
	for i := 0; i < n; i++ {
		alive[i] = true
		for j := 0; j < n; j++ {
			deg[i] += w[i][j]
		}
		totalW += deg[i]
	}
	totalW /= 2
	aliveN := n
	bestDensity, bestSize := -1.0, 0
	removed := make([]int, 0, n)
	for aliveN > 0 {
		if d := totalW / float64(aliveN); d > bestDensity {
			bestDensity, bestSize = d, aliveN
		}
		min := -1
		for i := 0; i < n; i++ {
			if alive[i] && (min < 0 || deg[i] < deg[min] || (deg[i] == deg[min] && g.before(i, min))) {
				min = i
			}
		}
		alive[min] = false
		aliveN--
		totalW -= deg[min]
		for j := 0; j < n; j++ {
			if alive[j] {
				deg[j] -= w[min][j]
			}
		}
		removed = append(removed, min)
	}
	if bestDensity <= 0 {
		return ext
	}
	core := make([]bool, n)
	for _, i := range removed[n-bestSize:] {
		core[i] = true
	}
	for i := 0; i < n; i++ {
		if core[i] {
			ext.Core = append(ext.Core, g.names[i])
		}
	}
	sort.Strings(ext.Core)
	ext.Density = bestDensity
	agreeIn := make([]int64, n)
	totalIn := make([]int64, n)
	var coreAgree, coreTotal, outAgree, outTotal int64
	for key, e := range g.edges {
		i, j := key[0], key[1]
		switch {
		case core[i] && core[j]:
			agreeIn[i] += e.agree
			totalIn[i] += e.total
			agreeIn[j] += e.agree
			totalIn[j] += e.total
			coreAgree += e.agree
			coreTotal += e.total
		case core[i]:
			agreeIn[j] += e.agree
			totalIn[j] += e.total
			outAgree += e.agree
			outTotal += e.total
		case core[j]:
			agreeIn[i] += e.agree
			totalIn[i] += e.total
			outAgree += e.agree
			outTotal += e.total
		}
	}
	ext.Scores = map[string]float64{}
	for i := 0; i < n; i++ {
		if totalIn[i] >= int64(g.cfg.MinSamples) {
			ext.Scores[g.names[i]] = float64(agreeIn[i]) / float64(totalIn[i])
		}
	}
	if bestSize < g.cfg.MinCore || coreTotal == 0 {
		return ext
	}
	coreRate := float64(coreAgree) / float64(coreTotal)
	baseline := 0.5
	if outTotal > 0 {
		if r := float64(outAgree) / float64(outTotal); r > baseline {
			baseline = r
		}
	}
	margin := 2 * (coreRate - baseline)
	sufficiency := float64(coreTotal) / float64(g.cfg.MinSamples*bestSize)
	ext.Confidence = clamp01(margin) * clamp01(sufficiency)
	return ext
}

// sameExtraction reports the first difference between two extractions,
// comparing every float by its bits.
func sameExtraction(got, want Extraction) error {
	if !slices.Equal(got.Core, want.Core) {
		return fmt.Errorf("core %v, want %v", got.Core, want.Core)
	}
	if len(got.Scores) != len(want.Scores) {
		return fmt.Errorf("scores %v, want %v", got.Scores, want.Scores)
	}
	for name, s := range want.Scores {
		if g, ok := got.Scores[name]; !ok || math.Float64bits(g) != math.Float64bits(s) {
			return fmt.Errorf("score[%s] = %v (present %v), want %v", name, g, ok, s)
		}
	}
	if math.Float64bits(got.Density) != math.Float64bits(want.Density) {
		return fmt.Errorf("density %v, want %v", got.Density, want.Density)
	}
	if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		return fmt.Errorf("confidence %v, want %v", got.Confidence, want.Confidence)
	}
	if got.Samples != want.Samples {
		return fmt.Errorf("samples %d, want %d", got.Samples, want.Samples)
	}
	return nil
}

// TestExtractMatchesMapReference replays seeded random observation
// histories, with Forget calls mixed in, into Graph and into the map-backed
// reference, and requires every extraction along the way to be
// bit-identical: same core, same scores, same Density and Confidence bits.
// Penalties off 1 make the float weights inexact, so a change in the order
// degrees are summed would show. ExtractInto, refilling one Extraction for
// the whole history, must match too.
func TestExtractMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rng.New(uint64(1000 + trial))
		cfg := Config{
			Seed:       uint64(trial),
			Penalty:    []float64{1, 0.7, 2.5, 1.0 / 3}[trial%4],
			MinSamples: 1 + trial%5,
		}
		g, ref := New(cfg), newRefGraph(cfg)
		var into Extraction
		workers := 2 + r.Intn(24)
		// Each worker agrees with the others at its own rate; a few share
		// a rate exactly, so equal degrees and tie-breaks come up.
		rate := make([]float64, workers)
		for i := range rate {
			rate[i] = []float64{0.95, 0.9, 0.5, 0.1, 1}[r.Intn(5)]
		}
		name := func(i int) string { return fmt.Sprintf("w%02d", i) }
		steps := 50 + r.Intn(800)
		for s := 0; s < steps; s++ {
			switch {
			case r.Intn(97) == 0:
				victim := name(r.Intn(workers + 1)) // sometimes unknown
				g.Forget(victim)
				ref.Forget(victim)
			default:
				i, j := r.Intn(workers), r.Intn(workers)
				agreed := r.Bernoulli(rate[i] * rate[j])
				g.Observe(name(i), name(j), agreed)
				ref.Observe(name(i), name(j), agreed)
			}
			if s%37 == 0 || s == steps-1 {
				want := ref.Extract()
				if err := sameExtraction(g.Extract(), want); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, s, err)
				}
				g.ExtractInto(&into)
				if err := sameExtraction(into, want); err != nil {
					t.Fatalf("trial %d step %d, in place: %v", trial, s, err)
				}
			}
		}
	}
}
