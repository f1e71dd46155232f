// Package trust extracts a reliable-worker core from a worker agreement
// graph with no ground truth — the gold-free counterpart of the gold-probe
// health tracking in internal/dispatch.
//
// The paper's Algorithm-4-style quality control assumes an adversary that
// fails gold questions. A coordinated clique that answers gold honestly but
// lies everywhere else sails straight through: gold accuracy stays perfect
// while every real answer is poisoned. Kawase, Kuroki and Miyauchi ("Graph
// Mining Meets Crowdsourcing") observe that the reliable core can instead be
// recovered from answers the run already paid for: build a graph whose
// vertices are workers and whose edge weights measure how often two workers
// agreed when independently answering the same task, then extract a densest
// subgraph. Honest workers agree with each other on every pair the threshold
// model lets them resolve, so they form a large dense core; spammers agree
// with everyone at chance level and contribute no weight; a colluding clique
// agrees internally but disagrees with the honest majority, so as long as
// honest workers outnumber the clique the honest core is strictly denser
// and the clique is peeled away.
//
// Graph accumulates agreement observations online (the dispatch pool feeds
// it from its disagreement-sampling duplicates) and Extract runs Charikar's
// greedy peeling — repeatedly remove the vertex of minimum weighted degree,
// keep the densest prefix seen — a deterministic 1/2-approximation of the
// densest subgraph. Everyone outside the core is scored by pooled agreement
// weight into the core; the extraction also carries a confidence signal
// (core/outside separation scaled by sample sufficiency) that gates verdicts
// while the graph is still thin.
//
// A dispatch pool extracts every few duplicates for a whole job, so
// ExtractInto refills a caller-owned Extraction in place: on a graph whose
// vertex set has stopped growing it allocates nothing.
//
// Determinism: observations are order-independent (per-pair counters), and
// peeling breaks ties by a seeded hash of the worker name, so the same
// observation multiset and seed extract the same core on every replay.
package trust

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Config parameterizes extraction. The zero value gets usable defaults.
type Config struct {
	// MinSamples is the pooled sample count a worker needs against the core
	// before it receives a score (and therefore a verdict). Defaults to 4,
	// mirroring HealthConfig.MinProbes: one unlucky duplicate cannot
	// condemn an honest worker.
	MinSamples int
	// MinCore is the smallest core Extract will stand behind: a thinner
	// extraction reports Confidence 0 and condemns nobody. Defaults to 3
	// (two workers always agree with themselves trivially; three is the
	// smallest majority worth the name).
	MinCore int
	// Penalty is the weight a disagreement subtracts from an edge (an
	// agreement adds 1); edge weights clip at 0. Defaults to 1, which
	// zeroes chance-level agreers (spammers) and leaves honest edges with
	// weight ≈ (2·rate − 1)·samples.
	Penalty float64
	// ExtractEvery is the number of observations between extractions when
	// the graph is driven by a dispatch pool. Defaults to 16. The Graph
	// itself never extracts spontaneously; this is advice to the caller.
	ExtractEvery int
	// Seed orders peeling tie-breaks. Two graphs with the same seed and
	// observation multiset extract identically.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.MinCore <= 0 {
		c.MinCore = 3
	}
	if c.Penalty <= 0 {
		c.Penalty = 1
	}
	if c.ExtractEvery <= 0 {
		c.ExtractEvery = 16
	}
	return c
}

// edge is one unordered worker pair's agreement tally.
type edge struct {
	agree, total int64
}

// Graph is an online worker agreement graph. Safe for concurrent use.
type Graph struct {
	mu      sync.Mutex
	cfg     Config
	idx     map[string]int
	names   []string
	byName  []int    // vertex indices in name order, kept by nodeLocked
	tie     []uint64 // seeded peeling tie-break hash per vertex
	rank    []int    // rank[i] is vertex i's position in tie-break order
	edges   [][]edge // edges[j][i] tallies the pair i < j
	samples int64

	// w holds the clipped edge weights as a mirrored matrix, row i at
	// w[i*stride:]; the stride doubles as vertices arrive.
	w      []float64
	stride int

	// Extract's working buffers, reused across calls; guarded by mu.
	deg              []float64
	core             []bool
	live, removed    []int
	agreeIn, totalIn []int64
}

// New returns an empty graph under cfg (defaults applied).
func New(cfg Config) *Graph {
	return &Graph{cfg: cfg.withDefaults(), idx: map[string]int{}}
}

// Config returns the graph's effective (defaulted) configuration.
func (g *Graph) Config() Config {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}

// Observe records that workers a and b independently answered the same task
// and either agreed or did not. Self-observations are ignored. Observation
// order does not matter.
func (g *Graph) Observe(a, b string, agreed bool) {
	if a == b {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	i, j := g.nodeLocked(a), g.nodeLocked(b)
	e := g.edgeLocked(i, j)
	e.total++
	if agreed {
		e.agree++
	}
	g.samples++
	g.w[i*g.stride+j] = g.weight(*e)
	g.w[j*g.stride+i] = g.w[i*g.stride+j]
}

// weight is an edge's clipped weight: agreement minus penalized
// disagreement, ≥ 0. A spammer's chance-level edges zero out; honest edges
// accumulate.
func (g *Graph) weight(e edge) float64 {
	w := float64(e.agree) - g.cfg.Penalty*float64(e.total-e.agree)
	if w <= 0 {
		return 0
	}
	return w
}

// Forget erases every edge touching name — the fresh start a reinstated
// worker gets, so a stale grudge cannot instantly re-condemn it. The vertex
// itself remains (with no edges it carries no weight and no score).
func (g *Graph) Forget(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.idx[name]
	if !ok {
		return
	}
	for j := range g.edges {
		if j != i {
			e := g.edgeLocked(i, j)
			g.samples -= e.total
			*e = edge{}
			g.w[i*g.stride+j], g.w[j*g.stride+i] = 0, 0
		}
	}
}

// Samples returns the total number of observations recorded (and not
// forgotten).
func (g *Graph) Samples() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.samples
}

func (g *Graph) nodeLocked(name string) int {
	if i, ok := g.idx[name]; ok {
		return i
	}
	i := len(g.names)
	g.idx[name] = i
	g.names = append(g.names, name)
	at, _ := slices.BinarySearchFunc(g.byName, name, func(v int, name string) int {
		return strings.Compare(g.names[v], name)
	})
	g.byName = slices.Insert(g.byName, at, i)
	h := fnv.New64a()
	h.Write([]byte(name))
	g.tie = append(g.tie, splitmix(g.cfg.Seed^h.Sum64()))
	r := 0
	for v := range i {
		if g.beforeLocked(v, i) {
			r++
		} else {
			g.rank[v]++
		}
	}
	g.rank = append(g.rank, r)
	g.edges = append(g.edges, make([]edge, i))
	if i == g.stride {
		stride := max(8, 2*g.stride)
		w := make([]float64, stride*stride)
		for j := range i {
			copy(w[j*stride:j*stride+i], g.w[j*g.stride:])
		}
		g.w, g.stride = w, stride
	}
	return i
}

// edgeLocked returns the tally of the pair of distinct vertices i and j.
func (g *Graph) edgeLocked(i, j int) *edge {
	return &g.edges[max(i, j)][min(i, j)]
}

// Extraction is one dense-core extraction: the expert-labelled core, pooled
// agreement scores, and how much the extraction should be trusted.
type Extraction struct {
	// Core lists the extracted core workers, sorted by name. Empty when the
	// graph carries no positive-weight edge.
	Core []string
	// Scores maps each worker with at least MinSamples pooled observations
	// against core members to its pooled agreement rate with the core, in
	// [0, 1]. Core members score against the rest of the core. Workers with
	// too few samples are absent — no verdict, not a bad one.
	Scores map[string]float64
	// Density is the core's weighted edge density (total clipped edge
	// weight over core size), the quantity greedy peeling maximizes.
	Density float64
	// Confidence is how much the extraction should be trusted, in [0, 1]:
	// the core/outside agreement separation scaled by sample sufficiency.
	// 0 while the graph is too thin (or the core too small) to stand
	// behind; verdicts must not be applied at 0.
	Confidence float64
	// Samples is the observation count the extraction was computed from.
	Samples int64
}

// InCore reports whether name is in the extracted core.
func (x Extraction) InCore(name string) bool {
	i := sort.SearchStrings(x.Core, name)
	return i < len(x.Core) && x.Core[i] == name
}

// Extract runs greedy peeling on the current graph and returns the densest
// core with scores and confidence. Deterministic in (observations, seed).
func (g *Graph) Extract() Extraction {
	var ext Extraction
	g.ExtractInto(&ext)
	return ext
}

// ExtractInto is Extract writing into *ext, reusing the storage of its Core
// slice and Scores map: every field is overwritten, and the map is cleared
// and refilled rather than replaced. Once ext has held an extraction of the
// same graph and no vertex has been added since, the call allocates nothing.
// Whoever hands ext's Core or Scores on must copy them first, since the next
// ExtractInto into the same ext overwrites both.
func (g *Graph) ExtractInto(ext *Extraction) {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(ext.Scores)
	*ext = Extraction{Core: ext.Core[:0], Scores: ext.Scores, Samples: g.samples}
	n := len(g.names)
	if n == 0 {
		return
	}

	// Charikar peeling over the clipped weights Observe and Forget keep
	// current: repeatedly remove the vertex of minimum weighted degree
	// (ties broken by tie-break rank: a seeded hash of the name, then the
	// name) and keep the densest surviving set. O(n) per removal over the
	// swap-removed live list — pools are tens of workers, not thousands.
	deg, live := resize(&g.deg, n), resize(&g.live, n)
	var totalW float64
	for i := 0; i < n; i++ {
		live[i] = i
		deg[i] = 0
		for _, wij := range g.w[i*g.stride : i*g.stride+n] {
			deg[i] += wij
		}
		totalW += deg[i]
	}
	totalW /= 2
	bestDensity, bestSize := -1.0, 0
	removed := g.removed[:0]
	for len(live) > 0 {
		if d := totalW / float64(len(live)); d > bestDensity {
			bestDensity, bestSize = d, len(live)
		}
		k := 0
		for x, i := range live {
			if m := live[k]; deg[i] < deg[m] || (deg[i] == deg[m] && g.rank[i] < g.rank[m]) {
				k = x
			}
		}
		min := live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		totalW -= deg[min]
		for _, j := range live {
			deg[j] -= g.w[min*g.stride+j]
		}
		removed = append(removed, min)
	}
	g.removed = removed
	if bestDensity <= 0 {
		// No positive-weight structure at all — nothing to stand behind.
		return
	}
	// The best prefix is everything not yet removed when it was recorded:
	// the last bestSize entries of the removal order.
	core := resize(&g.core, n)
	clear(core)
	for _, i := range removed[n-bestSize:] {
		core[i] = true
	}
	for _, i := range g.byName {
		if core[i] {
			ext.Core = append(ext.Core, g.names[i])
		}
	}
	ext.Density = bestDensity

	// Pooled agreement against the core, per worker; intra-core and
	// core↔outside pools feed the confidence margin.
	agreeIn, totalIn := resize(&g.agreeIn, n), resize(&g.totalIn, n)
	clear(agreeIn)
	clear(totalIn)
	var coreAgree, coreTotal, outAgree, outTotal int64
	for j, row := range g.edges {
		for i, e := range row {
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
	}
	if ext.Scores == nil {
		ext.Scores = map[string]float64{}
	}
	for i := 0; i < n; i++ {
		if totalIn[i] >= int64(g.cfg.MinSamples) {
			ext.Scores[g.names[i]] = float64(agreeIn[i]) / float64(totalIn[i])
		}
	}

	if bestSize < g.cfg.MinCore || coreTotal == 0 {
		return // Scores stand, but confidence (and verdicts) do not.
	}
	coreRate := float64(coreAgree) / float64(coreTotal)
	// The baseline the core must separate from: observed outside agreement,
	// but never below chance — with nobody outside the core, beating a coin
	// is still the bar.
	baseline := 0.5
	if outTotal > 0 {
		if r := float64(outAgree) / float64(outTotal); r > baseline {
			baseline = r
		}
	}
	margin := 2 * (coreRate - baseline)
	sufficiency := float64(coreTotal) / float64(g.cfg.MinSamples*bestSize)
	ext.Confidence = clamp01(margin) * clamp01(sufficiency)
}

// resize returns *buf resliced to length n, reallocating it when its
// capacity falls short. Contents are not cleared.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// beforeLocked orders vertices i before j for peeling tie-breaks: by seeded
// name hash, then by name. nodeLocked ranks each new vertex by it. Callers
// hold g.mu.
func (g *Graph) beforeLocked(i, j int) bool {
	if g.tie[i] != g.tie[j] {
		return g.tie[i] < g.tie[j]
	}
	return g.names[i] < g.names[j]
}

// splitmix is the SplitMix64 finalizer (mirrors internal/rng's mixer).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
