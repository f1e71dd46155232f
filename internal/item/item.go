// Package item defines the universe of elements over which the max-finding
// algorithms operate.
//
// Following Section 3 of the paper, an element e has a real value v(e); the
// distance between two elements is d(u, v) = |v(u) − v(v)|. The maximum
// element of a set L is any element attaining max v(e) over L. The quantity
// un(n) = |{e : d(M, e) ≤ δ}| counts the elements indistinguishable from the
// maximum at discernment threshold δ (the maximum itself included, since
// d(M, M) = 0).
package item

import (
	"fmt"
	"sort"
)

// Item is one element of the universe. Value is the ground-truth value v(e)
// that human workers can only approximately compare; Label is an optional
// human-readable description (a car model, an image name, a search result).
type Item struct {
	// ID identifies the item within its Set. IDs are dense indices
	// 0..n−1 assigned by NewSet; they index the rows and cells of the
	// n × n memoization tables, which are sized by the largest ID.
	ID int
	// Value is v(e), the ground-truth value of the element.
	Value float64
	// Label is an optional description shown in reports.
	Label string
}

// Distance returns d(a, b) = |v(a) − v(b)|.
func Distance(a, b Item) float64 {
	d := a.Value - b.Value
	if d < 0 {
		d = -d
	}
	return d
}

// Set is an immutable collection of items with precomputed order statistics.
// The zero value is an empty set; use NewSet to build one.
type Set struct {
	items  []Item
	byrank []int // byrank[r] = index into items of the rank-(r+1) item
	rank   []int // rank[id] = true rank of item id (1 = maximum)
}

// NewSet builds a Set from values. Items receive IDs 0..len(values)−1 and
// empty labels.
func NewSet(values []float64) *Set {
	items := make([]Item, len(values))
	for i, v := range values {
		items[i] = Item{ID: i, Value: v}
	}
	return NewSetItems(items)
}

// NewSetItems builds a Set from explicit items, reassigning IDs to the dense
// range 0..n−1 (labels and values are preserved).
func NewSetItems(items []Item) *Set {
	s := &Set{items: make([]Item, len(items))}
	copy(s.items, items)
	for i := range s.items {
		s.items[i].ID = i
	}
	s.byrank = make([]int, len(s.items))
	for i := range s.byrank {
		s.byrank[i] = i
	}
	sort.SliceStable(s.byrank, func(a, b int) bool {
		return s.items[s.byrank[a]].Value > s.items[s.byrank[b]].Value
	})
	s.rank = make([]int, len(s.items))
	for r, idx := range s.byrank {
		s.rank[idx] = r + 1
	}
	return s
}

// Len returns the number of items in the set.
func (s *Set) Len() int { return len(s.items) }

// Item returns the item with the given ID.
func (s *Set) Item(id int) Item { return s.items[id] }

// Items returns a copy of all items in ID order.
func (s *Set) Items() []Item {
	out := make([]Item, len(s.items))
	copy(out, s.items)
	return out
}

// IDs returns the dense list of all item IDs, 0..n−1.
func (s *Set) IDs() []int {
	ids := make([]int, len(s.items))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Max returns the maximum element M of the set. It panics on an empty set.
func (s *Set) Max() Item {
	if len(s.items) == 0 {
		panic("item: Max of empty set")
	}
	return s.items[s.byrank[0]]
}

// ByRank returns the item of the given true rank (1 = maximum). Ties are
// broken by insertion order, consistently with Rank.
func (s *Set) ByRank(r int) Item {
	if r < 1 || r > len(s.items) {
		panic(fmt.Sprintf("item: rank %d out of range [1,%d]", r, len(s.items)))
	}
	return s.items[s.byrank[r-1]]
}

// Rank returns the true rank of the item with the given ID (1 = maximum).
// This is the accuracy measure of Section 5.1: "If the rank is 1 then we
// have perfect accuracy, and the higher is the rank the lower the accuracy."
func (s *Set) Rank(id int) int { return s.rank[id] }

// UCount returns u(δ) = |{e ∈ S : d(M, e) ≤ δ}|, the number of elements
// indistinguishable from the maximum at threshold δ, including the maximum
// itself. For naïve workers this is un(n); for experts, ue(n).
func (s *Set) UCount(delta float64) int {
	if len(s.items) == 0 {
		return 0
	}
	m := s.Max()
	count := 0
	for _, it := range s.items {
		if Distance(m, it) <= delta {
			count++
		}
	}
	return count
}

// DeltaForU returns a threshold δ such that UCount(δ) == u, or an error if
// no such threshold exists (which happens only when the u-th and (u+1)-th
// closest elements to the maximum are at identical distance). For u == Len()
// it returns the distance to the farthest element.
//
// This is how the experiments of Section 5 pin un(n) and ue(n) to exact
// target values as n varies: the instance is generated first, then δn and δe
// are calibrated against it.
func (s *Set) DeltaForU(u int) (float64, error) {
	n := len(s.items)
	if u < 1 || u > n {
		return 0, fmt.Errorf("item: target u=%d out of range [1,%d]", u, n)
	}
	m := s.Max()
	dists := make([]float64, n)
	for i, it := range s.items {
		dists[i] = Distance(m, it)
	}
	sort.Float64s(dists)
	// dists[0] == 0 is the maximum itself. UCount(δ) == u requires
	// dists[u−1] ≤ δ and (if u < n) dists[u] > δ.
	if u == n {
		return dists[n-1], nil
	}
	if dists[u] <= dists[u-1] {
		return 0, fmt.Errorf("item: no threshold separates u=%d (ties at distance %g)", u, dists[u-1])
	}
	return dists[u-1] + (dists[u]-dists[u-1])/2, nil
}

// Subset returns the items with the given IDs, in the given order.
func (s *Set) Subset(ids []int) []Item {
	out := make([]Item, len(ids))
	for i, id := range ids {
		out[i] = s.items[id]
	}
	return out
}
