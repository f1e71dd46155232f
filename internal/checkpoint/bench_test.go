package checkpoint

import (
	"math/rand/v2"
	"testing"
)

// memoState returns a max-find snapshot whose naive table holds pairs
// distinct pairs among n items, in canonical order — the shape of a
// filter-phase memo.
func memoState(n, pairs int) *State {
	r := rand.New(rand.NewPCG(1, 2))
	seen := make(map[[2]int64]bool, pairs)
	s := &State{Kind: KindMaxFind, NItems: n, Phase: "interval"}
	for len(s.NaiveMemo) < pairs {
		a, b := r.Int64N(int64(n)), r.Int64N(int64(n))
		if a == b || seen[[2]int64{min(a, b), max(a, b)}] {
			continue
		}
		seen[[2]int64{min(a, b), max(a, b)}] = true
		w := a
		if r.IntN(2) == 0 {
			w = b
		}
		s.NaiveMemo = append(s.NaiveMemo, PairAnswer{A: a, B: b, Winner: w})
	}
	s.SortPairs()
	return s
}

// BenchmarkEncoderEncode measures one snapshot encode of a 7000-pair
// table (an n=500, un=6 run at the end of its filter phase) through a
// reused Encoder — the per-snapshot encode cost of a checkpointing run.
func BenchmarkEncoderEncode(b *testing.B) {
	s := memoState(500, 7000)
	var e Encoder
	b.ReportAllocs()
	b.SetBytes(int64(len(e.Encode(s))))
	for i := 0; i < b.N; i++ {
		e.Encode(s)
	}
}

// BenchmarkEncoderWalk is BenchmarkEncoderEncode with the table streamed
// through a PairWalk, as a checkpointing run's bases are from its memos.
func BenchmarkEncoderWalk(b *testing.B) {
	s := memoState(500, 7000)
	t := s.NaiveMemo
	live := &Live{
		Naive: func(yield func(a, b int, bWon bool)) {
			for _, e := range t {
				yield(int(e.A), int(e.B), e.Winner == e.B)
			}
		},
		Expert:   func(func(a, b int, bWon bool)) {},
		Counters: func(*State) {},
	}
	var e Encoder
	b.ReportAllocs()
	b.SetBytes(int64(len(e.encode(s, live))))
	for i := 0; i < b.N; i++ {
		e.encode(s, live)
	}
}
