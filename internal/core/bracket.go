package core

import (
	"context"
	"fmt"

	"crowdmax/internal/item"
	"crowdmax/internal/tournament"
)

// BracketOptions configures TournamentMax.
type BracketOptions struct {
	// Repetitions is the number of independent answers collected per
	// match, aggregated by majority (ties broken by asking once more).
	// Must be odd; defaults to 1.
	Repetitions int
}

// TournamentMax is the classic single-elimination ("bracket") tournament
// baseline discussed in the paper's related work (Venetis et al.'s static
// tournaments): elements are paired round by round, each match decided by a
// majority over Repetitions independent answers, until one element remains.
// Odd elements receive a bye.
//
// It performs exactly (n − 1)·Repetitions comparisons and ⌈log2 n⌉ logical
// steps — the cheapest and most parallel of the baselines — but under the
// threshold model its winner can be up to ⌈log2 n⌉·δ below the maximum in
// the worst case (each round can lose δ), and under the probabilistic model
// a single early upset eliminates the maximum; repetition helps against the
// latter and is useless against the former. This contrast with Algorithm 1
// is the paper's thesis in miniature.
//
// On cancellation or budget exhaustion the first element of the current
// round — a survivor of every completed round — is returned alongside the
// error.
func TournamentMax(ctx context.Context, items []item.Item, o *tournament.Oracle, opt BracketOptions) (item.Item, error) {
	if len(items) == 0 {
		return item.Item{}, ErrNoItems
	}
	rep := opt.Repetitions
	if rep <= 0 {
		rep = 1
	}
	if rep%2 == 0 {
		return item.Item{}, fmt.Errorf("core: bracket repetitions must be odd, got %d", rep)
	}
	if rep > 1 && o.Memoized() {
		// A memoized oracle replays the first answer, silently collapsing
		// the majority vote to a single sample.
		return item.Item{}, fmt.Errorf("core: bracket repetitions require a non-memoized oracle")
	}

	round := make([]item.Item, len(items))
	copy(round, items)
	// Arena-style: the pair, winner, and survivor buffers are sized once
	// from the first (largest) round and reused by every later round, as is
	// the batch scratch — the loop itself allocates nothing. Pairs and
	// winners are indices into the round.
	pairs := make([][2]int32, 0, len(round)/2*rep)
	winners := make([]int32, 0, len(round)/2*rep)
	next := make([]item.Item, 0, (len(round)+1)/2)
	var scratch tournament.BatchScratch
	for len(round) > 1 {
		// One logical step per round: all matches (with all their
		// repetitions) are independent.
		pairs = pairs[:0]
		for i := int32(0); i+1 < int32(len(round)); i += 2 {
			for v := 0; v < rep; v++ {
				pairs = append(pairs, [2]int32{i, i + 1})
			}
		}
		winners = winners[:len(pairs)]
		if err := o.CompareBatchInto(ctx, round, pairs, winners, &scratch); err != nil {
			return round[0], err
		}
		next = next[:0]
		p := 0
		for i := 0; i+1 < len(round); i += 2 {
			votesA := 0
			for v := 0; v < rep; v++ {
				if winners[p] == int32(i) {
					votesA++
				}
				p++
			}
			if 2*votesA > rep {
				next = append(next, round[i])
			} else {
				next = append(next, round[i+1])
			}
		}
		if len(round)%2 == 1 {
			next = append(next, round[len(round)-1]) // bye
		}
		round, next = next, round[:0] // double-buffer swap
	}
	return round[0], nil
}

// BracketComparisons returns the exact comparison count of TournamentMax on
// n elements with the given repetitions: (n − 1)·rep.
func BracketComparisons(n, repetitions int) int {
	if repetitions < 1 {
		repetitions = 1
	}
	if n < 1 {
		return 0
	}
	return (n - 1) * repetitions
}
