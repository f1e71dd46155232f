// Bestcar reproduces the paper's motivating CARS scenario end to end: find
// the most expensive car in a catalogue when crowd workers cannot reliably
// compare close prices (Figure 1(b)-(c) of the paper), using cheap crowd
// workers to prefilter and a hired pricing expert to decide among the
// finalists.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdmax"
)

func main() {
	r := crowdmax.NewRand(7)

	// The synthetic stand-in for the paper's cars.com catalogue: 110
	// cars, $14K–$130K, every pair at least $500 apart.
	catalogue, cars, err := crowdmax.CarsDataset(crowdmax.CarsConfig{}, r.Child("cars"))
	if err != nil {
		log.Fatal(err)
	}
	set, err := crowdmax.SampleDataset(catalogue, 50, r.Child("sample"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalogue: %d cars, submitted sample: %d\n", len(cars), set.Len())
	fmt.Printf("ground truth best: %s\n\n", set.Max().Label)

	// Crowd workers follow the expertise-barrier regime measured in the
	// paper's Figure 2(b): below ~20%% price difference their collective
	// lean is a per-pair coin that majority voting cannot fix.
	world := crowdmax.NewWorkerWorld(crowdmax.PlateauRegime{Threshold: 0.2, Epsilon: 0.02}, r.Child("world"))

	// A hired pricing expert can distinguish prices more than ~$3K apart.
	expert := crowdmax.NewThresholdWorker(3000, 0, r.Child("expert"))

	session, err := crowdmax.NewSession(crowdmax.Config{
		Naive:  world.Worker(r.Child("crowd")),
		Expert: expert,
		Un:     5,
		Prices: crowdmax.Prices{Naive: 1, Expert: 100}, // experts are 100× pricier
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.FindMax(set.Items())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("finalists after the crowd phase:")
	for _, c := range res.Candidates {
		fmt.Printf("  %s (true rank %d)\n", c.Label, set.Rank(c.ID))
	}
	fmt.Printf("\nexpert's pick: %s (true rank %d)\n", res.Best.Label, set.Rank(res.Best.ID))
	fmt.Printf("cost: %d crowd + %d expert comparisons = %.0f units\n",
		res.NaiveComparisons, res.ExpertComparisons, res.Cost)

	// What the paper's Table 2 shows: simulating the expert with 7 crowd
	// votes does NOT work for this task.
	fmt.Println("\nfor contrast, a \"simulated expert\" (majority of 7 crowd answers):")
	simulated := majorityOf(world, r.Child("sim"), 7)
	ledger := crowdmax.NewLedger()
	so := crowdmax.NewOracle(simulated, crowdmax.Expert, ledger, crowdmax.NewMemo(set.Len()))
	simBest, err := crowdmax.TwoMaxFind(context.Background(), res.Candidates, so)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated expert's pick: %s (true rank %d)\n", simBest.Label, set.Rank(simBest.ID))
}

// majorityOf aggregates k independent answers from the crowd world into one
// comparator — the paper's expert simulation.
func majorityOf(world *crowdmax.WorkerWorld, r *crowdmax.Rand, k int) crowdmax.Comparator {
	return crowdmax.ComparatorFunc(func(a, b crowdmax.Item) crowdmax.Item {
		votesA := 0
		for i := 0; i < k; i++ {
			if world.Worker(r).Compare(a, b).ID == a.ID {
				votesA++
			}
		}
		if 2*votesA > k {
			return a
		}
		return b
	})
}
