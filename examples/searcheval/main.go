// Searcheval reproduces the paper's Section 5.3 application: evaluating
// search-engine results. Crowd workers prefilter 50 results for a technical
// query; a domain expert (here: a researcher who knows the current best
// approximation algorithm) examines only the few finalists. The un(n)
// parameter is estimated from gold data with Algorithm 4 rather than
// assumed.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdmax"
)

func main() {
	r := crowdmax.NewRand(23)

	for _, query := range []crowdmax.SearchQuery{crowdmax.QueryAsymmetricTSP, crowdmax.QuerySteinerTree} {
		qr := r.Child(string(query))
		set, err := crowdmax.SearchDataset(query, 50, 0.05, qr.Child("data"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query: %q — %d results\n", query, set.Len())
		fmt.Printf("ground-truth best: %s\n", set.Max().Label)

		// Crowd workers hit the expertise barrier on closely relevant
		// results (relative relevance difference under 20%).
		world := crowdmax.NewWorkerWorld(crowdmax.PlateauRegime{Threshold: 0.2, Epsilon: 0.02}, qr.Child("world"))
		crowd := world.Worker(qr.Child("crowd"))

		// Estimate perr and un from the result list used as gold data
		// (Section 4.4), instead of guessing.
		est := crowdmax.NewOracle(crowd, crowdmax.Naive, nil, nil)
		perr, err := crowdmax.EstimatePerr(context.Background(), set.Items(), est, crowdmax.EstimatePerrOptions{
			Pairs: 60, Votes: 7, R: qr.Child("perr"),
		})
		if err != nil {
			log.Fatal(err)
		}
		un, err := crowdmax.EstimateUn(context.Background(), set.Items(), est, crowdmax.EstimateUnOptions{
			Perr: perr, N: set.Len(),
		})
		if err != nil {
			log.Fatal(err)
		}
		if un > set.Len()/4 {
			un = set.Len() / 4
		}
		fmt.Printf("estimated perr=%.2f, un(50)=%d\n", perr, un)

		// The expert: distinguishes relevance gaps above 0.02, so the
		// clear best (gap ≥ 0.05) is always identified.
		session, err := crowdmax.NewSession(crowdmax.Config{
			Naive:  crowd,
			Expert: crowdmax.NewThresholdWorker(0.02, 0, qr.Child("expert")),
			Un:     un,
			Prices: crowdmax.Prices{Naive: 1, Expert: 50},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := session.FindMax(set.Items())
		if err != nil {
			log.Fatal(err)
		}
		verdict := "MISSED"
		if res.Best.ID == set.Max().ID {
			verdict = "found"
		}
		fmt.Printf("two-phase: %s the best result (|S|=%d, cost %.0f)\n",
			verdict, len(res.Candidates), res.Cost)

		// The paper's negative result: a naive-only 2-MaxFind is not
		// reliable for this task.
		no := crowdmax.NewOracle(world.Worker(qr.Child("naiveonly")), crowdmax.Naive, nil, crowdmax.NewMemo(set.Len()))
		naiveBest, err := crowdmax.TwoMaxFind(context.Background(), set.Items(), no)
		if err != nil {
			log.Fatal(err)
		}
		naiveVerdict := "MISSED"
		if naiveBest.ID == set.Max().ID {
			naiveVerdict = "found"
		}
		fmt.Printf("naive-only 2-MaxFind: %s the best result (returned true rank %d)\n\n",
			naiveVerdict, set.Rank(naiveBest.ID))
	}
}
