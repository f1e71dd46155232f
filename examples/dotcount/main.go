// Dotcount reproduces the paper's DOTS scenario on the simulated
// crowdsourcing platform: find the image with the fewest dots using a crowd
// whose accuracy improves with the number of voters (the wisdom-of-crowds
// regime), with gold questions filtering out spammers — and simulate the
// expert phase with majority votes, which works for this task.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdmax"
)

func main() {
	r := crowdmax.NewRand(11)

	// 50 images with 100..1080 dots; values are negated counts so
	// max-finding finds the fewest dots.
	set := crowdmax.DotsDataset(50)
	fmt.Printf("task: find the image with the fewest dots among %d images\n", set.Len())
	fmt.Printf("ground truth: %s\n\n", set.Max().Label)

	// The simulated platform: 25 honest workers whose per-pair accuracy
	// follows the wisdom regime fitted to the paper's Figure 2(a), plus 5
	// spammers answering at random.
	plat, err := crowdmax.NewPlatform(crowdmax.PlatformConfig{R: r.Child("platform")})
	if err != nil {
		log.Fatal(err)
	}
	world := crowdmax.NewWorkerWorld(crowdmax.WisdomRegime{Sharpness: 5}, r.Child("world"))
	for i := 0; i < 25; i++ {
		plat.AddWorker(world.Worker(r.ChildN("worker", i)))
	}
	for i := 0; i < 5; i++ {
		plat.AddWorker(crowdmax.Spammer{R: r.ChildN("spammer", i)})
	}

	// Gold questions with known answers (the paper used 30 extra images);
	// workers under 70% gold accuracy are ignored.
	gold := crowdmax.DotsGold()
	var goldPairs []crowdmax.PlatformPair
	for i := 15; i < len(gold); i++ {
		goldPairs = append(goldPairs, crowdmax.PlatformPair{A: gold[i-15], B: gold[i]})
	}
	plat.SetGold(goldPairs)

	// Phase 1: each comparison is answered by 21 workers and
	// majority-aggregated, as in the paper's CrowdFlower setup; each
	// tournament round is submitted as one platform batch (one logical
	// step in the Section 3 execution model).
	ledger := crowdmax.NewLedger()
	naive := crowdmax.NewOracle(plat.BatchComparator(21), crowdmax.Naive, ledger, crowdmax.NewMemo(set.Len()))
	candidates, err := crowdmax.Filter(context.Background(), set.Items(), naive, crowdmax.FilterOptions{Un: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 kept %d candidates:\n", len(candidates))
	for _, c := range candidates {
		fmt.Printf("  %s (true rank %d)\n", c.Label, set.Rank(c.ID))
	}

	// Phase 2: no real experts needed — for this task a "simulated
	// expert" (majority of 7 fresh answers) suffices, exactly the paper's
	// Table 1 finding.
	expert := crowdmax.NewOracle(plat.BatchComparator(7), crowdmax.Expert, ledger, crowdmax.NewMemo(set.Len()))
	best, err := crowdmax.TwoMaxFind(context.Background(), candidates, expert)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nresult: %s (true rank %d)\n", best.Label, set.Rank(best.ID))
	fmt.Printf("platform stats: %d answers served (%d gold), %d logical steps, %d physical steps\n",
		plat.ServedTasks(), plat.ServedGold(), plat.LogicalSteps(), plat.PhysicalSteps())
	fmt.Printf("quality control banned %d of %d workers\n", plat.BannedWorkers(), 30)
}
