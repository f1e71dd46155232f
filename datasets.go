package crowdmax

import (
	"io"

	"crowdmax/internal/dataset"
	"crowdmax/internal/platform"
	"crowdmax/internal/worker"
)

// This file re-exports the dataset generators and the crowdsourcing
// platform simulator, so applications can reproduce the paper's scenarios
// through the public API alone.

// UniformDataset returns n items with values uniform in [lo, hi) — the
// random-instance generator of the paper's simulations.
func UniformDataset(n int, lo, hi float64, r *Rand) *Set {
	return dataset.Uniform(n, lo, hi, r)
}

// Calibrated is a generated instance with thresholds δn, δe calibrated to
// exact un and ue targets.
type Calibrated = dataset.Calibrated

// CalibratedUniform generates a uniform instance and calibrates δn, δe so
// that exactly un (resp. ue) elements are indistinguishable from the
// maximum for naïve workers (resp. experts).
func CalibratedUniform(n, un, ue int, r *Rand) (Calibrated, error) {
	return dataset.UniformCalibrated(n, un, ue, r)
}

// Car describes one car of the synthetic CARS catalogue.
type Car = dataset.Car

// CarsConfig tunes the synthetic CARS catalogue; the zero value reproduces
// the paper's envelope (110 cars, $14K–$130K, ≥$500 apart, right-skewed).
type CarsConfig = dataset.CarsConfig

// CarsDataset generates the synthetic stand-in for the paper's CARS data.
func CarsDataset(cfg CarsConfig, r *Rand) (*Set, []Car, error) {
	return dataset.Cars(cfg, r)
}

// DotsDataset returns the synthetic DOTS instance: n images represented by
// their dot counts (values are negated counts, so max-finding finds the
// image with the fewest dots, as in the paper's task).
func DotsDataset(n int) *Set { return dataset.Dots(n) }

// DotsGold returns the paper's DOTS golden set for platform quality
// control.
func DotsGold() []Item { return dataset.DotsGold() }

// SearchQuery names a Section 5.3 evaluation query.
type SearchQuery = dataset.SearchQuery

// The paper's two evaluation queries.
const (
	QueryAsymmetricTSP = dataset.QueryAsymmetricTSP
	QuerySteinerTree   = dataset.QuerySteinerTree
)

// SearchDataset generates the synthetic result list for a query: n results
// with decaying relevance and one clear best separated by bestGap.
func SearchDataset(query SearchQuery, n int, bestGap float64, r *Rand) (*Set, error) {
	return dataset.SearchResults(query, n, bestGap, r)
}

// SampleDataset draws a uniform subsample of k items as its own Set.
func SampleDataset(s *Set, k int, r *Rand) (*Set, error) {
	return dataset.SampleSet(s, k, r)
}

// ReadCSV loads a Set from "label,value" CSV rows (header optional), the
// entry point for real datasets.
func ReadCSV(r io.Reader) (*Set, error) { return dataset.ReadCSV(r) }

// Platform simulates a crowdsourcing platform: a worker pool, batched
// comparison jobs billed in logical steps, gold-question quality control,
// and majority-vote aggregation.
type Platform = platform.Platform

// PlatformConfig tunes a Platform; zero values select the paper's
// CrowdFlower setup (15% gold queries, 70% accuracy floor).
type PlatformConfig = platform.Config

// PlatformPair is one comparison task submitted to a Platform.
type PlatformPair = platform.Pair

// NewPlatform creates a Platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return platform.New(cfg) }

// WorkerWorld holds per-pair latent question difficulties under a Regime
// and hands out workers that share them — the empirical model behind the
// paper's Figure 2.
type WorkerWorld = worker.World

// Regime assigns latent per-pair correctness probabilities; see
// WisdomRegime and PlateauRegime.
type Regime = worker.Regime

// WisdomRegime models wisdom-of-crowds tasks (DOTS): majority voting
// drives accuracy to 1.
type WisdomRegime = worker.WisdomRegime

// PlateauRegime models expertise-barrier tasks (CARS): accuracy on hard
// pairs plateaus regardless of the number of voters.
type PlateauRegime = worker.PlateauRegime

// NewWorkerWorld creates a WorkerWorld for the given regime.
func NewWorkerWorld(regime Regime, r *Rand) *WorkerWorld { return worker.NewWorld(regime, r) }

// Spammer is a worker answering uniformly at random; the platform's gold
// questions exist to ban these.
type Spammer = worker.Spammer
