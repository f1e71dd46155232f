package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The metrics this program emits, in BENCHMARK.json's order.
// TestMetricsMatchSpec keeps these lists and the file equal.
var (
	endToEndNames = []string{
		"setup_s", "jobs_per_s", "latency_p50_ms", "latency_tail_ms", "cost_per_job", "rss_p50_mb",
	}
	perLayerNames = []string{
		"service.submit_p50_ms", "service.submit_tail_ms", "service.admit_wait_p50_ms",
		"service.refusals_per_job", "service.queue_p50_ms", "service.run_p50_ms",
		"store.writes_per_job", "store.fsyncs_per_job", "store.write_p50_ms",
		"checkpoint.snapshots_per_job", "checkpoint.bytes_per_job", "checkpoint.write_p50_ms",
		"checkpoint.io_share", "checkpoint.save_final_ms",
		"crowdmax.max_run_p50_ms", "crowdmax.topk_run_p50_ms", "crowdmax.pool_run_p50_ms",
		"crowdmax.phase1_share",
		"core.naive_cmp_per_job", "core.expert_cmp_per_job", "tournament.memo_hit_share",
		"dispatch.duplicates_per_job", "trust.extract_ms",
		"loadgen.lateness_p99_ms", "obs.trace_overhead_share",
	}
)

// benchSpec is the part of BENCHMARK.json this program reads: one source
// for the metric units, directions and regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// directory above it, and returns it with the directory it was found in.
func loadSpec() (*benchSpec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		up := filepath.Dir(dir)
		if up == dir {
			return nil, "", errors.New("no BENCHMARK.json in the working directory or above it; run from the repository root")
		}
		dir = up
	}
}
