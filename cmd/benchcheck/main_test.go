package main

import (
	"strings"
	"testing"
)

const valid = `{
  "cores": 8,
  "gomaxprocs": 8,
  "workers": 4,
  "quick": true,
  "experiments": [
    {"name": "fig3", "seq_seconds": 1.5, "par_seconds": 0.5, "speedup": 3.0}
  ]
}`

func TestCheckValid(t *testing.T) {
	if errs := check([]byte(valid)); len(errs) != 0 {
		t.Fatalf("valid report rejected: %v", errs)
	}
}

func TestCheckZeroSpeedupValid(t *testing.T) {
	// speedup 0 is what benchrun writes when par_seconds rounds to zero.
	rep := strings.Replace(valid, `"speedup": 3.0`, `"speedup": 0`, 1)
	if errs := check([]byte(rep)); len(errs) != 0 {
		t.Fatalf("zero speedup rejected: %v", errs)
	}
}

func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"garbage", "not json", "not valid JSON"},
		{"empty object", "{}", "cores"},
		{"no experiments", `{"cores":1,"gomaxprocs":1,"workers":1,"experiments":[]}`, "no experiments"},
		{"missing name", `{"cores":1,"gomaxprocs":1,"workers":1,
			"experiments":[{"seq_seconds":1,"par_seconds":1,"speedup":1}]}`, "missing name"},
		{"missing timing key", `{"cores":1,"gomaxprocs":1,"workers":1,
			"experiments":[{"name":"fig3","seq_seconds":1,"speedup":1}]}`, "missing par_seconds"},
		{"negative timing", `{"cores":1,"gomaxprocs":1,"workers":1,
			"experiments":[{"name":"fig3","seq_seconds":-1,"par_seconds":1,"speedup":1}]}`, "want >= 0"},
		{"unknown kind", `{"kind": "nonsense"}`, `unknown report kind "nonsense"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := check([]byte(tc.data))
			if len(errs) == 0 {
				t.Fatalf("invalid report accepted")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

// validService is a minimal well-formed service loadtest report.
const validService = `{
  "kind": "service",
  "seed": 1, "jobs": 200, "completed": 200, "failed": 0, "rejected": 17,
  "wall_seconds": 3.5, "jobs_per_sec": 57.1,
  "p50_latency_ms": 80.2, "p99_latency_ms": 310.9,
  "n": 100, "un": 4, "concurrency": 32, "max_concurrent": 8,
  "server": "in-process"
}`

func TestCheckServiceValid(t *testing.T) {
	if errs := check([]byte(validService)); len(errs) != 0 {
		t.Fatalf("valid service report rejected: %v", errs)
	}
}

func TestCheckServiceRejects(t *testing.T) {
	mut := func(old, new string) string {
		s := strings.Replace(validService, old, new, 1)
		if s == validService {
			t.Fatalf("mutation %q not applied", old)
		}
		return s
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"missing seed", mut(`"seed": 1, `, ``), "missing seed"},
		{"missing rejected", mut(`, "rejected": 17`, ``), "missing rejected"},
		{"missing throughput", mut(`"jobs_per_sec": 57.1,`, `"jobs_per_sec_typo": 57.1,`), "missing jobs_per_sec"},
		{"missing p99", mut(`, "p99_latency_ms": 310.9`, ``), "missing p99_latency_ms"},
		{"lost work", mut(`"completed": 200`, `"completed": 199`), "completed = 199 of 200"},
		{"failures", mut(`"failed": 0`, `"failed": 3`), "failed = 3"},
		{"quantile inversion", mut(`"p50_latency_ms": 80.2`, `"p50_latency_ms": 400`), "exceeds p99"},
		{"zero throughput", mut(`"jobs_per_sec": 57.1`, `"jobs_per_sec": 0`), "jobs_per_sec"},
		{"no jobs", mut(`"jobs": 200`, `"jobs": 0`), "jobs = 0"},
		{"no server", mut(`"server": "in-process"`, `"server": ""`), "missing server"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := check([]byte(tc.data))
			if len(errs) == 0 {
				t.Fatal("invalid service report accepted")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

// validWorkloads is a minimal well-formed mixed-workload loadtest report.
const validWorkloads = `{
  "kind": "workloads",
  "seed": 1, "jobs": 12, "completed": 12, "failed": 0, "rejected": 3,
  "wall_seconds": 0.4, "jobs_per_sec": 30.0,
  "p50_latency_ms": 60.2, "p99_latency_ms": 110.9,
  "n": 80, "un": 4, "concurrency": 16, "max_concurrent": 8,
  "server": "in-process",
  "mix": "max,topk,score",
  "per_mode": {
    "max":   {"jobs": 4, "completed": 4, "failed": 0, "p50_latency_ms": 70.1, "p99_latency_ms": 95.0},
    "topk":  {"jobs": 4, "completed": 4, "failed": 0, "p50_latency_ms": 65.2, "p99_latency_ms": 110.9},
    "score": {"jobs": 4, "completed": 4, "failed": 0, "p50_latency_ms": 55.9, "p99_latency_ms": 86.1}
  }
}`

func TestCheckWorkloadsValid(t *testing.T) {
	if errs := check([]byte(validWorkloads)); len(errs) != 0 {
		t.Fatalf("valid workloads report rejected: %v", errs)
	}
}

func TestCheckWorkloadsRejects(t *testing.T) {
	mut := func(old, new string) string {
		s := strings.Replace(validWorkloads, old, new, 1)
		if s == validWorkloads {
			t.Fatalf("mutation %q not applied", old)
		}
		return s
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"missing mix", mut(`"mix": "max,topk,score",`, ``), "missing mix"},
		{"missing per_mode", mut(`"per_mode"`, `"per_mode_typo"`), "missing per_mode"},
		{"unknown mix mode", mut(`"mix": "max,topk,score"`, `"mix": "max,bogus,score"`), "unknown mode"},
		{"mode dropped from per_mode",
			mut(`"topk":  {"jobs": 4, "completed": 4, "failed": 0, "p50_latency_ms": 65.2, "p99_latency_ms": 110.9},`, ``),
			"no per_mode entry"},
		{"per_mode outside mix", mut(`"mix": "max,topk,score"`, `"mix": "max,topk"`), "outside the mix"},
		{"per-mode lost work", mut(`"topk":  {"jobs": 4, "completed": 4`, `"topk":  {"jobs": 4, "completed": 3`), "completed = 3 of 4"},
		{"per-mode failures", mut(`"score": {"jobs": 4, "completed": 4, "failed": 0`, `"score": {"jobs": 4, "completed": 4, "failed": 1`), "failed = 1"},
		{"per-mode quantile inversion", mut(`"p50_latency_ms": 70.1`, `"p50_latency_ms": 700.1`), "exceeds p99"},
		{"jobs do not partition", mut(`"max":   {"jobs": 4`, `"max":   {"jobs": 5`), "per_mode jobs sum"},
		{"missing per-mode fields",
			mut(`{"jobs": 4, "completed": 4, "failed": 0, "p50_latency_ms": 55.9, "p99_latency_ms": 86.1}`, `{"jobs": 4}`),
			"missing completed/failed/latency fields"},
		{"base schema still applies", mut(`"jobs": 12, "completed": 12`, `"jobs": 12, "completed": 11`), "completed = 11 of 12"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := check([]byte(tc.data))
			if len(errs) == 0 {
				t.Fatal("invalid workloads report accepted")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

// validTrust is a minimal well-formed trust scorer-sweep report.
const validTrust = `{
  "kind": "trust",
  "seed": 2015, "n": 400, "un": 8, "ue": 3,
  "pool_size": 10, "trials": 40, "warmup": 240,
  "mixes": [
    {"spammers": 0, "colluders": 0, "arms": {
      "gold":   {"retention_pct": 100, "mean_cost": 14400.5},
      "graph":  {"retention_pct": 100, "mean_cost": 12400.2},
      "hybrid": {"retention_pct": 100, "mean_cost": 14500.9}
    }},
    {"spammers": 0, "colluders": 3, "arms": {
      "gold":   {"retention_pct": 32.5, "mean_cost": 11300.1},
      "graph":  {"retention_pct": 100, "mean_cost": 12410.7},
      "hybrid": {"retention_pct": 97.5, "mean_cost": 14480.3}
    }}
  ],
  "deterministic": true,
  "hash": "9e619c78d9350c3f"
}`

func TestCheckTrustValid(t *testing.T) {
	if errs := check([]byte(validTrust)); len(errs) != 0 {
		t.Fatalf("valid trust report rejected: %v", errs)
	}
}

func TestCheckTrustRejects(t *testing.T) {
	mut := func(old, new string) string {
		s := strings.Replace(validTrust, old, new, 1)
		if s == validTrust {
			t.Fatalf("mutation %q not applied", old)
		}
		return s
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"missing seed", mut(`"seed": 2015, `, ``), "missing seed"},
		{"missing warmup", mut(` "warmup": 240,`, ``), "missing warmup"},
		{"no mixes", mut(`"trials": 40`, `"trials": 0`), "trials = 0"},
		{"missing arm", mut(`"graph":  {"retention_pct": 100, "mean_cost": 12400.2},`, ``), `missing arm "graph"`},
		{"retention out of range", mut(`"retention_pct": 32.5`, `"retention_pct": 132.5`), "outside [0, 100]"},
		{"zero cost", mut(`"mean_cost": 11300.1`, `"mean_cost": 0`), "mean cost 0"},
		{"not deterministic", mut(`"deterministic": true`, `"deterministic": false`), "double run diverged"},
		{"missing determinism", mut(`"deterministic": true,`, ``), "missing deterministic"},
		{"missing hash", mut(`"hash": "9e619c78d9350c3f"`, `"hash": ""`), "missing hash"},
		{"gold did not collapse", mut(`"retention_pct": 32.5`, `"retention_pct": 98.0`), "no colluder mix"},
		{"graph collapsed too", mut(
			`"graph":  {"retention_pct": 100, "mean_cost": 12410.7},
      "hybrid": {"retention_pct": 97.5, "mean_cost": 14480.3}`,
			`"graph":  {"retention_pct": 80, "mean_cost": 12410.7},
      "hybrid": {"retention_pct": 80, "mean_cost": 14480.3}`), "no colluder mix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := check([]byte(tc.data))
			if len(errs) == 0 {
				t.Fatal("invalid trust report accepted")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}
