package main

import (
	"testing"
	"time"
)

// exactCounts are the per-layer figures that count work rather than
// time it; a traced run must reproduce them exactly for the same seed.
var exactCounts = []string{
	"plans.support_checks", "plans.candidates", "plans.rules_emitted", "mip.cfis",
	"standing.diffs_computed", "standing.diffs_skipped", "server.cache_hit_ratio",
	"cost.chosen_sev", "cost.chosen_svs", "cost.chosen_ssev", "cost.chosen_ssvs",
	"cost.chosen_sseuv", "cost.chosen_arm",
}

// TestSmoke runs every workload on the smoke profile, traced, twice
// with one seed and once with another: every output check must pass,
// every per-layer metric must be reported, the exact counts must
// repeat, and the second seed must report the same metric names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			runs := map[int64][]*result{}
			for _, seed := range []int64{1, 1, 2} {
				res, err := execute(config{workload: name, seed: seed, seconds: time.Second, trace: true, clients: 1, smoke: true}, fn)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(layerUnits) {
					t.Fatalf("seed %d: %d metrics, want %d", seed, len(res.Metrics), len(layerUnits))
				}
				runs[seed] = append(runs[seed], res)
			}
			a, b := runs[1][0], runs[1][1]
			for _, m := range exactCounts {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s differs between runs of one seed: %v vs %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			for m := range a.Metrics {
				if _, ok := runs[2][0].Metrics[m]; !ok {
					t.Errorf("seed 2 does not report %s", m)
				}
			}
		})
	}
}

// TestEndToEndMetrics checks that an untraced run reports exactly the
// end-to-end metrics, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	res, err := execute(config{workload: "ingest-notify", seed: 3, seconds: time.Second, clients: 1, smoke: true}, runIngest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(e2eUnits) {
		t.Fatalf("correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(e2eUnits))
	}
	for m, v := range res.Metrics {
		if v.Value <= 0 || v.Unit != e2eUnits[m] {
			t.Errorf("%s = %v %s", m, v.Value, v.Unit)
		}
	}
}
