package main

import (
	"math"
	"testing"
	"time"

	"colarm"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {25, 2}, {90, 4.6}, {100, 5}, {-3, 1}, {120, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{2.5}, 2.5, 2.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name     string
		parent   time.Duration
		children []time.Duration
		want     time.Duration
	}{
		{"no children", 10 * ms, nil, 10 * ms},
		{"nested", 10 * ms, []time.Duration{3 * ms, 4 * ms}, 3 * ms},
		{"fully covered", 10 * ms, []time.Duration{10 * ms}, 0},
		{"children exceed parent", 10 * ms, []time.Duration{7 * ms, 6 * ms}, 0},
	} {
		if got := selfTime(c.parent, c.children...); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
}

func TestRequestPercentiles(t *testing.T) {
	r := &run{metrics: map[string]float64{}}
	// Per-request medians 2, 10 and 4.5; the request never sent is left out.
	total := r.requestPercentiles([][]float64{{3, 1, 2}, {10}, {}, {4, 100, 1, 5}})
	if !near(total, 16.5) {
		t.Errorf("total = %v, want 16.5", total)
	}
	if got := r.metrics["query_p50_ms"]; !near(got, 4.5) {
		t.Errorf("p50 = %v, want 4.5", got)
	}
	if got := r.metrics["query_p90_ms"]; !near(got, 8.9) {
		t.Errorf("p90 = %v, want 8.9", got)
	}
}

// ELIMINATE's checks are SupportChecks less VERIFY's oracle misses, and
// only ELIMINATE's span is timed against them.
func TestEliminateChecks(t *testing.T) {
	res := &colarm.Result{
		Stats: colarm.Stats{Plan: colarm.SEV, SupportChecks: 10, OracleMisses: 4},
		Trace: &colarm.Trace{Spans: []colarm.TraceSpan{
			{Operator: "SEARCH", Duration: 50},
			{Operator: "ELIMINATE", Duration: 600},
			{Operator: "VERIFY", Duration: 1000},
		}},
	}
	d, checks := eliminateChecks(res)
	if d != 600 || checks != 6 {
		t.Fatalf("eliminateChecks = %v, %d; want 600ns, 6", d, checks)
	}
	l := &layers{elimTime: d, elimChecks: checks, ops: map[string]time.Duration{}, chosen: map[string]int{}}
	r := &run{metrics: map[string]float64{}}
	l.record(r)
	if got := r.metrics["plans.ns_per_support_check"]; !near(got, 100) {
		t.Errorf("ns_per_support_check = %v, want 100", got)
	}

	arm := &colarm.Result{
		Stats: colarm.Stats{Plan: colarm.ARM, OracleCalls: 9, OracleMisses: 3},
		Trace: &colarm.Trace{Spans: []colarm.TraceSpan{{Operator: "ARM", Duration: 700}}},
	}
	if d, checks := eliminateChecks(arm); d != 0 || checks != 0 {
		t.Errorf("ARM: eliminateChecks = %v, %d; want 0, 0", d, checks)
	}
}
