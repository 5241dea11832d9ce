// Command colbench is the repository's benchmark. It generates its own
// seeded inputs, opens engines through the public colarm facade, and
// drives them in-process through the HTTP server's handler — no
// sockets — for one named workload:
//
//	paper-grid     the paper's Figures 9-11 plan grid, every plan forced
//	serve-mixed    interactive serving: cached and uncached Auto queries
//	ingest-notify  ingestion beside reads, with standing-query events
//
// Usage, from the repository root:
//
//	bash colbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three in turn. With --trace 0 the run
// measures for --seconds seconds with tracing off and reports the
// end-to-end metrics; with --trace 1 it repeats that run and then
// replays a fixed, seeded request list with the executor's operator
// tracing on and every layer timed from outside, and reports the
// per-layer metrics. Either way the last line of
// standard output is one JSON object; every output check that fails
// counts as a failed request and makes the command exit non-zero.
// README.md in this directory maps each metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// e2eUnits and layerUnits list every metric the benchmark reports, with
// its unit: the end-to-end metrics of an untraced run and the per-layer
// metrics of a traced one. BENCHMARK.json at the repository root names
// the same metrics.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"heap_mb":        "MB",
	"query_p50_ms":   "ms",
	"query_p90_ms":   "ms",
	"throughput_qps": "1/s",
}

var layerUnits = map[string]string{
	"grid_s":        "s",
	"notify_p50_ms": "ms",
	"notify_p90_ms": "ms",
	"ingest_p50_ms": "ms",
	"rebuild_s":     "s",
	"error_rate":    "fraction",

	"server.overhead_ms":         "ms",
	"server.response_kb":         "KB",
	"server.cache_hit_ratio":     "fraction",
	"server.admission_rejects":   "count",
	"colarmql.parse_us":          "us",
	"cost.explain_us":            "us",
	"cost.auto_regret":           "ratio",
	"cost.estimate_ratio":        "ratio",
	"plans.search_ms":            "ms",
	"plans.supported_search_ms":  "ms",
	"plans.eliminate_ms":         "ms",
	"plans.union_ms":             "ms",
	"plans.verify_ms":            "ms",
	"plans.select_ms":            "ms",
	"plans.arm_ms":               "ms",
	"plans.support_checks":       "count",
	"plans.candidates":           "count",
	"plans.rnodes_visited":       "count",
	"plans.rules_emitted":        "count",
	"plans.qualified_ratio":      "fraction",
	"plans.oracle_miss_ratio":    "fraction",
	"plans.ns_per_support_check": "ns",
	"rules.sort_render_ms":       "ms",
	"charm.mine_s":               "s",
	"mip.build_s":                "s",
	"mip.cfis":                   "count",
	"delta.ingest_us":            "us",
	"delta.merged_view_ms":       "ms",
	"delta.stale_query_ms":       "ms",
	"delta.fresh_query_ms":       "ms",
	"standing.diff_ms":           "ms",
	"standing.diffs_computed":    "count",
	"standing.diffs_skipped":     "count",
	"runtime.alloc_mb_per_query": "MB",
	"runtime.gc_cpu_frac":        "fraction",
	"trace.overhead_frac":        "fraction",
}

// chosenMetric names the per-plan counters of the optimizer's choices.
var chosenMetric = map[string]string{
	"S-E-V": "cost.chosen_sev", "S-VS": "cost.chosen_svs", "SS-E-V": "cost.chosen_ssev",
	"SS-VS": "cost.chosen_ssvs", "SS-E-U-V": "cost.chosen_sseuv", "ARM": "cost.chosen_arm",
}

func init() {
	for _, m := range chosenMetric {
		layerUnits[m] = "count"
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	smoke    bool
}

// run accumulates one invocation's outcome.
type run struct {
	cfg       config
	attempted atomic.Int64
	failed    atomic.Int64
	// first failure messages, for the report
	notes   chan string
	metrics map[string]float64
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	select {
	case r.notes <- fmt.Sprintf(format, args...):
	default:
	}
}

// report prints a human-readable line ahead of the JSON result.
func (r *run) report(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"paper-grid":    runGrid,
	"serve-mixed":   runServe,
	"ingest-notify": runIngest,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-grid, serve-mixed, ingest-notify, or all three in turn")
		seed     = flag.Int64("seed", 1, "seed of the generated requests and ingested rows")
		seconds  = flag.Float64("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
		clients  = flag.Int("clients", runtime.NumCPU(), "closed-loop clients of serve-mixed (at most the CPU count)")
		smoke    = flag.Bool("smoke", false, "tiny datasets and request counts: checks every path in seconds")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"paper-grid", "serve-mixed", "ingest-notify"}
	} else if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "colbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "colbench: --trace takes 0 or 1\n")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "colbench: --seconds must be positive\n")
		os.Exit(2)
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "colbench: %d clients refused: the machine has %d CPUs, and more clients than CPUs measure queueing in this process, not the server\n", *clients, runtime.NumCPU())
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		clients: *clients,
		smoke:   *smoke,
	}
	// With "all", every workload runs in turn and the result line
	// carries each one's metrics under "<workload>/<metric>".
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		cfg.workload = name
		one, err := execute(cfg, workloads[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "colbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			res = one
			break
		}
		res.Correct = res.Correct && one.Correct
		res.Attempted += one.Attempted
		res.Failed += one.Failed
		for m, v := range one.Metrics {
			res.Metrics[name+"/"+m] = v
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "colbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and assembles the result line.
func execute(cfg config, fn func(*run) error) (*result, error) {
	r := &run{cfg: cfg, notes: make(chan string, 8), metrics: map[string]float64{}}
	r.report("workload=%s seed=%d seconds=%g trace=%v smoke=%v clients=%d GOMAXPROCS=%d NumCPU=%d go=%s",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.smoke, cfg.clients,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if err := fn(r); err != nil {
		return nil, err
	}
	close(r.notes)
	for n := range r.notes {
		r.report("FAILED: %s", n)
	}
	att, failed := r.attempted.Load(), r.failed.Load()
	if att < 1 {
		return nil, fmt.Errorf("no request completed")
	}
	r.metrics["error_rate"] = float64(failed) / float64(att)

	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	}
	res := &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]metricValue{}}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := e2eUnits[name]
		if unit == "" {
			unit = layerUnits[name]
		}
		r.report("%-28s %14.6g %s", name, r.metrics[name], unit)
	}
	var missing []string
	for name, unit := range units {
		v, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}
