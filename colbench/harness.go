package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"colarm"
	"colarm/internal/charm"
	"colarm/internal/itemset"
)

// table loads one of a workload's datasets. The smoke profile shrinks
// it to a quarter of its records, at a primary support high enough to
// keep its index small: small synthetic samples are denser in closed
// itemsets, not sparser.
func (r *run) table(name string, reduced bool, primary float64) (*table, error) {
	p := profile{name: name, reduced: reduced, primary: primary}
	if r.cfg.smoke {
		p.scale = 0.25
		p.primary = map[string]float64{"chess": 0.85, "mushroom": 0.3}[name]
	}
	return loadTable(p)
}

// setupRounds is how many times a run opens its engines: setup_s is
// the median round, so one slow round on a shared machine does not
// move it.
func (r *run) setupRounds() int {
	if r.cfg.smoke {
		return 1
	}
	return 5
}

// setup opens one engine per table, setupRounds times, and keeps the
// last round's engines. It records setup_s, heap_mb and, on traced
// runs, the CHARM share of the build. heap_mb is the live heap the
// engines add: the harness's own copies of the data are live before
// the first open and are left out.
func (r *run) setup(tables []*table, opts func(*table) colarm.Options) ([]*colarm.Engine, error) {
	base := liveHeap()
	var times []float64
	var engs []*colarm.Engine
	for i := 0; i < r.setupRounds(); i++ {
		engs = nil
		runtime.GC()
		start := time.Now()
		for _, t := range tables {
			eng, err := colarm.Open(t.ds, opts(t))
			if err != nil {
				return nil, fmt.Errorf("opening %s: %w", t.name, err)
			}
			engs = append(engs, eng)
		}
		times = append(times, time.Since(start).Seconds())
	}
	setupS := median(times)
	q1, q3 := quartiles(times)
	r.metrics["setup_s"] = setupS
	r.metrics["heap_mb"] = float64(liveHeap()-base) / (1 << 20)
	cfis := 0
	for i, t := range tables {
		r.report("dataset %s: %d records, %d attributes, primary %g, %d CFIs", t.name, t.ds.NumRecords(), len(t.attrs), t.primary, engs[i].NumPartitions())
		cfis += engs[i].NumPartitions()
	}
	r.report("setup rounds %d: median %.4fs, quartiles %.4f-%.4fs", len(times), setupS, q1, q3)
	r.metrics["mip.cfis"] = float64(cfis)
	if r.cfg.trace {
		// CHARM alone, on the same data and threshold the engines were
		// opened with; the rest of the build is the MIP-index.
		var mine []float64
		for i := 0; i < r.setupRounds(); i++ {
			start := time.Now()
			for _, t := range tables {
				if _, err := charm.MineSupport(t.rel, itemset.NewSpace(t.rel), t.primary); err != nil {
					return nil, fmt.Errorf("mining %s: %w", t.name, err)
				}
			}
			mine = append(mine, time.Since(start).Seconds())
		}
		m := median(mine)
		r.metrics["charm.mine_s"] = m
		r.metrics["mip.build_s"] = selfTime(time.Duration(setupS*1e9), time.Duration(m*1e9)).Seconds()
	}
	return engs, nil
}

// liveHeap returns the bytes of live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// admissionRejects records how many queries the server's admission
// control turned away.
func (r *run) admissionRejects(c client) {
	_, text, _ := c.call("GET", "/metrics", nil)
	r.metrics["server.admission_rejects"] = promValue(text, "colarm_admission_rejected_total")
}

// notReached records 0 for layer metrics of layers the workload does
// not exercise by design.
func (r *run) notReached(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// noteRuntime records allocation and GC cost over a measured phase.
func (r *run) noteRuntime(before runtimeSample, requests int) {
	after := readRuntime()
	r.metrics["runtime.alloc_mb_per_query"] = ratio(after.allocBytes-before.allocBytes, float64(requests)) / (1 << 20)
	r.metrics["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}

// windowSpan is the length of the windows serve-mixed's measured
// phase is cut into.
const windowSpan = 5 * time.Second

// timed is one request: when it completed, from the start of the
// measured phase, and how long it took in milliseconds.
type timed struct {
	at time.Duration
	ms float64
}

// byWindow cuts a measured phase of the given length into windows of
// windowSpan, at least one, the last taking the remainder, and groups
// the request latencies by the window they completed in.
func byWindow(samples []timed, elapsed time.Duration) ([][]float64, []time.Duration) {
	n := int(elapsed / windowSpan)
	if n < 1 {
		n = 1
	}
	lat := make([][]float64, n)
	spans := make([]time.Duration, n)
	for i := range spans {
		spans[i] = windowSpan
	}
	spans[n-1] = elapsed - time.Duration(n-1)*windowSpan
	for _, s := range samples {
		i := int(s.at / windowSpan)
		if i >= n {
			i = n - 1
		}
		lat[i] = append(lat[i], s.ms)
	}
	return lat, spans
}

// throughput records throughput_qps as the median request rate over
// the windows of a measured phase, so that a burst of load from
// elsewhere on the machine moves one window rather than the figure.
func (r *run) throughput(windows [][]float64, spans []time.Duration) {
	var qps, all []float64
	for i, w := range windows {
		if len(w) > 0 {
			qps = append(qps, float64(len(w))/spans[i].Seconds())
			all = append(all, w...)
		}
	}
	r.metrics["throughput_qps"] = median(qps)
	q1, q3 := quartiles(qps)
	r.report("requests %d in %d windows, median %.3f/s, quartiles %.3f-%.3f/s; latency ms p10 %.3f p50 %.3f p90 %.3f p99 %.3f",
		len(all), len(qps), median(qps), q1, q3,
		percentile(all, 10), percentile(all, 50), percentile(all, 90), percentile(all, 99))
}

// windowPercentiles records query_p50_ms and query_p90_ms as the
// medians of their values over the windows of a measured phase.
func (r *run) windowPercentiles(windows [][]float64) {
	var p50, p90 []float64
	for _, w := range windows {
		if len(w) > 0 {
			p50 = append(p50, percentile(w, 50))
			p90 = append(p90, percentile(w, 90))
		}
	}
	r.metrics["query_p50_ms"] = median(p50)
	r.metrics["query_p90_ms"] = median(p90)
}

// requestPercentiles records query_p50_ms and query_p90_ms for a phase
// that sends the same requests again and again: samples holds each
// request's latencies. A request's latency is the median of its
// samples, so a burst of load from elsewhere on the machine has to hit
// the same request most times it is sent to move it; the percentiles
// run over the requests. It returns the sum of the requests' latencies
// in milliseconds.
func (r *run) requestPercentiles(samples [][]float64) float64 {
	var per []float64
	total := 0.0
	for _, xs := range samples {
		if len(xs) > 0 {
			m := median(xs)
			per = append(per, m)
			total += m
		}
	}
	r.metrics["query_p50_ms"] = percentile(per, 50)
	r.metrics["query_p90_ms"] = percentile(per, 90)
	r.report("%d distinct requests; their median latencies ms p10 %.3f p50 %.3f p90 %.3f max %.3f",
		len(per), percentile(per, 10), percentile(per, 50), percentile(per, 90), percentile(per, 100))
	return total
}

// layers accumulates the per-layer figures of a traced replay. Every
// request the server executed (not a cache hit) is probed: the engine
// call the handler makes is repeated untraced and traced, and the
// optimizer and parser calls it makes are timed on their own.
type layers struct {
	mines, hits  int
	respBytes    int64
	executed     int
	overhead     time.Duration
	untracedWall time.Duration
	tracedWall   time.Duration
	sortRender   time.Duration
	explain      time.Duration
	explains     int
	parse        time.Duration
	parses       int
	ops          map[string]time.Duration
	elimTime     time.Duration // ELIMINATE time of the MIP plans
	elimChecks   int           // ELIMINATE's record-level support checks

	supportChecks, candidates, rnodes, rules, qualified, oracleCalls, oracleMisses int
	chosen                                                                         map[string]int
	estRatios                                                                      []float64
	regrets                                                                        []float64
}

func newLayers() *layers {
	return &layers{ops: map[string]time.Duration{}, chosen: map[string]int{}}
}

// answered counts one /v1/mine answer.
func (l *layers) answered(body []byte, cached bool) {
	l.mines++
	l.respBytes += int64(len(body))
	if cached {
		l.hits++
	}
}

// probe times the layers of one request the server executed in
// handler time. ql is the request's COLARM-QL text when it was sent as
// text. The untraced and traced engine calls alternate their order
// between requests, so neither side always runs on warmer caches. It
// returns the untraced engine call's wall time.
func (l *layers) probe(ctx context.Context, eng *colarm.Engine, q colarm.Query, ql string, handler time.Duration) (time.Duration, error) {
	if ql != "" {
		start := time.Now()
		if _, err := eng.ParseQuery(ql); err != nil {
			return 0, err
		}
		l.parse += time.Since(start)
		l.parses++
	}
	var explain time.Duration
	if q.Plan == colarm.Auto {
		start := time.Now()
		if _, err := eng.ExplainContext(ctx, q); err != nil {
			return 0, err
		}
		explain = time.Since(start)
		l.explain += explain
		l.explains++
	}
	untraced := func() (*colarm.Result, time.Duration, error) {
		start := time.Now()
		res, err := eng.MineContext(ctx, q)
		return res, time.Since(start), err
	}
	traced := func() (*colarm.Result, time.Duration, error) {
		tq := q
		tq.Trace = true
		start := time.Now()
		res, err := eng.MineContext(ctx, tq)
		return res, time.Since(start), err
	}
	var res, tres *colarm.Result
	var wall, twall time.Duration
	var err error
	if l.executed%2 == 0 {
		if res, wall, err = untraced(); err == nil {
			tres, twall, err = traced()
		}
	} else {
		if tres, twall, err = traced(); err == nil {
			res, wall, err = untraced()
		}
	}
	if err != nil {
		return 0, err
	}
	l.executed++
	l.untracedWall += wall
	l.tracedWall += twall
	l.overhead += selfTime(handler, wall)
	l.sortRender += selfTime(twall, tres.Trace.Total, explain)
	for _, s := range tres.Trace.Spans {
		l.ops[s.Operator] += s.Duration
	}
	d, checks := eliminateChecks(tres)
	l.elimTime += d
	l.elimChecks += checks
	st := res.Stats
	l.supportChecks += st.SupportChecks
	l.candidates += st.Candidates
	l.rnodes += st.RNodesVisited
	l.rules += st.RulesEmitted
	l.qualified += st.Qualified
	l.oracleCalls += st.OracleCalls
	l.oracleMisses += st.OracleMisses
	if q.Plan == colarm.Auto {
		l.chosen[st.Plan.String()]++
		for _, e := range res.Estimates {
			if e.Plan == st.Plan && e.Cost > 0 {
				l.estRatios = append(l.estRatios, float64(st.DurationNanos)/e.Cost)
			}
		}
	}
	return wall, nil
}

// record writes the accumulated figures into the run's metrics.
func (l *layers) record(r *run) {
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	n := l.executed
	r.metrics["server.overhead_ms"] = ms(l.overhead, n)
	r.metrics["server.response_kb"] = ratio(float64(l.respBytes)/1024, float64(l.mines))
	r.metrics["server.cache_hit_ratio"] = ratio(float64(l.hits), float64(l.mines))
	r.metrics["colarmql.parse_us"] = us(l.parse, l.parses)
	r.metrics["cost.explain_us"] = us(l.explain, l.explains)
	r.metrics["cost.auto_regret"] = median(l.regrets)
	r.metrics["cost.estimate_ratio"] = median(l.estRatios)
	for plan, name := range chosenMetric {
		r.metrics[name] = float64(l.chosen[plan])
	}
	for op, name := range map[string]string{
		"SEARCH": "plans.search_ms", "SUPPORTED-SEARCH": "plans.supported_search_ms",
		"ELIMINATE": "plans.eliminate_ms", "UNION": "plans.union_ms", "VERIFY": "plans.verify_ms",
		"SELECT": "plans.select_ms", "ARM": "plans.arm_ms",
	} {
		r.metrics[name] = ms(l.ops[op], n)
	}
	r.metrics["plans.support_checks"] = float64(l.supportChecks)
	r.metrics["plans.candidates"] = float64(l.candidates)
	r.metrics["plans.rnodes_visited"] = float64(l.rnodes)
	r.metrics["plans.rules_emitted"] = float64(l.rules)
	r.metrics["plans.qualified_ratio"] = ratio(float64(l.qualified), float64(l.candidates))
	r.metrics["plans.oracle_miss_ratio"] = ratio(float64(l.oracleMisses), float64(l.oracleCalls))
	r.metrics["plans.ns_per_support_check"] = ratio(float64(l.elimTime), float64(l.elimChecks))
	r.metrics["rules.sort_render_ms"] = ms(l.sortRender, n)
	r.metrics["trace.overhead_frac"] = ratio(float64(l.tracedWall-l.untracedWall), float64(l.untracedWall))
	r.report("traced replay: %d answers, %d executed, %d cache hits", l.mines, n, l.hits)
}

// eliminateChecks returns the ELIMINATE time of a traced MIP-plan
// result and the record-level support checks ELIMINATE made, so that
// their ratio is the cost of one check in the counting kernel. The
// executor's SupportChecks also counts every fresh intersection of
// VERIFY's support oracle (one per OracleMisses), which ELIMINATE did
// not make; ARM has no ELIMINATE and reads (0, 0).
func eliminateChecks(res *colarm.Result) (time.Duration, int) {
	if res.Stats.Plan == colarm.ARM {
		return 0, 0
	}
	var d time.Duration
	for _, s := range res.Trace.Spans {
		if s.Operator == "ELIMINATE" {
			d += s.Duration
		}
	}
	return d, res.Stats.SupportChecks - res.Stats.OracleMisses
}
