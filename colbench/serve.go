package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"colarm"
	"colarm/internal/server"
)

// serve-mixed is interactive serving as colarm-serve runs it: engines
// with the facade's defaults, a result cache, Auto plans, and as many
// closed-loop clients as CPUs. Requests come from a seeded pool of
// distinct localized queries, drawn with repeats so that a fixed share
// hits the result cache. Mushroom answers run to about 20 KB of JSON,
// chess answers to about 200 KB, so this is where rule rendering and
// JSON encoding show. The shares put
// the median inside the band of uncached mushroom answers and the 90th
// percentile inside the band of uncached chess answers, away from the
// boundaries between bands, so neither percentile jumps between bands
// from one seed to the next.
//
// Chess is built at primary support 0.65, not the paper's 0.60: at 0.60
// its index alone holds about 580 MB of live heap, which with the
// result cache puts the process near 3 GB, more than a benchmark on a
// shared machine should take; at 0.65 it keeps 23 thousand CFIs and
// about 200 MB.
//
// Chess answers are capped for the same reason. Uncapped, at minsupport
// 0.75 over half the records, they hold about 11.7 thousand rules, the
// size of chess answers served uncapped, but each cached one keeps
// about 3.2 MB live, and a run caches hundreds.
//
// The shares and query shapes below are stipulated, not measured from
// any query log: the repository holds no traffic record. Only the chess
// share follows a rule, the one that keeps the percentiles inside their
// bands. throughput_qps and the latency percentiles are figures of this
// mix; README.md lists every stipulated figure.
const (
	serveChessShare = 0.25 // requests for chess
	serveHitShare   = 0.4  // requests repeating an earlier query
	serveQLShare    = 0.5  // new mushroom queries sent as COLARM-QL text
	serveItemAttrs  = 6    // item attributes of a mushroom query
	serveChessMin   = 0.85 // minsupport of a chess query
	serveReplay     = 150  // requests of the traced replay
)

// serveReq is one distinct query of the pool and its wire form.
type serveReq struct {
	id   int
	t    *table
	eng  *colarm.Engine
	q    colarm.Query
	ql   string // the body is this COLARM-QL text when set
	body []byte
}

// serveSeq is the seeded request sequence. next is safe for concurrent
// use; the order of requests is fixed by the seed, while which client
// sends each one is not.
type serveSeq struct {
	mu      sync.Mutex
	rng     *rand.Rand
	tables  []*table // mushroom, chess
	engs    []*colarm.Engine
	issued  [2][]*serveReq
	seen    map[string]bool // canonical forms drawn so far
	created int
}

func newServeSeq(seed int64, tables []*table, engs []*colarm.Engine) *serveSeq {
	return &serveSeq{rng: rand.New(rand.NewSource(seed)), tables: tables, engs: engs, seen: map[string]bool{}}
}

func (s *serveSeq) next() *serveReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := 0
	if s.rng.Float64() < serveChessShare {
		ds = 1
	}
	// The first query of a dataset is always new; fresh fails only once
	// a dataset's query space is used up.
	if s.rng.Float64() >= serveHitShare || len(s.issued[ds]) == 0 {
		if req := s.fresh(ds); req != nil {
			s.issued[ds] = append(s.issued[ds], req)
			return req
		}
	}
	return s.issued[ds][s.rng.Intn(len(s.issued[ds]))]
}

// fresh draws a query of dataset ds unlike every earlier one, so that
// only deliberate repeats can hit the cache. It gives up, returning
// nil, when the dataset's query space looks exhausted.
func (s *serveSeq) fresh(ds int) *serveReq {
	t := s.tables[ds]
	for try := 0; try < 64; try++ {
		req := &serveReq{id: s.created, t: t, eng: s.engs[ds]}
		if ds == 1 {
			// Chess: one-item consequents, which COLARM-QL cannot
			// express, so always JSON; every attribute but two is an
			// item attribute, which makes queries over the same focal
			// subset distinct while keeping their answers about as
			// large.
			rng := t.focalRange(s.rng, 0.5)
			req.q = colarm.Query{Range: rng, ItemAttributes: s.itemAttrs(t, rng, len(t.attrs)-len(rng)-2),
				MinSupport: serveChessMin, MinConfidence: 0.9, MaxConsequent: 1}
		} else {
			rng := t.focalRange(s.rng, []float64{0.5, 0.2, 0.1}[s.rng.Intn(3)])
			req.q = colarm.Query{Range: rng, ItemAttributes: s.itemAttrs(t, rng, serveItemAttrs),
				MinSupport: []float64{0.3, 0.4, 0.5}[s.rng.Intn(3)], MinConfidence: 0.9}
		}
		key := t.name + "|" + req.q.Canonical()
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		if ds == 0 && s.rng.Float64() < serveQLShare {
			req.ql = qlFor(t.name, req.q)
			req.body = []byte(req.ql)
		} else {
			req.body = mineJSON(t.name, req.q, false)
		}
		s.created++
		return req
	}
	return nil
}

// itemAttrs picks n attributes outside the focal range, sorted; the cap
// bounds how many rules one answer can hold.
func (s *serveSeq) itemAttrs(t *table, rng map[string][]string, n int) []string {
	var out []string
	for _, i := range s.rng.Perm(len(t.attrs)) {
		if len(out) == n {
			break
		}
		if _, ok := rng[t.attrs[i]]; !ok {
			out = append(out, t.attrs[i])
		}
	}
	sort.Strings(out)
	return out
}

func runServe(r *run) error {
	var tables []*table
	for _, name := range []string{"mushroom", "chess"} {
		primary := 0.0
		if name == "chess" {
			primary = 0.65
		}
		t, err := r.table(name, false, primary)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	engs, err := r.setup(tables, func(t *table) colarm.Options {
		return colarm.Options{PrimarySupport: t.primary}
	})
	if err != nil {
		return err
	}
	reg := server.NewRegistry()
	for _, e := range engs {
		reg.Register(e)
	}

	srv := server.New(reg, server.Config{})
	c := client{srv.Handler()}
	seq := newServeSeq(r.cfg.seed, tables, engs)
	var (
		mu      sync.Mutex
		lat     []timed
		digests = map[int]uint64{}
		bands   = map[string][]float64{}
		wg      sync.WaitGroup
	)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(r.cfg.seconds)
	for i := 0; i < r.cfg.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []timed
			for time.Now().Before(deadline) {
				req := seq.next()
				r.attempted.Add(1)
				st, body, d := c.call("POST", "/v1/mine", req.body)
				mine = append(mine, timed{time.Since(start), float64(d) / 1e6})
				if st != 200 {
					r.fail("serve-mixed %s: status %d: %.200s", req.t.name, st, body)
					continue
				}
				dg, err := rulesDigest(body)
				if err != nil {
					r.fail("serve-mixed %s: %v", req.t.name, err)
					continue
				}
				band := fmt.Sprintf("%s cached=%v", req.t.name, isCached(body))
				mu.Lock()
				want, seen := digests[req.id]
				if !seen {
					digests[req.id] = dg
				}
				bands[band] = append(bands[band], float64(d)/1e6)
				mu.Unlock()
				if seen && want != dg {
					r.fail("serve-mixed %s: query %d answered other rules than its first answer (cached %v)", req.t.name, req.id, isCached(body))
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	windows, spans := byWindow(lat, elapsed)
	r.throughput(windows, spans)
	r.windowPercentiles(windows)
	r.noteRuntime(before, len(lat))
	r.admissionRejects(c)
	srv.Close()
	r.report("distinct queries %d (mushroom %d, chess %d)", seq.created, len(seq.issued[0]), len(seq.issued[1]))
	for _, b := range []string{"mushroom cached=true", "mushroom cached=false", "chess cached=true", "chess cached=false"} {
		xs := bands[b]
		r.report("band %-22s share %.3f  p10 %.3fms p50 %.3fms p90 %.3fms", b, ratio(float64(len(xs)), float64(len(lat))), percentile(xs, 10), percentile(xs, 50), percentile(xs, 90))
	}
	r.notReached("grid_s", "notify_p50_ms", "notify_p90_ms", "ingest_p50_ms", "rebuild_s",
		"delta.ingest_us", "delta.merged_view_ms", "delta.stale_query_ms", "delta.fresh_query_ms",
		"standing.diff_ms", "standing.diffs_computed", "standing.diffs_skipped", "cost.auto_regret")
	if !r.cfg.trace {
		return nil
	}
	return r.traceServe(tables, engs, reg)
}

// traceServe replays the first serveReplay requests of the measured
// run's sequence, one at a time, on a fresh server (an empty cache),
// probing every request the server executed.
func (r *run) traceServe(tables []*table, engs []*colarm.Engine, reg *server.Registry) error {
	srv := server.New(reg, server.Config{})
	defer srv.Close()
	c := client{srv.Handler()}
	ctx := context.Background()
	seq := newServeSeq(r.cfg.seed, tables, engs)
	n := serveReplay
	if r.cfg.smoke {
		n = 20
	}
	l := newLayers()
	kb, answers := map[string]float64{}, map[string]float64{}
	for i := 0; i < n; i++ {
		req := seq.next()
		r.attempted.Add(1)
		st, body, d := c.call("POST", "/v1/mine", req.body)
		if st != 200 {
			r.fail("serve-mixed replay %s: status %d", req.t.name, st)
			continue
		}
		kb[req.t.name] += float64(len(body)) / 1024
		answers[req.t.name]++
		cached := isCached(body)
		l.answered(body, cached)
		if cached {
			continue
		}
		if _, err := l.probe(ctx, req.eng, req.q, req.ql, d); err != nil {
			return fmt.Errorf("probing %s query %d: %w", req.t.name, req.id, err)
		}
	}
	for _, t := range tables {
		r.report("replay %s answers: %.0f, mean %.1f KB", t.name, answers[t.name], ratio(kb[t.name], answers[t.name]))
	}
	l.record(r)
	return nil
}
