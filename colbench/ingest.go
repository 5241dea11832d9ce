package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"time"

	"colarm"
	"colarm/internal/server"
)

// ingest-notify puts writes beside reads on one server over reduced
// mushroom. A few standing queries with distinct canonical forms are
// registered through POST /v1/subscriptions and consumed through their
// event route. A writer posts small batches through POST /v1/ingest
// (rebuild "never"), one at a time; each batch waits until the standing
// queries' events arrive or the affectedness gate skips them. One
// reader mines Auto queries on the drifting engine, going through a
// seeded set of ingestPool queries in turn: ingestReads reads per
// batch, the first sent as the batch is acknowledged, so it meets the
// merged-view re-mine, and the rest after the batch has settled, so
// they measure stale reads without the standing worker competing for
// the CPUs. Every run thus mixes reads and writes in the same
// proportion. The run ends with one forced rebuild and a read after
// it. It is the only
// workload that exercises the delta layer's merged view, the standing
// queries' diffs and the stale-read path. Notify latency counts from
// the start of the ingest request to the receipt of the event,
// including the merged-view re-mine, because users wait for it.
//
// The write side repeats a recorded configuration: BENCH_9.json, the
// standing-query benchmark, ingests 4-row batches, and 4 subscriptions
// is its middle row. The read side (reads per batch, the reader's
// query pool and query shape) is stipulated, not taken from any traffic
// record; README.md lists every such figure.
const (
	ingestSubs       = 4    // standing queries, as in BENCH_9.json
	ingestBatchRows  = 4    // rows per ingested batch, as in BENCH_9.json
	ingestSubFrac    = 0.25 // focal-subset size of a standing query
	ingestReads      = 30   // reads per batch (stipulated)
	ingestPool       = 200  // distinct queries of the reader (stipulated)
	ingestReplay     = 12   // batches of the traced replay
	ingestStaleReads = 2    // stale reads probed per batch of the replay
	ingestMinSupp    = 0.5
	ingestMinConf    = 0.9
)

// standingSub is one subscription as its consumer sees it: the rules
// of its snapshot with every diff since folded in.
type standingSub struct {
	id    string
	q     colarm.Query
	seq   uint64
	rules ruleSet
}

type eventJSON struct {
	Seq         uint64     `json:"seq"`
	Type        string     `json:"type"`
	Rules       []wireRule `json:"rules"`
	Appeared    []wireRule `json:"appeared"`
	Disappeared []wireRule `json:"disappeared"`
	Updated     []wireRule `json:"updated"`
}

// poll fetches the subscription's events past the last one seen,
// waiting up to wait for the first, folds them into its rules and
// returns how many arrived.
func (s *standingSub) poll(c client, wait time.Duration) (int, error) {
	path := fmt.Sprintf("/v1/subscriptions/%s/events?after=%d&wait=%s", url.PathEscape(s.id), s.seq, wait)
	st, body, _ := c.call("GET", path, nil)
	if st != 200 {
		return 0, fmt.Errorf("events of %s: status %d: %.200s", s.id, st, body)
	}
	var out struct {
		Events []eventJSON `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("events of %s: %w", s.id, err)
	}
	for _, ev := range out.Events {
		if ev.Seq != s.seq+1 {
			return 0, fmt.Errorf("events of %s: seq %d after %d", s.id, ev.Seq, s.seq)
		}
		s.seq = ev.Seq
		switch ev.Type {
		case "snapshot":
			s.rules = toSet(ev.Rules)
		case "diff":
			for _, r := range ev.Disappeared {
				delete(s.rules, r.key())
			}
			for _, r := range ev.Appeared {
				s.rules[r.key()] = r
			}
			for _, r := range ev.Updated {
				s.rules[r.key()] = r
			}
		default:
			return 0, fmt.Errorf("events of %s: unexpected %s event", s.id, ev.Type)
		}
	}
	return len(out.Events), nil
}

// ingestFixture is one server over a freshly opened engine, with its
// standing queries registered and their first diff passes settled.
type ingestFixture struct {
	t    *table
	reg  *server.Registry
	srv  *server.Server
	c    client
	rng  *rand.Rand
	subs []*standingSub
	// The reader's queries: it reads them in turn, like a dashboard
	// polling its queries, so each is read many times in a run.
	reads    []colarm.Query
	nextRead int
}

func newIngestFixture(r *run, t *table, eng *colarm.Engine) (*ingestFixture, error) {
	f := &ingestFixture{t: t, reg: server.NewRegistry(),
		rng: rand.New(rand.NewSource(r.cfg.seed))}
	// The reader's queries come from their own stream, so the rows
	// ingested do not depend on them.
	readRng := rand.New(rand.NewSource(^r.cfg.seed))
	for i := 0; i < ingestPool; i++ {
		f.reads = append(f.reads, t.readQuery(readRng))
	}
	f.reg.Register(eng)
	f.srv = server.New(f.reg, server.Config{})
	f.c = client{f.srv.Handler()}
	// The standing queries are drawn from the data seed, like the
	// dataset: their focal regions decide how many of a batch's diffs
	// the affectedness gate skips, so with seeded standing queries a
	// run's figures would follow the queries its seed drew.
	subRng := rand.New(rand.NewSource(dataSeed))
	seen := map[string]bool{}
	for tries := 0; len(f.subs) < ingestSubs; tries++ {
		if tries == 100 {
			f.srv.Close()
			return nil, fmt.Errorf("no %d distinct standing queries with rules", ingestSubs)
		}
		q := colarm.Query{Range: t.focalRange(subRng, ingestSubFrac), MinSupport: ingestMinSupp, MinConfidence: ingestMinConf, MaxConsequent: 1}
		if seen[q.Canonical()] {
			continue
		}
		seen[q.Canonical()] = true
		// A standing query without rules emits no events until rules
		// appear; it would measure nothing.
		if res, err := eng.Mine(q); err != nil || len(res.Rules) == 0 {
			continue
		}
		c0, s0 := f.counters()
		st, body, _, err := f.c.postJSON("/v1/subscriptions", mineBody{Dataset: t.name, Range: q.Range,
			MinSupport: q.MinSupport, MinConfidence: q.MinConfidence, MaxConsequent: q.MaxConsequent})
		if err != nil || st != 201 {
			f.srv.Close()
			return nil, fmt.Errorf("subscribing: status %d: %.200s %v", st, body, err)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			f.srv.Close()
			return nil, fmt.Errorf("subscribing: %w", err)
		}
		f.subs = append(f.subs, &standingSub{id: created.ID, q: q})
		// The subscription mined its baseline (one diff pass); the
		// worker then re-checks the new tracker once to close its
		// registration race, skipping every other tracker. Settling
		// here keeps the counters the same on every run.
		if _, err := f.settle(c0+s0+1+len(f.subs), time.Now(), nil); err != nil {
			f.srv.Close()
			return nil, err
		}
	}
	return f, nil
}

// counters reads how many standing-query diff passes the server has
// run and how many tracker updates the affectedness gate skipped.
func (f *ingestFixture) counters() (computed, skipped int) {
	_, text, _ := f.c.call("GET", "/metrics", nil)
	return int(promValue(text, "colarm_rule_diff_seconds_count")), int(promValue(text, "colarm_rule_diff_skipped_total"))
}

// settle waits until the standing-query worker has made `decisions`
// diff-or-skip decisions in total, folding every event that arrives
// and recording its latency from start. It returns the number of
// decisions by then.
func (f *ingestFixture) settle(decisions int, start time.Time, notify *[]float64) (int, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		computed, skipped := f.counters()
		done := computed+skipped >= decisions
		wait := time.Millisecond
		if done {
			// A diff pass is counted just before its event is appended;
			// give that last append a moment.
			wait = 5 * time.Millisecond
		}
		for _, s := range f.subs {
			n, err := s.poll(f.c, wait)
			if err != nil {
				return 0, err
			}
			for i := 0; i < n && notify != nil; i++ {
				*notify = append(*notify, float64(time.Since(start))/1e6)
			}
		}
		if done {
			return computed + skipped, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("standing queries did not settle: %d of %d decisions", computed+skipped, decisions)
		}
	}
}

// readQuery draws one of the reader's queries: a focal subset with a
// few item attributes, which keeps answers small.
func (t *table) readQuery(rng *rand.Rand) colarm.Query {
	focal := t.focalRange(rng, 0.2)
	var items []string
	for _, i := range rng.Perm(len(t.attrs)) {
		if _, ok := focal[t.attrs[i]]; !ok && len(items) < 6 {
			items = append(items, t.attrs[i])
		}
	}
	return colarm.Query{Range: focal, ItemAttributes: items, MinSupport: 0.4, MinConfidence: ingestMinConf}
}

// read returns the reader's next query and its index among them.
func (f *ingestFixture) read() (int, colarm.Query) {
	i := f.nextRead % len(f.reads)
	f.nextRead++
	return i, f.reads[i]
}

// batch draws the next batch of rows.
func (f *ingestFixture) batch() []map[string]string {
	return f.t.sampleRows(f.rng, ingestBatchRows)
}

func runIngest(r *run) error {
	t, err := r.table("mushroom", true, 0)
	if err != nil {
		return err
	}
	opts := func(t *table) colarm.Options { return colarm.Options{PrimarySupport: t.primary} }
	engs, err := r.setup([]*table{t}, opts)
	if err != nil {
		return err
	}
	f, err := newIngestFixture(r, t, engs[0])
	if err != nil {
		return err
	}
	defer f.srv.Close()
	computed0, skipped0 := f.counters()
	decisions := computed0 + skipped0

	var (
		reads    int
		cycles   []float64 // the reader's rate over each batch's cycle
		notify   []float64
		ingestMs []float64
		wg       sync.WaitGroup
		// Each batch hands the reader its turn twice: at the ingest
		// acknowledgement for the one read that meets the pending
		// merged-view re-mine, and once the batch has settled for the
		// rest, which then run alone.
		acked    = make(chan struct{})
		settled  = make(chan struct{})
		readDone = make(chan struct{})
	)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(r.cfg.seconds)
	perQuery := make([][]float64, len(f.reads))
	read := func() {
		i, q := f.read()
		r.attempted.Add(1)
		st, body, d := f.c.call("POST", "/v1/mine", mineJSON(t.name, q, true))
		reads++
		perQuery[i] = append(perQuery[i], float64(d)/1e6)
		if st != 200 {
			r.fail("ingest-notify read: status %d: %.200s", st, body)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range acked {
			read()
			<-settled
			for i := 1; i < ingestReads; i++ {
				read()
			}
			readDone <- struct{}{}
		}
	}()
	batches := 0
	var failure error
	for time.Now().Before(deadline) {
		rows := f.batch()
		r.attempted.Add(1)
		t0 := time.Now()
		st, body, d, err := f.c.postJSON("/v1/ingest", map[string]any{"dataset": t.name, "inserts": rows, "rebuild": "never"})
		ingestMs = append(ingestMs, float64(d)/1e6)
		if err != nil || st != 200 {
			r.fail("ingest-notify ingest: status %d: %.200s %v", st, body, err)
			break
		}
		batches++
		acked <- struct{}{}
		decisions, failure = f.settle(decisions+len(f.subs), t0, &notify)
		settled <- struct{}{}
		<-readDone
		cycles = append(cycles, ingestReads/time.Since(t0).Seconds())
		if failure != nil {
			break
		}
	}
	close(acked)
	wg.Wait()
	if failure != nil {
		return failure
	}
	// Reads come in bursts of ingestReads, one per batch, so a window
	// of the run would count whole bursts or not. Each batch's cycle,
	// from its ingest to its last read, is a window without such steps.
	elapsed := time.Since(start)
	r.metrics["throughput_qps"] = median(cycles)
	r.requestPercentiles(perQuery)
	r.noteRuntime(before, reads)
	computed, skipped := f.counters()
	r.report("batches %d of %d rows, reads %d in %.3fs; standing diffs %d computed, %d skipped; events %d",
		batches, ingestBatchRows, reads, elapsed.Seconds(), computed-computed0, skipped-skipped0, len(notify))
	r.metrics["notify_p50_ms"] = percentile(notify, 50)
	r.metrics["notify_p90_ms"] = percentile(notify, 90)
	r.metrics["ingest_p50_ms"] = percentile(ingestMs, 50)
	r.admissionRejects(f.c)

	if err := r.checkIngest(f); err != nil {
		return err
	}
	r.notReached("grid_s", "cost.auto_regret")
	if !r.cfg.trace {
		return nil
	}
	eng, err := colarm.Open(t.ds, opts(t))
	if err != nil {
		return err
	}
	return r.traceIngest(t, eng)
}

// checkIngest ends the measured run: every standing query's folded
// rules must equal a fresh mine at the final version, and after one
// forced rebuild a read must equal the stale read at the same version.
// It records rebuild_s.
func (r *run) checkIngest(f *ingestFixture) error {
	t := f.t
	for _, s := range f.subs {
		r.attempted.Add(1)
		st, body, _ := f.c.call("POST", "/v1/mine", mineJSON(t.name, s.q, true))
		a, err := decodeAnswer(body)
		if st != 200 || err != nil {
			r.fail("ingest-notify fresh mine: status %d %v", st, err)
			continue
		}
		if !toSet(a.Rules).equal(s.rules) {
			r.fail("ingest-notify: subscription %s folded to %d rules, a fresh mine at version %d has %d", s.id, len(s.rules), a.Version, len(a.Rules))
		}
	}

	stale, gen, err := f.reg.Get(t.name)
	if err != nil {
		return err
	}
	r.attempted.Add(1)
	start := time.Now()
	st, body, _, err := f.c.postJSON("/v1/ingest", map[string]any{"dataset": t.name, "rebuild": "force"})
	if err != nil || st != 200 {
		r.fail("ingest-notify forced rebuild: status %d: %.200s %v", st, body, err)
		return nil
	}
	for {
		if _, g, err := f.reg.Get(t.name); err == nil && g > gen {
			break
		}
		if time.Since(start) > time.Minute {
			return fmt.Errorf("forced rebuild did not finish within a minute")
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.metrics["rebuild_s"] = time.Since(start).Seconds()

	_, q := f.read()
	r.attempted.Add(1)
	st, body, _ = f.c.call("POST", "/v1/mine", mineJSON(t.name, q, true))
	after, err := decodeAnswer(body)
	if st != 200 || err != nil {
		r.fail("ingest-notify post-rebuild read: status %d %v", st, err)
		return nil
	}
	before, err := stale.Mine(q)
	if err != nil {
		return fmt.Errorf("stale read: %w", err)
	}
	want := make([]wireRule, len(before.Rules))
	for i, rule := range before.Rules {
		want[i] = fromRule(rule)
	}
	if !toSet(after.Rules).equal(toSet(want)) {
		r.fail("ingest-notify: post-rebuild read has %d rules, the stale read at the same version %d", len(after.Rules), len(want))
	}
	return nil
}

// traceIngest replays the first ingestReplay batches of the measured
// run's seed on a fresh engine, one step at a time, timing the delta
// and standing layers through their public calls and probing the
// stale reads.
func (r *run) traceIngest(t *table, eng *colarm.Engine) error {
	f, err := newIngestFixture(r, t, eng)
	if err != nil {
		return err
	}
	defer f.srv.Close()
	ctx := context.Background()
	computed0, skipped0 := f.counters()
	decisions := computed0 + skipped0
	prev := make([][]colarm.Rule, len(f.subs))
	for i, s := range f.subs {
		d, err := eng.RuleDiff(ctx, s.q, nil)
		if err != nil {
			return err
		}
		prev[i] = d.Rules
	}
	n := ingestReplay
	if r.cfg.smoke {
		n = 3
	}
	// The queries the stale reads below will read, read first on the
	// engine before its first batch: the fresh cost they compare with.
	// A stale probe follows the same query's HTTP read, so the fresh
	// read is timed on its second call too.
	var fresh time.Duration
	first := f.nextRead
	for b := 0; b < n; b++ {
		f.read()
		for k := 0; k < ingestStaleReads; k++ {
			_, q := f.read()
			if _, err := eng.MineContext(ctx, q); err != nil {
				return err
			}
			start := time.Now()
			if _, err := eng.MineContext(ctx, q); err != nil {
				return err
			}
			fresh += time.Since(start)
		}
	}
	f.nextRead = first
	l := newLayers()
	var ingest, view, stale, diff time.Duration
	var stales, diffs int
	for b := 0; b < n; b++ {
		rows := f.batch()
		start := time.Now()
		if _, err := eng.IngestContext(ctx, rows, nil); err != nil {
			return fmt.Errorf("ingesting: %w", err)
		}
		ingest += time.Since(start)
		// The first query after a batch materializes the merged view
		// (or waits for the standing worker that started it).
		_, q := f.read()
		start = time.Now()
		if _, err := eng.MineContext(ctx, q); err != nil {
			return err
		}
		view += time.Since(start)
		if decisions, err = f.settle(decisions+len(f.subs), start, nil); err != nil {
			return err
		}
		for k := 0; k < ingestStaleReads; k++ {
			_, q := f.read()
			r.attempted.Add(1)
			st, body, d := f.c.call("POST", "/v1/mine", mineJSON(t.name, q, true))
			if st != 200 {
				r.fail("ingest-notify replay read: status %d", st)
				continue
			}
			l.answered(body, false)
			wall, err := l.probe(ctx, eng, q, "", d)
			if err != nil {
				return err
			}
			stale += wall
			stales++
		}
		for i, s := range f.subs {
			start := time.Now()
			d, err := eng.RuleDiff(ctx, s.q, prev[i])
			if err != nil {
				return err
			}
			diff += time.Since(start)
			diffs++
			prev[i] = d.Rules
		}
	}
	computed, skipped := f.counters()
	l.record(r)
	r.metrics["delta.ingest_us"] = float64(ingest) / 1e3 / float64(n)
	r.metrics["delta.merged_view_ms"] = float64(view) / 1e6 / float64(n)
	r.metrics["delta.stale_query_ms"] = ratio(float64(stale)/1e6, float64(stales))
	r.metrics["delta.fresh_query_ms"] = float64(fresh) / 1e6 / float64(n*ingestStaleReads)
	r.metrics["standing.diff_ms"] = ratio(float64(diff)/1e6, float64(diffs))
	r.metrics["standing.diffs_computed"] = float64(computed - computed0)
	r.metrics["standing.diffs_skipped"] = float64(skipped - skipped0)
	return nil
}
