package plans

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/relation"
)

func TestCheckModeStrings(t *testing.T) {
	cases := []struct {
		mode CheckMode
		want string
	}{{AutoCheck, "auto"}, {ScanCheck, "scan"}, {BitmapCheck, "bitmap"}}
	for _, c := range cases {
		if c.mode.String() != c.want {
			t.Errorf("%v.String() = %q", c.mode, c.mode.String())
		}
		got, err := ParseCheckMode(c.want)
		if err != nil || got != c.mode {
			t.Errorf("ParseCheckMode(%q) = %v, %v", c.want, got, err)
		}
	}
	if m, err := ParseCheckMode(""); err != nil || m != AutoCheck {
		t.Error("empty mode must parse to auto")
	}
	if _, err := ParseCheckMode("bogus"); err == nil {
		t.Error("bogus mode must error")
	}
	if CheckMode(99).String() == "" {
		t.Error("unknown mode must still render")
	}
}

// wideIndex builds an index over more records than one 2^16-id tidset
// container holds, so focal subsets and tidsets span two containers. An
// arrival-ordered attribute gives run-encoded tidsets, a rare value
// gives sparse arrays, and skewed attributes give dense bitmaps.
func wideIndex(t testing.TB) *mip.Index {
	t.Helper()
	const m = 70_000
	b := relation.NewBuilder("wide", "Era", "Rare", "A", "B", "C")
	cards := []int{4, 2, 3, 3, 4}
	for a, card := range cards {
		for v := 0; v < card; v++ {
			b.AddValue(a, fmt.Sprintf("%c%d", 'a'+a, v))
		}
	}
	r := rand.New(rand.NewSource(17))
	skewed := func(card int) int {
		if r.Intn(3) > 0 {
			return r.Intn(2)
		}
		return r.Intn(card)
	}
	for i := 0; i < m; i++ {
		rare := 0
		if r.Intn(40) == 0 {
			rare = 1
		}
		if err := b.AddRecordIdx(i*cards[0]/m, rare, skewed(cards[2]), skewed(cards[3]), skewed(cards[4])); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.02, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// shardedColl partitions an index's records across k shards by id
// modulo k, the shape a hash-partitioned collection presents.
type shardedColl []ShardSlice

func newShardedColl(idx *mip.Index, k int) shardedColl {
	m := idx.Dataset.NumRecords()
	coll := make(shardedColl, k)
	for s := range coll {
		recs := bitset.New(m)
		for id := s; id < m; id += k {
			recs.Add(id)
		}
		items := make([]*bitset.Set, len(idx.Tidsets))
		for it, tids := range idx.Tidsets {
			items[it] = bitset.Intersect(tids, recs)
			items[it].Optimize()
		}
		recs.Optimize()
		coll[s] = ShardSlice{Records: recs, Items: items}
	}
	return coll
}

func (c shardedColl) NumShards() int       { return len(c) }
func (c shardedColl) Slices() []ShardSlice { return c }

// modeQueries are the differential's queries: a broad and a narrow
// focal subset (the narrow ones fall under AutoCheck's scan crossover),
// with and without an item-attribute clause.
func modeQueries(t *testing.T, idx *mip.Index, sel []map[string][]string) []*Query {
	t.Helper()
	var qs []*Query
	for i, m := range sel {
		reg, err := idx.RegionFromSelections(m)
		if err != nil {
			t.Fatal(err)
		}
		q := &Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.6}
		if i%2 == 1 {
			q.MinSupport, q.MinConfidence, q.MaxConsequent = 0.2, 0.5, 1
			q.ItemAttrs = make([]bool, idx.Space.NumAttrs())
			for a := 1; a < len(q.ItemAttrs); a++ {
				q.ItemAttrs[a] = true
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// TestCheckModesAgree is the executor differential across the
// record-level check implementations: every plan under Scan, Bitmap and
// Auto checks, on the serial and the parallel path, monolithic and over
// a K=3 sharded collection, must return byte-identical rules and Stats.
// The wide dataset spans two tidset containers, so the multi-container
// scan kernel and the per-shard scan path are both held to the
// monolithic serial scan.
func TestCheckModesAgree(t *testing.T) {
	salary := salaryIndex(t, 0.18)
	wide := wideIndex(t)
	if wide.Dataset.NumRecords() <= 1<<16 {
		t.Fatal("wide dataset fits in one container")
	}
	cases := []struct {
		name string
		idx  *mip.Index
		qs   []*Query
	}{
		{"salary", salary, modeQueries(t, salary, []map[string][]string{
			{"Location": {"Boston", "SFO"}},
			{"Location": {"Seattle"}},
			{},
		})},
		// q1 and q2 span both containers; q1 is narrow enough that
		// AutoCheck resolves to the scan kernel, q2 to the bitmap one.
		{"wide", wide, modeQueries(t, wide, []map[string][]string{
			{"Era": {"a1", "a2"}},
			{"Rare": {"b1"}, "A": {"c0", "c1"}},
			{"Era": {"a0", "a3"}, "B": {"d2"}},
		})},
	}
	layouts := []struct {
		name string
		coll Collection
	}{{"monolith", nil}, {"K=3", nil}}
	for _, tc := range cases {
		layouts[1].coll = newShardedColl(tc.idx, 3)
		for _, k := range Kinds() {
			for qi, q := range tc.qs {
				var ref *Result
				for _, lay := range layouts {
					for _, mode := range []CheckMode{ScanCheck, BitmapCheck, AutoCheck} {
						for _, workers := range []int{1, 4} {
							ex := &Executor{Idx: tc.idx, Mode: mode, Workers: workers, Coll: lay.coll}
							res, err := ex.Run(k, q)
							if err != nil {
								t.Fatalf("%s/%v/q%d %s %v w=%d: %v", tc.name, k, qi, lay.name, mode, workers, err)
							}
							res.Stats.Duration = 0
							if ref == nil {
								ref = res
								continue
							}
							label := fmt.Sprintf("%s/%v/q%d %s %v w=%d", tc.name, k, qi, lay.name, mode, workers)
							if !reflect.DeepEqual(res.Rules, ref.Rules) {
								t.Fatalf("%s: %d rules differ from the monolithic serial scan's %d",
									label, len(res.Rules), len(ref.Rules))
							}
							if res.Stats != ref.Stats {
								t.Fatalf("%s: stats differ\ngot:  %+v\nwant: %+v", label, res.Stats, ref.Stats)
							}
						}
					}
				}
				if k == SSEUV && qi == 0 && len(ref.Rules) == 0 {
					t.Errorf("%s: reference query emits no rules; the differential checks nothing", tc.name)
				}
				if tc.name == "wide" && qi == 1 && ref.Stats.SubsetSize > tc.idx.Dataset.NumRecords()/32 {
					t.Errorf("wide/q1: |D^Q| = %d no longer takes AutoCheck's scan path", ref.Stats.SubsetSize)
				}
			}
		}
	}
}

// TestStatsCounters sanity-checks the operator instrumentation the cost
// model is calibrated against.
func TestStatsCounters(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex := NewExecutor(idx)
	ex.Mode = ScanCheck
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.5}
	res, err := ex.Run(SEV, q)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SubsetSize != 11 {
		t.Errorf("SubsetSize = %d", st.SubsetSize)
	}
	if st.Candidates != st.Contained+st.PartialOverlap {
		t.Errorf("candidates %d != contained %d + partial %d", st.Candidates, st.Contained, st.PartialOverlap)
	}
	if st.RNodesVisited == 0 || st.REntriesChecked == 0 {
		t.Error("search counters empty")
	}
	if st.Qualified > st.Candidates {
		t.Error("qualified exceeds candidates")
	}
	if st.RulesEmitted != len(res.Rules) {
		t.Errorf("RulesEmitted %d != %d", st.RulesEmitted, len(res.Rules))
	}
	if st.Duration <= 0 {
		t.Error("duration not recorded")
	}
	// Full-domain region: every candidate contained.
	if st.PartialOverlap != 0 {
		t.Errorf("full-domain query saw %d partial MIPs", st.PartialOverlap)
	}
	// ARM stats.
	resARM, err := ex.Run(ARM, q)
	if err != nil {
		t.Fatal(err)
	}
	if resARM.Stats.ARMRecordsScanned != 11 {
		t.Errorf("ARM scanned %d records", resARM.Stats.ARMRecordsScanned)
	}
	if resARM.Stats.ARMFrequentItemsets == 0 {
		t.Error("ARM mined nothing")
	}
}

func TestUnknownKindError(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex := NewExecutor(idx)
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.5}
	if _, err := ex.Run(Kind(42), q); err == nil {
		t.Error("unknown kind must error")
	}
}
