package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"colarm"
	"colarm/internal/bench"
	"colarm/internal/colarmql"
	"colarm/internal/core"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/relation"
)

// dataSeed fixes the generated datasets. They stand in for the paper's
// fixed UCI files, so every run and every --seed sees the same data;
// --seed varies only the requests and the ingested rows, which keeps
// one seed's figures comparable with another's.
const dataSeed = 1

// table is one generated dataset in the two forms the benchmark needs:
// the public facade's Dataset, which engines are opened on, and the
// same CSV read by the relation package, which CHARM is timed on and
// focal subsets and ingested rows are drawn from.
type table struct {
	name    string
	spec    bench.DatasetSpec
	primary float64
	ds      *colarm.Dataset
	rel     *relation.Dataset
	// env holds only the item tidsets bench.Env.RandomFocalSubset
	// reads, not an engine.
	env     *bench.Env
	attrs   []string
	domains map[string][]string // value labels per attribute, in axis order
}

// profile selects the generated size of a dataset: the reduced profile
// of bench.Specs(false, ...) or the full-size one.
type profile struct {
	name    string
	reduced bool
	primary float64 // overrides the spec's primary support when > 0
	scale   float64 // extra record-count factor (smoke runs); 0 means 1
}

func loadTable(p profile) (*table, error) {
	spec, err := bench.SpecByName(bench.Specs(!p.reduced, dataSeed), p.name)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config
	if p.scale > 0 && p.scale != 1 {
		cfg = datagen.Scaled(cfg, p.scale)
	}
	gen, err := datagen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", p.name, err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("writing %s: %w", p.name, err)
	}
	raw := buf.Bytes()
	ds, err := colarm.ReadCSV(p.name, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", p.name, err)
	}
	rel, err := relation.ReadCSV(p.name, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", p.name, err)
	}
	sp := itemset.NewSpace(rel)
	env := &bench.Env{Spec: spec, Dataset: rel, Engine: &core.Engine{Index: &mip.Index{Space: sp, Tidsets: itemset.ItemTidsets(rel, sp)}}}
	t := &table{name: p.name, spec: spec, primary: spec.Primary, ds: ds, rel: rel, env: env, attrs: ds.Attributes(), domains: map[string][]string{}}
	if p.primary > 0 {
		t.primary = p.primary
	}
	for _, a := range t.attrs {
		vals, err := ds.Values(a)
		if err != nil {
			return nil, err
		}
		t.domains[a] = vals
	}
	return t, nil
}

// focalRange draws a focal subset holding about frac of the records
// with internal/bench's RandomFocalSubset, the paper's method, and
// renders it as value labels.
func (t *table) focalRange(rng *rand.Rand, frac float64) map[string][]string {
	reg := t.env.RandomFocalSubset(rng, frac)
	out := map[string][]string{}
	for d, a := range t.attrs {
		if !reg.Restricted(d) {
			continue
		}
		for _, v := range reg.Selected(d) {
			out[a] = append(out[a], t.domains[a][v])
		}
	}
	return out
}

// sampleRows draws n records of the dataset with replacement, in the
// label-map form /v1/ingest takes, so ingested rows follow the data's
// own distribution.
func (t *table) sampleRows(rng *rand.Rand, n int) []map[string]string {
	out := make([]map[string]string, n)
	for i := range out {
		rec := rng.Intn(t.rel.NumRecords())
		row := make(map[string]string, len(t.attrs))
		for ai, a := range t.attrs {
			row[a] = t.rel.ValueString(rec, ai)
		}
		out[i] = row
	}
	return out
}

// qlFor renders a query as a COLARM-QL statement through the query
// language's own printer.
func qlFor(dataset string, q colarm.Query) string {
	st := colarmql.Statement{
		Dataset:       dataset,
		ItemAttrs:     q.ItemAttributes,
		MinSupport:    q.MinSupport,
		MinConfidence: q.MinConfidence,
	}
	attrs := make([]string, 0, len(q.Range))
	for a := range q.Range {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		st.Range = append(st.Range, colarmql.RangeClause{Attr: a, Values: q.Range[a]})
	}
	return st.String()
}
