package shard

import (
	"fmt"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/rtree"
)

// ShardIndex is one shard's physical MIP-index: the shard's threshold-1
// closed-set catalog (the input to the cross-shard closure merge) plus
// the two physical layers built over it — a closed IT-tree and a
// supported R-tree over the shard-local bounding boxes. Caching the
// physical layers alongside the mining, keyed by the shard's version
// clock and the frequent-item universe, is what lets consolidation
// re-mine AND re-index only the drifted shards while clean shards keep
// serving their cached index unchanged.
//
// A ShardIndex is immutable once published.
type ShardIndex struct {
	// Shard is the shard number in [0, K).
	Shard int
	// Version is the shard clock value the index was built at.
	Version uint64
	// UKey identifies the frequent-item universe the mining restricted
	// to (itemset.Set.Key of the universe).
	UKey string
	// Slice is the shard's record/tidset projection the index covers.
	Slice plans.ShardSlice
	// Mine is the shard's threshold-1 closed-set catalog over the
	// universe — the closure-merge input.
	Mine *charm.Result
	// Tree is the closed IT-tree over the shard-local CFIs; supports
	// are shard-local.
	Tree *ittree.Tree
	// Boxes[i] is the shard-local bounding box of CFI i (Tree ids):
	// the extent of the shard's supporting records only.
	Boxes []itemset.Box
	// RTree indexes the shard-local boxes with shard-local supports.
	RTree *rtree.Tree
	// BuildNanos is the wall-clock cost of mining + indexing this
	// shard, for the consolidation-pause accounting and /metrics.
	BuildNanos int64
}

// buildShardIndex mines one shard at threshold 1 over the universe and
// packs the physical layers. sl.Items carries the shard-restricted
// per-item tidsets; items outside the universe (inU false) are masked
// off so the threshold-1 enumeration stays bounded by 2^U.
func buildShardIndex(shard int, version uint64, ukey string, sl plans.ShardSlice, inU []bool, capN int, sp *itemset.Space, cards []int, fanout int, packing rtree.Packing) *ShardIndex {
	start := time.Now()
	tids := make([]*bitset.Set, len(sl.Items))
	for i, t := range sl.Items {
		if t != nil && inU[i] {
			tids[i] = t
		}
	}
	res, err := charm.MineTidsets(tids, capN, 1)
	if err != nil {
		// Unreachable: minCount 1 is the only error path.
		panic(fmt.Sprintf("shard: per-shard mining failed: %v", err))
	}
	si := &ShardIndex{
		Shard:   shard,
		Version: version,
		UKey:    ukey,
		Slice:   sl,
		Mine:    res,
		Tree:    ittree.Build(res, sp.NumItems()),
		Boxes:   make([]itemset.Box, len(res.Closed)),
	}
	entries := make([]rtree.Entry, len(res.Closed))
	for id, c := range res.Closed {
		si.Boxes[id] = mip.BoundingBox(sp, cards, sl.Items, c)
		entries[id] = rtree.Entry{Box: si.Boxes[id], ID: int32(id), Support: int32(c.Support)}
	}
	rt, err := rtree.Bulk(entries, sp.NumAttrs(), fanout, packing, cards)
	if err != nil {
		// Unreachable: entries are well-formed by construction (every
		// CFI has support >= 1, so no empty boxes).
		panic(fmt.Sprintf("shard: per-shard R-tree build failed: %v", err))
	}
	si.RTree = rt
	si.BuildNanos = time.Since(start).Nanoseconds()
	return si
}

// Validate cross-checks the shard index's physical layers: the R-tree
// must be structurally valid with one entry per local CFI, and every
// local box must cover the shard's supporting records.
func (si *ShardIndex) Validate(sp *itemset.Space, value func(r, a int) int) error {
	if err := si.Tree.Validate(); err != nil {
		return fmt.Errorf("shard %d: %w", si.Shard, err)
	}
	if err := si.RTree.Validate(); err != nil {
		return fmt.Errorf("shard %d: %w", si.Shard, err)
	}
	if si.RTree.Size() != si.Tree.Size() {
		return fmt.Errorf("shard %d: R-tree has %d entries, IT-tree %d", si.Shard, si.RTree.Size(), si.Tree.Size())
	}
	n := sp.NumAttrs()
	point := make([]int, n)
	for id := 0; id < si.Tree.Size(); id++ {
		box := si.Boxes[id]
		ok := true
		si.Tree.Tids(id).ForEach(func(r int) bool {
			for a := 0; a < n; a++ {
				point[a] = value(r, a)
			}
			if !box.ContainsPoint(point) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return fmt.Errorf("shard %d: box of local CFI %d does not cover its records", si.Shard, id)
		}
	}
	return nil
}
