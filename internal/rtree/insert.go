package rtree

import (
	"fmt"

	"colarm/internal/itemset"
)

// Insert adds an entry to the tree (Guttman's algorithm with the tree's
// configured split). It appends the entry to its chosen leaf's run
// (relocating the run to the arena end when it is not already there),
// grows boxes and max-support aggregates along the path, and splits
// overfull nodes by appending fresh nodes and runs. Packed trees accept
// inserts too; they simply lose their perfect utilization.
func (t *Tree) Insert(e Entry) error {
	if e.Box.Dims() != t.dims {
		return fmt.Errorf("rtree: entry has %d dims, tree has %d", e.Box.Dims(), t.dims)
	}
	if e.Box.IsEmpty() {
		return fmt.Errorf("rtree: refusing to insert empty box")
	}
	path := t.chooseLeaf(t.root, e.Box, nil)
	leaf := path[len(path)-1]
	t.appendToLeafRun(leaf, e)
	t.size++
	for _, ni := range path {
		b := t.nodeBox(ni)
		if b.IsEmpty() {
			copy(b.Lo, e.Box.Lo)
			copy(b.Hi, e.Box.Hi)
		} else {
			b.ExtendBox(e.Box)
		}
		if e.Support > t.nodes[ni].maxSupport {
			t.nodes[ni].maxSupport = e.Support
		}
	}
	if t.nodes[leaf].count > int32(t.fanout) {
		t.splitUp(path)
	}
	return nil
}

// chooseLeaf descends from ni picking, at each level, the child whose
// box needs the least enlargement to include b (ties by smaller area,
// then first), and returns the root-to-leaf path.
func (t *Tree) chooseLeaf(ni int32, b itemset.Box, path []int32) []int32 {
	path = append(path, ni)
	if t.nodes[ni].leaf {
		return path
	}
	best := int32(-1)
	var bestEnl, bestArea float64
	for _, c := range t.kids(ni) {
		cb := t.nodeBox(c)
		enl := enlargement(cb, b)
		area := boxArea(cb)
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return t.chooseLeaf(best, b, path)
}

// appendToLeafRun adds e to leaf ni's entry run, relocating the run to
// the end of the entry arenas unless it is already the tail.
func (t *Tree) appendToLeafRun(ni int32, e Entry) {
	nd := &t.nodes[ni]
	if int(nd.off+nd.count) != len(t.entIDs) {
		newOff := int32(len(t.entIDs))
		for s := nd.off; s < nd.off+nd.count; s++ {
			t.appendEntrySlot(t.entryAt(s))
		}
		nd.off = newOff
	}
	t.appendEntrySlot(e)
	t.nodes[ni].count++
}

// replaceKid rewrites parent's child run substituting oldKid with a and
// appending b, relocating the run to the arena end unless it is the
// tail.
func (t *Tree) replaceKid(parent, oldKid, a, b int32) {
	nd := &t.nodes[parent]
	if int(nd.off+nd.count) != len(t.kidArena) {
		newOff := int32(len(t.kidArena))
		t.kidArena = append(t.kidArena, t.kidArena[nd.off:nd.off+nd.count]...)
		nd.off = newOff
	}
	run := t.kidArena[nd.off : nd.off+nd.count]
	for j, c := range run {
		if c == oldKid {
			run[j] = a
			break
		}
	}
	t.kidArena = append(t.kidArena, b)
	t.nodes[parent].count++
}

// refresh recomputes node ni's box and max-support from its members.
func (t *Tree) refresh(ni int32) {
	nd := &t.nodes[ni]
	b := t.nodeBox(ni)
	for d := 0; d < t.dims; d++ {
		b.Lo[d] = 1 << 30
		b.Hi[d] = -1
	}
	nd.maxSupport = 0
	if nd.leaf {
		for s := nd.off; s < nd.off+nd.count; s++ {
			b.ExtendBox(t.entryBox(s))
			if t.entSups[s] > nd.maxSupport {
				nd.maxSupport = t.entSups[s]
			}
		}
		return
	}
	for _, c := range t.kids(ni) {
		b.ExtendBox(t.nodeBox(c))
		if t.nodes[c].maxSupport > nd.maxSupport {
			nd.maxSupport = t.nodes[c].maxSupport
		}
	}
}

// splitUp splits the overfull node at the end of path and propagates
// splits (and possibly a new root) upward.
func (t *Tree) splitUp(path []int32) {
	for i := len(path) - 1; i >= 0; i-- {
		ni := path[i]
		nd := &t.nodes[ni]
		if nd.count <= int32(t.fanout) {
			t.refresh(ni)
			continue
		}
		a, b := t.splitNode(ni)
		if i == 0 {
			off := int32(len(t.kidArena))
			t.kidArena = append(t.kidArena, a, b)
			root := t.appendNode(false)
			rd := &t.nodes[root]
			rd.off, rd.count = off, 2
			t.refresh(root)
			t.root = root
			return
		}
		t.replaceKid(path[i-1], ni, a, b)
	}
}

// members snapshots node ni's members for a split. Boxes are cloned:
// the split appends to the box/entry arenas, which may reallocate them
// under any live views.
func (t *Tree) members(ni int32) []member {
	nd := &t.nodes[ni]
	ms := make([]member, 0, nd.count)
	if nd.leaf {
		for s := nd.off; s < nd.off+nd.count; s++ {
			e := t.entryAt(s)
			e.Box = e.Box.Clone()
			ms = append(ms, member{box: e.Box, entry: e})
		}
		return ms
	}
	for _, c := range t.kids(ni) {
		ms = append(ms, member{box: t.nodeBox(c).Clone(), childIdx: c})
	}
	return ms
}

// splitNode divides overfull node ni into two fresh slab nodes and
// returns their indices. Node ni's storage becomes garbage.
func (t *Tree) splitNode(ni int32) (int32, int32) {
	leaf := t.nodes[ni].leaf
	ga, gb := t.partitionMembers(t.members(ni))
	return t.materializeGroup(ga, leaf), t.materializeGroup(gb, leaf)
}

// materializeGroup appends a fresh node holding the group's members.
func (t *Tree) materializeGroup(g *group, leaf bool) int32 {
	ni := t.appendNode(leaf)
	nd := &t.nodes[ni]
	if leaf {
		nd.off = int32(len(t.entIDs))
		for _, m := range g.members {
			t.appendEntrySlot(m.entry)
			if m.entry.Support > t.nodes[ni].maxSupport {
				t.nodes[ni].maxSupport = m.entry.Support
			}
		}
	} else {
		nd.off = int32(len(t.kidArena))
		for _, m := range g.members {
			t.kidArena = append(t.kidArena, m.childIdx)
			if t.nodes[m.childIdx].maxSupport > t.nodes[ni].maxSupport {
				t.nodes[ni].maxSupport = t.nodes[m.childIdx].maxSupport
			}
		}
	}
	nd = &t.nodes[ni]
	nd.count = int32(len(g.members))
	b := t.nodeBox(ni)
	copy(b.Lo, g.box.Lo)
	copy(b.Hi, g.box.Hi)
	return ni
}

// member abstracts leaf entries and interior children so one split
// implementation serves both node kinds: childIdx is the child's slab
// index.
type member struct {
	box      itemset.Box
	entry    Entry
	childIdx int32
}

// partitionMembers runs Guttman's seed selection and distribution over
// the members of an overfull node.
func (t *Tree) partitionMembers(ms []member) (*group, *group) {
	var seedA, seedB int
	if t.split == LinearSplit {
		seedA, seedB = linearSeeds(ms, t.dims)
	} else {
		seedA, seedB = quadraticSeeds(ms)
	}
	ga := &group{box: ms[seedA].box.Clone()}
	gb := &group{box: ms[seedB].box.Clone()}
	ga.members = append(ga.members, ms[seedA])
	gb.members = append(gb.members, ms[seedB])

	rest := make([]member, 0, len(ms)-2)
	for i, m := range ms {
		if i != seedA && i != seedB {
			rest = append(rest, m)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining
		// members to reach minimum fill.
		if len(ga.members)+len(rest) <= t.minFil {
			for _, m := range rest {
				ga.add(m)
			}
			break
		}
		if len(gb.members)+len(rest) <= t.minFil {
			for _, m := range rest {
				gb.add(m)
			}
			break
		}
		// PickNext: the member with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, m := range rest {
			da := enlargement(ga.box, m.box)
			db := enlargement(gb.box, m.box)
			diff := da - db
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		m := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		da := enlargement(ga.box, m.box)
		db := enlargement(gb.box, m.box)
		switch {
		case da < db:
			ga.add(m)
		case db < da:
			gb.add(m)
		case len(ga.members) <= len(gb.members):
			ga.add(m)
		default:
			gb.add(m)
		}
	}
	return ga, gb
}

type group struct {
	box     itemset.Box
	members []member
}

func (g *group) add(m member) {
	g.box.ExtendBox(m.box)
	g.members = append(g.members, m)
}

// quadraticSeeds picks the pair wasting the most area if grouped
// together (Guttman's PickSeeds).
func quadraticSeeds(ms []member) (int, int) {
	sa, sb, worst := 0, 1, -1.0
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			u := ms[i].box.Clone()
			u.ExtendBox(ms[j].box)
			waste := boxArea(u) - boxArea(ms[i].box) - boxArea(ms[j].box)
			if waste > worst {
				sa, sb, worst = i, j, waste
			}
		}
	}
	return sa, sb
}

// linearSeeds picks, across dimensions, the pair with the greatest
// normalized separation (Guttman's LinearPickSeeds).
func linearSeeds(ms []member, dims int) (int, int) {
	bestA, bestB, bestSep := 0, 1, -1.0
	for d := 0; d < dims; d++ {
		loMaxIdx, hiMinIdx := 0, 0
		lo, hi := ms[0].box.Lo[d], ms[0].box.Hi[d]
		for i, m := range ms {
			if m.box.Lo[d] > ms[loMaxIdx].box.Lo[d] {
				loMaxIdx = i
			}
			if m.box.Hi[d] < ms[hiMinIdx].box.Hi[d] {
				hiMinIdx = i
			}
			if m.box.Lo[d] < lo {
				lo = m.box.Lo[d]
			}
			if m.box.Hi[d] > hi {
				hi = m.box.Hi[d]
			}
		}
		if loMaxIdx == hiMinIdx {
			continue
		}
		width := float64(hi - lo)
		if width <= 0 {
			width = 1
		}
		sep := float64(ms[loMaxIdx].box.Lo[d]-ms[hiMinIdx].box.Hi[d]) / width
		if sep > bestSep {
			bestA, bestB, bestSep = hiMinIdx, loMaxIdx, sep
		}
	}
	if bestA == bestB {
		bestB = (bestA + 1) % len(ms)
	}
	return bestA, bestB
}

// boxArea is the volume of a box; computed in log space would be safer
// for extreme dimensionality, but float64 covers the value-index domains
// COLARM indexes (cardinalities < 2^10, dims < 100).
func boxArea(b itemset.Box) float64 {
	if b.IsEmpty() {
		return 0
	}
	a := 1.0
	for d := range b.Lo {
		a *= float64(b.Hi[d] - b.Lo[d] + 1)
	}
	return a
}

// enlargement is how much b's area grows to include o.
func enlargement(b, o itemset.Box) float64 {
	if b.IsEmpty() {
		return boxArea(o)
	}
	u := b.Clone()
	u.ExtendBox(o)
	return boxArea(u) - boxArea(b)
}
