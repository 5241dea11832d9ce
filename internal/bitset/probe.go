package bitset

import "sync"

// Probe is the record-level scan kernel behind ScanCheck: the ids of one
// set (the query's focal subset D^Q), held as sorted uint16 lists, one
// per non-empty 2^16-id container. Counting |D^Q ∩ T| walks each list
// against T's container of the same index with a kernel chosen by that
// container's kind, so the work grows with |D^Q| — the paper's
// record-level scan — without a per-id binary search into array
// containers.
//
// A Probe is immutable after NewProbe and safe for concurrent use.
type Probe struct {
	lists []probeList // one per non-empty container, ascending
	n     int         // ids held
	most  int         // longest list: the CountAll scratch bound
}

// probeList is one container's share of a Probe's ids.
type probeList struct {
	ci  int      // container index
	ids []uint16 // sorted ids
	bm  []uint64 // ids as a bitmap, or nil when the list is short
}

const (
	// gallopRatio is the size ratio past which an array×array count or
	// filter gallops from the shorter side instead of walking both.
	gallopRatio = 8
	// probeBitmapMin is the shortest list that also gets a bitmap. The
	// bitmap test beats the merge walk at every list length
	// (BenchmarkCountInArray), but each bitmap is an 8 KiB allocation
	// per container per query, per shard on the sharded path. At 64 ids
	// it costs at most 128 bytes per id and repays its build (~2.5 µs on
	// a 2-vCPU Xeon) within about 20 counts; a 16-id list would pay 512
	// bytes per id and need about 60 counts.
	probeBitmapMin = 64
)

// NewProbe captures s's ids. Later changes to s do not affect the Probe.
func NewProbe(s *Set) *Probe {
	p := &Probe{n: s.Count()}
	ids := make([]uint16, 0, p.n) // exact size: the lists share it
	for ci := range s.ctrs {
		c := &s.ctrs[ci]
		if c.card == 0 {
			continue
		}
		start := len(ids)
		forEachCtr(c, 0, func(v int) bool {
			ids = append(ids, uint16(v))
			return true
		})
		l := probeList{ci: ci, ids: ids[start:]}
		if c.card >= probeBitmapMin {
			l.bm = make([]uint64, ctrWords)
			for _, v := range l.ids {
				l.bm[v>>6] |= 1 << (v & 63)
			}
		}
		p.lists = append(p.lists, l)
		p.most = max(p.most, len(l.ids))
	}
	return p
}

// Len returns the number of ids the Probe holds.
func (p *Probe) Len() int { return p.n }

// Count returns |P ∩ t|: how many of the Probe's ids t contains. Like
// Contains, it tolerates any capacity of t — ids beyond t.Len() count as
// absent. It does not allocate.
func (p *Probe) Count(t *Set) int {
	n := 0
	for i := range p.lists {
		l := &p.lists[i]
		if l.ci >= len(t.ctrs) {
			break
		}
		n += countIn(l.ids, l.bm, &t.ctrs[l.ci])
	}
	return n
}

// scratchPool recycles CountAll's filter buffers across calls and
// goroutines.
var scratchPool = sync.Pool{New: func() any { return new([]uint16) }}

// CountAll returns |P ∩ sets[0] ∩ … ∩ sets[k-1]|, the ids contained in
// every set. Per container it filters the id list through each set in
// turn into a scratch buffer, counts the survivors against the last set,
// and stops as soon as the list runs empty. With no sets it returns
// Len().
func (p *Probe) CountAll(sets []*Set) int {
	switch len(sets) {
	case 0:
		return p.Len()
	case 1:
		return p.Count(sets[0])
	}
	bp := scratchPool.Get().(*[]uint16)
	if cap(*bp) < p.most {
		*bp = make([]uint16, 0, p.most)
	}
	buf := (*bp)[:0]
	n := 0
lists:
	for i := range p.lists {
		l := &p.lists[i]
		ids, bm := l.ids, l.bm
		for _, t := range sets[:len(sets)-1] {
			if l.ci >= len(t.ctrs) {
				continue lists
			}
			// After the first set, ids is buf: filterIn filters in place,
			// and only the Probe's own list has a bitmap.
			buf = filterIn(buf[:0], ids, bm, &t.ctrs[l.ci])
			if len(buf) == 0 {
				continue lists
			}
			ids, bm = buf, nil
		}
		if last := sets[len(sets)-1]; l.ci < len(last.ctrs) {
			n += countIn(ids, nil, &last.ctrs[l.ci])
		}
	}
	*bp = buf
	scratchPool.Put(bp)
	return n
}

// countIn returns how many of the sorted ids c contains. bm, when not
// nil, holds the same ids as a bitmap: an array container that is not
// much longer than ids is then counted by testing each of its ids
// against bm — the merge walk's work without its unpredictable
// branches.
func countIn(ids []uint16, bm []uint64, c *container) int {
	switch c.kind {
	case bitmapCtr:
		return bitTest(ids, c.b)
	case arrayCtr:
		if bm != nil && len(c.a) <= gallopRatio*len(ids) {
			return bitTest(c.a, bm)
		}
		return countArrays(ids, c.a)
	case runCtr:
		return countInRuns(ids, c.a)
	default: // empty
		return 0
	}
}

// bitTest returns how many of ids are set in the bitmap b.
func bitTest(ids []uint16, b []uint64) int {
	n := 0
	for _, v := range ids {
		n += int(b[v>>6] >> (v & 63) & 1)
	}
	return n
}

// filterIn appends to dst the sorted ids that c contains. dst may alias
// ids[:0]. bm is ids as a bitmap, or nil, as in countIn.
func filterIn(dst, ids []uint16, bm []uint64, c *container) []uint16 {
	if c.kind != arrayCtr {
		return filterArray(dst, ids, c, true)
	}
	switch {
	case bm != nil && len(c.a) <= gallopRatio*len(ids):
		for _, v := range c.a {
			if bm[v>>6]&(1<<(v&63)) != 0 {
				dst = append(dst, v)
			}
		}
		return dst
	case len(c.a) > gallopRatio*len(ids) || len(ids) > gallopRatio*len(c.a):
		return gallopFilter(dst, ids, c.a)
	}
	return filterArray(dst, ids, c, true)
}

// countArrays returns |x ∩ y| for two sorted arrays: a merge walk when
// the sizes are comparable, a gallop from the shorter side otherwise.
func countArrays(x, y []uint16) int {
	if len(x) > len(y) {
		x, y = y, x
	}
	if len(y) > gallopRatio*len(x) {
		n, j := 0, 0
		for _, v := range x {
			j = advanceUntil(y, j, v)
			if j == len(y) {
				break
			}
			if y[j] == v {
				n++
			}
		}
		return n
	}
	n, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopFilter appends to dst the elements of ids that also occur in a,
// galloping through whichever side is longer. dst may alias ids[:0]:
// the write position never passes the read position in ids.
func gallopFilter(dst, ids, a []uint16) []uint16 {
	if len(ids) <= len(a) {
		j := 0
		for _, v := range ids {
			j = advanceUntil(a, j, v)
			if j == len(a) {
				break
			}
			if a[j] == v {
				dst = append(dst, v)
			}
		}
		return dst
	}
	i := 0
	for _, v := range a {
		i = advanceUntil(ids, i, v)
		if i == len(ids) {
			break
		}
		if ids[i] == v {
			dst = append(dst, v)
		}
	}
	return dst
}

// advanceUntil returns the first index at or after pos whose value is
// >= v, or len(a): an exponential search followed by a binary search
// over the bracketed span, so skipping k elements costs O(log k).
func advanceUntil(a []uint16, pos int, v uint16) int {
	if pos >= len(a) || a[pos] >= v {
		return pos
	}
	// Invariant: a[lo] < v; the answer lies in (lo, hi].
	lo, step := pos, 1
	hi := pos + step
	for hi < len(a) && a[hi] < v {
		lo = hi
		step <<= 1
		hi = pos + step
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// countInRuns returns how many of the sorted ids fall inside the run
// list's intervals: one forward walk over both.
func countInRuns(ids, runs []uint16) int {
	n, j := 0, 0
	for _, v := range ids {
		for j < len(runs) && runs[j+1] < v {
			j += 2
		}
		if j == len(runs) {
			break
		}
		if runs[j] <= v {
			n++
		}
	}
	return n
}
