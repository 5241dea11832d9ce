package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// probeOracle is the per-id Contains loop the Probe kernels replace:
// how many ids of p lie in every one of sets.
func probeOracle(p *Set, sets ...*Set) int {
	n := 0
	p.ForEach(func(id int) bool {
		for _, t := range sets {
			if !t.Contains(id) {
				return true
			}
		}
		n++
		return true
	})
	return n
}

// ctrKinds names the container encodings a test can force.
var ctrKinds = []uint8{emptyCtr, arrayCtr, bitmapCtr, runCtr}

// forceKind re-encodes every non-empty container of s as kind (an empty
// kind clears the container), ignoring the repack policy: the kernels
// must be exact for any encoding a snapshot or a mutation can produce.
func forceKind(s *Set, kind uint8) {
	for i := range s.ctrs {
		c := &s.ctrs[i]
		switch {
		case kind == emptyCtr:
			c.setEmpty()
		case c.card == 0:
		case kind == arrayCtr:
			c.toArray()
		case kind == bitmapCtr:
			c.toBitmap()
		default:
			c.toRuns()
		}
	}
}

// checkProbe compares Count and CountAll against the oracle for p over
// every prefix of sets.
func checkProbe(t *testing.T, label string, p *Set, sets ...*Set) {
	t.Helper()
	pr := NewProbe(p)
	if pr.Len() != p.Count() {
		t.Fatalf("%s: Len %d, want %d", label, pr.Len(), p.Count())
	}
	for _, s := range sets {
		if got, want := pr.Count(s), probeOracle(p, s); got != want {
			t.Fatalf("%s: Count %d, want %d", label, got, want)
		}
	}
	for k := 0; k <= len(sets); k++ {
		if got, want := pr.CountAll(sets[:k]), probeOracle(p, sets[:k]...); got != want {
			t.Fatalf("%s: CountAll over %d sets %d, want %d", label, k, got, want)
		}
	}
}

// TestProbeMatchesContains crosses every container kind on the probe
// side with every kind on the tidset side, over universes of one and of
// several containers, sparse to dense and scattered to clustered.
func TestProbeMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 700, ctrBits, 3*ctrBits + 123} {
		for _, dens := range []float64{0.002, 0.05, 0.4, 0.95} {
			clustered := rng.Intn(2) == 0
			ps := FromIDs(n, randomIDs(rng, n, dens, clustered)...)
			ts := make([]*Set, 3)
			for i := range ts {
				ts[i] = FromIDs(n, randomIDs(rng, n, 0.01+rng.Float64()*0.9, rng.Intn(2) == 0)...)
			}
			for _, pk := range ctrKinds {
				for _, tk := range ctrKinds {
					p := ps.Clone()
					forceKind(p, pk)
					sets := make([]*Set, len(ts))
					for i, s := range ts {
						sets[i] = s.Clone()
						forceKind(sets[i], tk)
					}
					// Mix kinds along the CountAll chain too.
					forceKind(sets[2], ctrKinds[(int(tk)+1)%len(ctrKinds)])
					label := fmt.Sprintf("n=%d dens=%g probe=%d tidset=%d", n, dens, pk, tk)
					checkProbe(t, label, p, sets...)
				}
			}
		}
	}
}

// TestProbeDensePolicy runs the same oracle over sets built under the
// dense policy, alone and mixed with hybrid ones.
func TestProbeDensePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2*ctrBits + 77
	for trial := 0; trial < 6; trial++ {
		pIDs := randomIDs(rng, n, 0.001+0.1*rng.Float64(), trial%2 == 0)
		tIDs := randomIDs(rng, n, 0.05+0.5*rng.Float64(), trial%2 == 1)
		uIDs := randomIDs(rng, n, 0.3, false)
		dp, hp := buildBoth(n, pIDs)
		dt, ht := buildBoth(n, tIDs)
		du, hu := buildBoth(n, uIDs)
		hp.Optimize()
		ht.Optimize()
		label := fmt.Sprintf("trial %d", trial)
		checkProbe(t, label+" dense", dp, dt, du)
		checkProbe(t, label+" dense probe", dp, ht, hu)
		checkProbe(t, label+" dense tidsets", hp, dt, du)
		checkProbe(t, label+" mixed chain", hp, ht, du)
	}
}

// TestProbeGallopBothDirections pins the lopsided array×array cases:
// a short probe list galloping through a long tidset array, a long
// probe list galloped by a short one, and the same in the CountAll
// filter chain, including capacities that differ from the probe's.
func TestProbeGallopBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2*ctrBits + 500
	few := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		return ids
	}
	many := func() []int { return randomIDs(rng, n, 0.05, false) } // ~3.3k per container
	for trial := 0; trial < 8; trial++ {
		short, long := FromIDs(n, few(1+rng.Intn(30))...), FromIDs(n, many()...)
		// Share some ids so the intersection is not trivially empty.
		long.ForEach(func(id int) bool {
			if rng.Intn(400) == 0 {
				short.Add(id)
			}
			return true
		})
		forceKind(short, arrayCtr)
		forceKind(long, arrayCtr)
		other := FromIDs(n, many()...)
		forceKind(other, arrayCtr)
		checkProbe(t, "short probe", short, long, other, short)
		checkProbe(t, "long probe", long, short, other)
		checkProbe(t, "long probe, long first", long, other, short, long)
		// A tidset narrower than the probe's universe: the ids past its
		// capacity count as absent, as with Contains.
		narrow := FromIDs(ctrBits+10, few(200)...)
		checkProbe(t, "narrow tidset", long, narrow)
		checkProbe(t, "narrow in chain", long, other, narrow)
	}
	if got := advanceUntil([]uint16{1, 3, 5, 7, 9, 11, 13}, 0, 12); got != 6 {
		t.Fatalf("advanceUntil = %d, want 6", got)
	}
	if got := advanceUntil([]uint16{1, 3, 5}, 1, 99); got != 3 {
		t.Fatalf("advanceUntil past the end = %d, want 3", got)
	}
}

// TestProbeCountDoesNotAllocate pins the zero-allocation contract of the
// hot ScanCheck call for every tidset kind, and of CountAll once its
// scratch buffer is warm.
func TestProbeCountDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2 * ctrBits
	p := NewProbe(FromIDs(n, randomIDs(rng, n, 0.03, false)...))
	for _, kind := range ctrKinds[1:] {
		s := FromIDs(n, randomIDs(rng, n, 0.2, true)...)
		forceKind(s, kind)
		u := FromIDs(n, randomIDs(rng, n, 0.5, false)...)
		if a := testing.AllocsPerRun(50, func() { p.Count(s) }); a != 0 {
			t.Errorf("Count on kind %d: %v allocs per call", kind, a)
		}
		sets := []*Set{s, u, s}
		p.CountAll(sets)
		if a := testing.AllocsPerRun(50, func() { p.CountAll(sets) }); a > 0.1 {
			t.Errorf("CountAll on kind %d: %v allocs per call", kind, a)
		}
	}
}

// FuzzProbeCount holds Count and CountAll to the per-id Contains oracle
// on fuzzer-chosen id sets, encodings and capacities.
func FuzzProbeCount(f *testing.F) {
	f.Add(uint32(1000), []byte{1, 2, 3, 200, 17}, []byte{2, 3, 4}, []byte{0, 9}, uint8(0x1b), false)
	f.Add(uint32(3*ctrBits+5), []byte{255, 0, 255, 1, 7, 7, 7}, []byte{128, 64, 32, 16}, []byte{1}, uint8(0xe4), true)
	f.Add(uint32(ctrBits), []byte{}, []byte{5}, []byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, n uint32, pb, tb, ub []byte, kinds uint8, dense bool) {
		size := int(n % (4 * ctrBits))
		// Each byte is a gap: small gaps give runs and dense chunks,
		// large ones scatter the ids across containers.
		build := func(b []byte, stride int) *Set {
			var s *Set
			withMode(!dense, func() { s = New(size) })
			id := 0
			for _, g := range b {
				id += 1 + int(g)*stride
				if id >= size {
					break
				}
				s.Add(id)
			}
			return s
		}
		p, s, u := build(pb, 1+size/4096), build(tb, 1), build(ub, 1+size/1024)
		forceKind(p, ctrKinds[kinds&3])
		forceKind(s, ctrKinds[kinds>>2&3])
		forceKind(u, ctrKinds[kinds>>4&3])
		checkProbe(t, "fuzz", p, s, u)
	})
}

// benchBitmap keeps the "build" benchmark's bitmap on the heap, as in
// NewProbe.
var benchBitmap []uint64

// BenchmarkCountInArray times countIn against one array container with
// and without the Probe list's bitmap, over list lengths around
// probeBitmapMin and array lengths from equal to 8× the list (past 8×
// both gallop). "build" is the per-list cost NewProbe pays for the
// bitmap, once per query. Run with
//
//	go test -run '^$' -bench CountInArray -benchmem ./internal/bitset
func BenchmarkCountInArray(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sortedIDs := func(n int) []uint16 {
		ids := FromIDs(ctrBits, rng.Perm(ctrBits)[:n]...).IDs()
		out := make([]uint16, n)
		for i, v := range ids {
			out[i] = uint16(v)
		}
		return out
	}
	for _, n := range []int{16, 64, 256, 1024} {
		ids := sortedIDs(n)
		bm := make([]uint64, ctrWords)
		for _, v := range ids {
			bm[v>>6] |= 1 << (v & 63)
		}
		b.Run(fmt.Sprintf("ids=%d/build", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := make([]uint64, ctrWords)
				for _, v := range ids {
					m[v>>6] |= 1 << (v & 63)
				}
				benchBitmap = m
			}
		})
		for _, ratio := range []int{1, 8} {
			a := sortedIDs(min(ratio*n, arrayMaxCard))
			c := &container{kind: arrayCtr, card: int32(len(a)), a: a}
			for _, kernel := range []struct {
				name string
				bm   []uint64
			}{{"merge", nil}, {"bitmap", bm}} {
				b.Run(fmt.Sprintf("ids=%d/array=%d/%s", n, len(a), kernel.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						countIn(ids, kernel.bm, c)
					}
				})
			}
		}
	}
}
