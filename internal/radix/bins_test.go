package radix

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// binnedInput builds keys whose top field (key >> shift) is a bin in
// [binLo, binHi) together with the exact per-bin counts. distinct > 0
// draws the keys from a pool of that many, giving the heavy repeats of
// metagenome k-mers; 0 draws every key afresh.
func binnedInput(rng *rand.Rand, n int, shift uint, binLo, binHi, distinct int) ([]uint64, []uint32, []uint64) {
	low := uint64(1)<<shift - 1
	fresh := func() uint64 {
		return uint64(binLo+rng.Intn(binHi-binLo))<<shift | rng.Uint64()&low
	}
	var pool []uint64
	for range distinct {
		pool = append(pool, fresh())
	}
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	counts := make([]uint64, binHi-binLo)
	for i := range keys {
		if pool != nil {
			keys[i] = pool[rng.Intn(len(pool))]
		} else {
			keys[i] = fresh()
		}
		vals[i] = uint32(i)
		counts[int(keys[i]>>shift)-binLo]++
	}
	return keys, vals, counts
}

// binSort64 is LocalSort over one region: scatter keys into bin order
// from counts, then finish every bin with s. ok is the scatter's verdict.
func binSort64(s *BinSorter, keys []uint64, vals []uint32, shift uint, binLo int, counts []uint64) (
	outK []uint64, outV []uint32, ok bool) {
	cells := make([]Cell, len(counts))
	var off uint64
	for b, c := range counts {
		cells[b] = Cell{Cur: off, Lim: off + c}
		off += c
	}
	n := max(len(keys), int(off))
	outK, outV = make([]uint64, n), make([]uint32, n)
	if !ScatterBins64(outK, outV, keys, vals, shift, uint64(binLo), cells) {
		return nil, nil, false
	}
	tmpK, tmpV := make([]uint64, n), make([]uint32, n)
	off = 0
	for b, c := range counts {
		lo, hi := off, off+c
		min := uint64(binLo+b) << shift
		s.Sort64(outK[lo:hi], outV[lo:hi], tmpK[lo:hi], tmpV[lo:hi], min, min|(uint64(1)<<shift-1))
		off = hi
	}
	return outK, outV, true
}

func TestScatterBins64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s BinSorter
	for _, n := range []int{0, 1, 2, 33, 1000, 20000} {
		for _, tc := range []struct {
			shift        uint
			binLo, binHi int
			distinct     int
		}{
			{38, 0, 7, 0},      // few bins → long runs (LSD fallback)
			{38, 0, 7, 50},     // few bins, heavy repeats (grouping)
			{38, 100, 5000, 0}, // many bins → short runs (insertion)
			{0, 0, 256, 0},     // k == m: the bin is the whole key
			{60, 1, 3, 3},      // maximal shift for 64-bit k-mers
		} {
			keys, vals, counts := binnedInput(rng, n, tc.shift, tc.binLo, tc.binHi, tc.distinct)
			gotK, gotV, ok := binSort64(&s, keys, vals, tc.shift, tc.binLo, counts)
			if !ok {
				t.Fatalf("n=%d shift=%d: scatter rejected consistent counts", n, tc.shift)
			}
			checkSorted64(t, keys, vals, gotK, gotV)
		}
	}
}

func TestScatterBinsStability(t *testing.T) {
	// Equal keys must keep input order through the scatter and the bin
	// finish, so the binned sort is interchangeable with a stable LSD sort.
	keys := []uint64{5<<38 | 1, 1 << 38, 5<<38 | 1, 1 << 38, 5<<38 | 1}
	vals := []uint32{0, 1, 2, 3, 4}
	counts := []uint64{2, 0, 0, 0, 3} // bins 1..5
	var s BinSorter
	gotK, gotV, ok := binSort64(&s, keys, vals, 38, 1, counts)
	if !ok {
		t.Fatal("rejected consistent counts")
	}
	wantK := []uint64{1 << 38, 1 << 38, 5<<38 | 1, 5<<38 | 1, 5<<38 | 1}
	wantV := []uint32{1, 3, 0, 2, 4}
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatalf("got %v/%v want %v/%v", gotK, gotV, wantK, wantV)
	}
}

func TestScatterBinsRejectsBadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys, vals, counts := binnedInput(rng, 500, 38, 0, 16, 0)
	origK := slices.Clone(keys)
	origV := slices.Clone(vals)
	var s BinSorter

	// Wrong total: one cell is never filled.
	bad := slices.Clone(counts)
	bad[0]++
	if _, _, ok := binSort64(&s, keys, vals, 38, 0, bad); ok {
		t.Fatal("accepted counts with wrong sum")
	}
	// Right total, wrong distribution: one cell overflows.
	bad = slices.Clone(counts)
	for i := 0; i+1 < len(bad); i++ {
		if bad[i] > 0 {
			bad[i]--
			bad[i+1]++
			break
		}
	}
	if _, _, ok := binSort64(&s, keys, vals, 38, 0, bad); ok {
		t.Fatal("accepted counts with wrong distribution")
	}
	// Out-of-range bin: pretend the bin space starts one bin later.
	if _, _, ok := binSort64(&s, keys, vals, 38, 1, counts); ok {
		t.Fatal("accepted out-of-range bins")
	}
	// A rejected scatter never modifies its source.
	if !slices.Equal(keys, origK) || !slices.Equal(vals, origV) {
		t.Fatal("rejected call modified its input")
	}
}

func TestScatterBins128(t *testing.T) {
	// 35-mers over m=8: the bin field straddles the word boundary.
	const shift = 2 * (35 - 8)
	rng := rand.New(rand.NewSource(11))
	n := 3000
	hi, lo, vals := make([]uint64, n), make([]uint64, n), make([]uint32, n)
	counts := make([]uint64, 64)
	for i := range lo {
		b := uint64(rng.Intn(len(counts)))
		low := uint64(rng.Intn(40)) * 0x9E3779B97F4A7C15
		hi[i] = b >> (64 - shift)
		lo[i] = b<<shift | low&(1<<shift-1)
		vals[i] = uint32(i)
		counts[b]++
	}
	cells := make([]Cell, len(counts))
	var off uint64
	for b, c := range counts {
		cells[b] = Cell{Cur: off, Lim: off + c}
		off += c
	}
	dH, dL, dV := make([]uint64, n), make([]uint64, n), make([]uint32, n)
	if !ScatterBins128(dH, dL, dV, hi, lo, vals, shift, 0, cells) {
		t.Fatal("scatter rejected consistent counts")
	}
	for i := range dL {
		if b := Shr128(dH[i], dL[i], shift); i > 0 && b < Shr128(dH[i-1], dL[i-1], shift) {
			t.Fatalf("index %d: bin %d after a larger bin", i, b)
		}
	}
	cells[3].Lim++ // stale: one cell promises a tuple that never comes
	if ScatterBins128(dH, dL, dV, hi, lo, vals, shift, 0, cells) {
		t.Fatal("accepted stale counts")
	}
}

type tuple128 struct {
	hi, lo uint64
	v      uint32
}

func cmp128(a, b tuple128) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// checkBinSort runs one bin through BinSorter at both key widths and
// compares each result with slices.SortStableFunc. hi words are drawn from
// the keys so 128-bit bins see ties in hi with distinct lo.
func checkBinSort(t *testing.T, s *BinSorter, keys []uint64) {
	t.Helper()
	n := len(keys)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	// 64-bit.
	want := make([]tuple128, n)
	for i, k := range keys {
		want[i] = tuple128{lo: k, v: vals[i]}
	}
	slices.SortStableFunc(want, cmp128)
	k64, v64 := slices.Clone(keys), slices.Clone(vals)
	s.Sort64(k64, v64, make([]uint64, n), make([]uint32, n), 0, ^uint64(0))
	for i := range want {
		if k64[i] != want[i].lo || v64[i] != want[i].v {
			t.Fatalf("64-bit n=%d index %d: got (%d,%d) want (%d,%d)", n, i, k64[i], v64[i], want[i].lo, want[i].v)
		}
	}
	// 128-bit.
	hi := make([]uint64, n)
	for i, k := range keys {
		hi[i] = k % 3
		want[i] = tuple128{hi: hi[i], lo: k, v: vals[i]}
	}
	slices.SortStableFunc(want, cmp128)
	lo, v128 := slices.Clone(keys), slices.Clone(vals)
	s.Sort128(hi, lo, v128, make([]uint64, n), make([]uint64, n), make([]uint32, n), 0, 0, 2, ^uint64(0))
	for i := range want {
		if hi[i] != want[i].hi || lo[i] != want[i].lo || v128[i] != want[i].v {
			t.Fatalf("128-bit n=%d index %d: got (%d:%d,%d) want (%d:%d,%d)",
				n, i, hi[i], lo[i], v128[i], want[i].hi, want[i].lo, want[i].v)
		}
	}
}

func TestBinSorterParity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s BinSorter // one sorter across all cases: scratch reuse must not leak state
	gen := func(n, distinct int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			if distinct > 0 {
				keys[i] = uint64(rng.Intn(distinct)) << 20
			} else {
				keys[i] = rng.Uint64() >> 2
			}
		}
		return keys
	}
	for _, n := range []int{0, 1, 2, 31, 32, 33, 64, 100, 1000, 5000} {
		checkBinSort(t, &s, gen(n, 1))       // one key
		checkBinSort(t, &s, gen(n, 14))      // HG-like multiplicity
		checkBinSort(t, &s, gen(n, n/2+1))   // around the grouping limit
		checkBinSort(t, &s, gen(n, 0))       // all distinct: LSD fallback
		checkBinSort(t, &s, gen(n, 3*n/4+1)) // gives up mid-bin
	}
	// One giant bin, larger than the scratch: LSD fallback despite repeats.
	checkBinSort(t, &s, gen(BinScratchTuples+100, 14))
	// Back to a small bin after the giant one.
	checkBinSort(t, &s, gen(200, 7))
}

func FuzzBinSorter(f *testing.F) {
	f.Add(uint8(4), []byte("ACGTACGTTTGACCAAGTACGGATCCATGCAGTACGATCAGCATGACGTAGCATCGAC"))
	f.Add(uint8(255), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
	f.Add(uint8(1), make([]byte, 200))
	var s BinSorter
	f.Fuzz(func(t *testing.T, alpha uint8, data []byte) {
		// Each byte is one tuple; alpha folds it onto a small key alphabet
		// (heavy repeats) or leaves it near-distinct.
		keys := make([]uint64, len(data))
		for i, b := range data {
			k := uint64(b)
			if alpha > 0 {
				k %= uint64(alpha)
			}
			keys[i] = k*0x9E3779B97F4A7C15>>3 ^ uint64(i)*uint64(alpha>>7)
		}
		checkBinSort(t, &s, keys)
	})
}

// BenchmarkLocalSort times LocalSort's scatter and bin finish on one
// task-sized region over 8192 m-mer bins (k=27, m=8), against the LSD
// finish every bin used to get. dup has 14 tuples per distinct k-mer, as
// the HG preset does; distinct has no repeats, as a high-diversity
// sample, and exercises the fallback.
func BenchmarkLocalSort(b *testing.B) {
	const (
		n     = 1 << 21
		shift = 2 * (27 - 8)
		bins  = 8192
	)
	for _, tc := range []struct {
		name     string
		distinct int
	}{{"dup", n / 14}, {"distinct", 0}} {
		rng := rand.New(rand.NewSource(13))
		keys, vals, counts := binnedInput(rng, n, shift, 0, bins, tc.distinct)
		for _, finish := range []string{"grouped", "lsd"} {
			b.Run(tc.name+"/"+finish, func(b *testing.B) {
				outK, outV := make([]uint64, n), make([]uint32, n)
				tmpK, tmpV := make([]uint64, n), make([]uint32, n)
				cells := make([]Cell, bins)
				var s BinSorter
				b.SetBytes(n * 12)
				for b.Loop() {
					var off uint64
					for c, cnt := range counts {
						cells[c] = Cell{Cur: off, Lim: off + cnt}
						off += cnt
					}
					ScatterBins64(outK, outV, keys, vals, shift, 0, cells)
					off = 0
					for c, cnt := range counts {
						lo, hi := off, off+cnt
						min := uint64(c) << shift
						max := min | (uint64(1)<<shift - 1)
						if finish == "grouped" {
							s.Sort64(outK[lo:hi], outV[lo:hi], tmpK[lo:hi], tmpV[lo:hi], min, max)
						} else if cnt <= binInsertionMax {
							insertionPairs64(outK[lo:hi], outV[lo:hi])
						} else {
							SortPairs64Range(outK[lo:hi], outV[lo:hi], tmpK[lo:hi], tmpV[lo:hi], min, max)
						}
						off = hi
					}
				}
			})
		}
	}
}
