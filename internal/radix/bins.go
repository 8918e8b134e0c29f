package radix

import (
	"cmp"
	"math/bits"
	"slices"
)

// Binned LocalSort kernels. The pipeline knows, before it touches a tuple,
// how many tuples of every source region fall in every m-mer bin: the
// index's per-chunk histograms are exact. ScatterBins64/128 use that to
// move a region's tuples straight into bin order with one stable pass,
// each (region, bin) cell writing through its own cursor. BinSorter then
// finishes each bin while it is hot in cache. Bins of up to
// binInsertionMax tuples get an insertion sort. Larger bins whose keys
// repeat (the common case in metagenomes: every k-mer is seen once per
// covering read) are grouped by key in a small open-addressing table, only
// the distinct keys are sorted, and the tuples are scattered back stably.
// Bins with mostly distinct keys, or too large for the scratch, fall back
// to the range-limited LSD sort.
//
// Pass accounting ("radix/passes_executed" / "radix/passes_skipped"): a
// region scatter counts one executed pass. A grouped bin counts one
// executed pass (its stable scatter back) and skips the rest of the passes
// an LSD sort of the bin's key interval would have run. Insertion-sorted
// bins count nothing; fallback bins count as SortPairs64Range and
// SortPairs128Range do.

// Cell is one (region, bin) cell of a binned scatter: Cur is where the
// region's next tuple of the bin goes, Lim is one past the cell's last
// slot. Keeping both in one struct puts the bound check on the cache line
// the cursor already occupies.
type Cell struct{ Cur, Lim uint64 }

// ScatterBins64 moves keys and vals into dstK and dstV in bin order: key
// i goes to the cursor of cell key>>shift − cellLo, which then advances.
// It is stable. It returns false when a key's cell is outside cells, a
// cell receives more tuples than its slots, or a cell's cursor does not end
// exactly at its limit — the counts did not describe the input. dstK and
// dstV must cover every cell's [Cur, Lim). On false the destination may
// hold a partial scatter, but nothing outside those slots was written.
func ScatterBins64(dstK []uint64, dstV []uint32, keys []uint64, vals []uint32,
	shift uint, cellLo uint64, cells []Cell) bool {
	nc := uint64(len(cells))
	vals = vals[:len(keys)]
	for i, k := range keys {
		c := k>>shift - cellLo
		if c >= nc {
			return false
		}
		e := &cells[c]
		j := e.Cur
		if j >= e.Lim {
			return false
		}
		e.Cur++
		dstK[j] = k
		dstV[j] = vals[i]
	}
	notePasses(1, 0)
	return cellsFull(cells)
}

// ScatterBins128 is ScatterBins64 for 128-bit keys held as hi/lo words;
// the cell of key i is (hi:lo)>>shift − cellLo.
func ScatterBins128(dstH, dstL []uint64, dstV []uint32, hi, lo []uint64, vals []uint32,
	shift uint, cellLo uint64, cells []Cell) bool {
	nc := uint64(len(cells))
	hi, vals = hi[:len(lo)], vals[:len(lo)]
	for i, l := range lo {
		c := Shr128(hi[i], l, shift) - cellLo
		if c >= nc {
			return false
		}
		e := &cells[c]
		j := e.Cur
		if j >= e.Lim {
			return false
		}
		e.Cur++
		dstH[j] = hi[i]
		dstL[j] = l
		dstV[j] = vals[i]
	}
	notePasses(1, 0)
	return cellsFull(cells)
}

func cellsFull(cells []Cell) bool {
	for _, e := range cells {
		if e.Cur != e.Lim {
			return false
		}
	}
	return true
}

// Shr128 returns the low 64 bits of the 128-bit value hi:lo shifted right
// by s (0 ≤ s < 128).
func Shr128(hi, lo uint64, s uint) uint64 {
	switch {
	case s >= 64:
		return hi >> (s - 64)
	case s == 0:
		return lo
	default:
		return lo>>s | hi<<(64-s)
	}
}

// binInsertionMax is the bin size up to which BinSorter uses a stable
// insertion sort: below it, table or radix setup costs more than the
// quadratic moves.
const binInsertionMax = 32

// BinScratchTuples is the largest bin BinSorter groups in its scratch; a
// larger bin goes straight to the LSD fallback. At this size the scratch
// (value copy, per-tuple group IDs, table, distinct keys) stays within a
// typical L2 cache.
const BinScratchTuples = 1 << 15

// BinSorter finishes bins of a binned scatter. It owns the scratch one
// thread reuses across bins, so a LocalSort worker allocates it once; it
// is not safe for concurrent use. The zero value is ready to use.
type BinSorter struct {
	vals  []uint32 // copy of the bin's values
	ids   []uint32 // group (distinct key) of each tuple
	table []uint32 // open addressing: group+1, 0 = empty slot
	dLo   []uint64 // distinct keys in first-seen order
	dHi   []uint64
	count []uint32 // tuples per group, then each group's output offset
	order []uint32 // groups in key order
	// Distinct keys being sorted, for 64- and 128-bit keys.
	sorted    []uint64
	sorted128 []key128
}

// grow sizes the scratch for a bin of n ≤ BinScratchTuples tuples.
func (s *BinSorter) grow(n int) {
	if n <= len(s.vals) {
		return
	}
	// Round up so a run of growing bins reallocates O(log n) times.
	n = min(1<<bits.Len(uint(n-1)), BinScratchTuples)
	s.vals = make([]uint32, n)
	s.ids = make([]uint32, n)
	s.table = make([]uint32, tableSize(n))
	d := n/2 + 1
	s.dLo = make([]uint64, d)
	s.dHi = make([]uint64, d)
	s.count = make([]uint32, d)
	s.order = make([]uint32, d)
	s.sorted = make([]uint64, d)
	s.sorted128 = make([]key128, d)
}

// tableSize is the power-of-two slot count for a bin of n tuples: with at
// most n/2 groups the load factor stays at or below one half.
func tableSize(n int) int { return 1 << bits.Len(uint(n)) }

const (
	hashMul1 = 0x9E3779B97F4A7C15
	hashMul2 = 0xC2B2AE3D27D4EB4F
)

// Sort64 sorts one bin's keys (and vals with them) stably. Every key lies
// in [min, max]; tmpK and tmpV are the fallback's radix scratch and must be
// at least len(keys).
func (s *BinSorter) Sort64(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, min, max uint64) {
	n := len(keys)
	if n <= binInsertionMax {
		insertionPairs64(keys, vals)
		return
	}
	if n <= BinScratchTuples && s.group64(keys) {
		s.scatterBack(keys, nil, vals)
		notePasses(1, SignificantBytes64(min, max)-1)
		return
	}
	SortPairs64Range(keys, vals, tmpK, tmpV, min, max)
}

// Sort128 is Sort64 for 128-bit keys held as hi/lo words, all in the
// interval [minHi:minLo, maxHi:maxLo].
func (s *BinSorter) Sort128(hi, lo []uint64, vals []uint32, tmpHi, tmpLo []uint64, tmpV []uint32,
	minHi, minLo, maxHi, maxLo uint64) {
	n := len(lo)
	if n <= binInsertionMax {
		insertionPairs128(hi, lo, vals)
		return
	}
	if n <= BinScratchTuples && s.group128(hi, lo) {
		s.scatterBack(lo, hi, vals)
		notePasses(1, SignificantBytes128(minHi, minLo, maxHi, maxLo)-1)
		return
	}
	SortPairs128Range(hi, lo, vals, tmpHi, tmpLo, tmpV, minHi, minLo, maxHi, maxLo)
}

// group64 assigns every key its group — the first-seen index of its value
// — and counts the groups. It gives up, reporting false, once the bin
// shows more than n/2 distinct keys, or already more than 3/4 of its first
// n/8 keys are distinct (an all-distinct bin then costs only an eighth of
// a grouping pass before the fallback); keys are never modified.
func (s *BinSorter) group64(keys []uint64) bool {
	n := len(keys)
	s.grow(n)
	size := tableSize(n)
	table := s.table[:size]
	clear(table)
	mask := uint64(size - 1)
	hshift := 64 - uint(bits.Len(uint(size-1)))
	ids, dLo, count := s.ids[:n], s.dLo, s.count
	limit, probe := uint32(n/2), n/8
	var d uint32
	for i, k := range keys {
		if i == probe && d > uint32(probe)*3/4 {
			return false // mostly distinct so far: not worth finishing
		}
		h := k * hashMul1 >> hshift
		for {
			e := table[h]
			if e == 0 {
				if d == limit {
					return false
				}
				dLo[d] = k
				count[d] = 0
				d++
				table[h] = d
				e = d
			} else if dLo[e-1] != k {
				h = (h + 1) & mask
				continue
			}
			ids[i] = e - 1
			count[e-1]++
			break
		}
	}
	// Sort a copy of the distinct keys (slices.Sort on plain integers
	// needs no comparison callback), then find each key's group again in
	// the table.
	sorted := s.sorted[:d]
	copy(sorted, dLo[:d])
	slices.Sort(sorted)
	s.order = s.order[:d]
	for r, k := range sorted {
		h := k * hashMul1 >> hshift
		for dLo[table[h]-1] != k {
			h = (h + 1) & mask
		}
		s.order[r] = table[h] - 1
	}
	return true
}

// group128 is group64 for 128-bit keys.
func (s *BinSorter) group128(hi, lo []uint64) bool {
	n := len(lo)
	s.grow(n)
	size := tableSize(n)
	table := s.table[:size]
	clear(table)
	mask := uint64(size - 1)
	hshift := 64 - uint(bits.Len(uint(size-1)))
	ids, dLo, dHi, count := s.ids[:n], s.dLo, s.dHi, s.count
	hi = hi[:n]
	limit, probe := uint32(n/2), n/8
	var d uint32
	for i, l := range lo {
		if i == probe && d > uint32(probe)*3/4 {
			return false
		}
		u := hi[i]
		h := (l ^ u*hashMul2) * hashMul1 >> hshift
		for {
			e := table[h]
			if e == 0 {
				if d == limit {
					return false
				}
				dLo[d], dHi[d] = l, u
				count[d] = 0
				d++
				table[h] = d
				e = d
			} else if dLo[e-1] != l || dHi[e-1] != u {
				h = (h + 1) & mask
				continue
			}
			ids[i] = e - 1
			count[e-1]++
			break
		}
	}
	sorted := s.sorted128[:d]
	for g := range sorted {
		sorted[g] = key128{dHi[g], dLo[g]}
	}
	slices.SortFunc(sorted, func(a, b key128) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	s.order = s.order[:d]
	for r, k := range sorted {
		h := (k.lo ^ k.hi*hashMul2) * hashMul1 >> hshift
		for dLo[table[h]-1] != k.lo || dHi[table[h]-1] != k.hi {
			h = (h + 1) & mask
		}
		s.order[r] = table[h] - 1
	}
	return true
}

type key128 struct{ hi, lo uint64 }

// scatterBack rewrites a grouped bin in key order: each group's key fills
// its output run, and the values follow in input order within their
// group, which keeps the sort stable. hi is nil for 64-bit keys.
func (s *BinSorter) scatterBack(lo, hi []uint64, vals []uint32) {
	n := len(lo)
	copy(s.vals[:n], vals)
	count := s.count
	var off uint32
	for _, g := range s.order {
		c := count[g]
		count[g] = off
		run := lo[off : off+c]
		for i := range run {
			run[i] = s.dLo[g]
		}
		if hi != nil {
			run = hi[off : off+c]
			for i := range run {
				run[i] = s.dHi[g]
			}
		}
		off += c
	}
	for i, g := range s.ids[:n] {
		j := count[g]
		count[g]++
		vals[j] = s.vals[i]
	}
}

// insertionPairs64 is a stable insertion sort of a short key/value run.
func insertionPairs64(keys []uint64, vals []uint32) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			vals[j+1] = vals[j]
			j--
		}
		keys[j+1] = k
		vals[j+1] = v
	}
}

// insertionPairs128 is insertionPairs64 for 128-bit keys.
func insertionPairs128(hi, lo []uint64, vals []uint32) {
	for i := 1; i < len(lo); i++ {
		h, l, v := hi[i], lo[i], vals[i]
		j := i - 1
		for j >= 0 && (hi[j] > h || hi[j] == h && lo[j] > l) {
			hi[j+1] = hi[j]
			lo[j+1] = lo[j]
			vals[j+1] = vals[j]
			j--
		}
		hi[j+1] = h
		lo[j+1] = l
		vals[j+1] = v
	}
}
