// Package radix implements the out-of-place LSD radix sorts used by the
// METAPREP LocalSort step (§3.4) and the baseline it is compared against
// (§4.2.2).
//
// The pipeline's tuples are stored structure-of-arrays: a key slice (the
// packed canonical k-mer) and a parallel 32-bit payload slice (the global
// read ID, or the component ID under the multi-pass optimization). The
// paper's choice of 8-bit digits — 8 passes over a 64-bit key rather than 4
// passes of 16 bits — is implemented here exactly, along with the 16-bit
// variant so the locality claim can be re-measured (see the package
// benchmarks).
//
// On top of the fixed-pass sorts, the package provides key-range-aware
// entry points: a canonical k-mer has only 2k significant bits, and a
// LocalSort bin pins the high-order bits besides. SortPairs64Range and
// SortPairs128Range derive the pass count from the [min, max] key interval
// instead of always sweeping all 8 (or 16) bytes.
//
// LocalSort itself runs the binned kernels of bins.go: ScatterBins64 and
// ScatterBins128 move tuples into m-mer bin order in one pass from exact
// per-(region, bin) counts, and BinSorter finishes each bin in cache —
// insertion sort for short bins, grouping of equal keys for bins with
// repeats, and the range-limited LSD sort otherwise.
package radix

import (
	"math/bits"
	"sync/atomic"
)

// Pass accounting. The key-range-aware entry points' whole value
// proposition is the radix passes they avoid; these process-wide tallies
// make that visible ("radix/passes_executed" vs "radix/passes_skipped" in
// the pipeline's counter snapshot). Counting is gated behind an atomic
// flag so the default path pays one relaxed load per sort call and the
// per-pass loops stay untouched: each sort accumulates plain local ints
// and publishes them once on return.
var (
	passStatsOn    atomic.Bool
	passesExecuted atomic.Uint64
	passesSkipped  atomic.Uint64
)

// EnablePassStats turns on process-wide pass counting. Concurrent
// pipelines share the tallies; callers that want per-run numbers should
// not run instrumented sorts concurrently with unrelated ones.
func EnablePassStats() { passStatsOn.Store(true) }

// DisablePassStats turns pass counting off again.
func DisablePassStats() { passStatsOn.Store(false) }

// TakePassStats returns the executed and skipped pass tallies accumulated
// since the last call, resetting them.
func TakePassStats() (executed, skipped uint64) {
	return passesExecuted.Swap(0), passesSkipped.Swap(0)
}

// notePasses publishes one sort call's local pass tallies. "Skipped"
// covers both the passes a range- or bin-aware entry point pruned up
// front and the all-keys-share-this-byte passes the loops detect at run
// time.
func notePasses(executed, skipped int) {
	if !passStatsOn.Load() {
		return
	}
	if executed > 0 {
		passesExecuted.Add(uint64(executed))
	}
	if skipped > 0 {
		passesSkipped.Add(uint64(skipped))
	}
}

// SignificantBytes64 returns the number of low-order 8-bit digits in which
// keys drawn from the contiguous interval [min, max] can differ — the pass
// count an LSD radix sort needs for such keys. Because the interval is
// contiguous, every key in it shares the common high-order bits of min and
// max, so only the bytes below the highest differing bit participate.
func SignificantBytes64(min, max uint64) int {
	return (bits.Len64(min^max) + 7) / 8
}

// SignificantBytes128 is SignificantBytes64 for 128-bit keys held as hi/lo
// word pairs. The result counts 8-bit digits across both words (0..16) and
// is the pass count for SortPairs128.
func SignificantBytes128(minHi, minLo, maxHi, maxLo uint64) int {
	if x := minHi ^ maxHi; x != 0 {
		return (64 + bits.Len64(x) + 7) / 8
	}
	return (bits.Len64(minLo^maxLo) + 7) / 8
}

// Digit16MinLen and Digit16MaxLen bound the element counts for which
// SortPairs64Range picks 16-bit digits over 8-bit ones. Below the window
// the 65 536-entry count array costs more to clear and prefix-scan than
// the halved pass count saves; above it the array's temporal locality
// degrades, which is the paper's §3.4 argument for 8-bit digits (and
// BenchmarkAblationRadixDigits re-measures it per host).
const (
	Digit16MinLen = 1 << 16
	Digit16MaxLen = 1 << 21
)

// SortPairs64Range sorts keys known to lie in the contiguous interval
// [min, max], running only the radix passes that interval leaves
// undetermined and choosing the digit width from the element count: 16-bit
// digits when they at least halve the passes and the input sits in the
// window where the larger count array pays for itself, 8-bit digits
// otherwise. Scratch requirements are those of SortPairs64.
func SortPairs64Range(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, min, max uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	sig := bits.Len64(min ^ max)
	passes8 := (sig + 7) / 8
	passes16 := (sig + 15) / 16
	notePasses(0, 8-passes8) // pruned up front by the key interval
	if 2*passes16 <= passes8 && n >= Digit16MinLen && n <= Digit16MaxLen {
		SortPairs64Digit16(keys, vals, tmpK, tmpV, passes16)
		return
	}
	SortPairs64(keys, vals, tmpK, tmpV, passes8)
}

// SortPairs128Range is SortPairs64Range for 128-bit keys: it derives the
// pass count from the key interval and runs SortPairs128 with it.
func SortPairs128Range(hi, lo []uint64, vals []uint32, tmpHi, tmpLo []uint64, tmpV []uint32,
	minHi, minLo, maxHi, maxLo uint64) {
	passes := SignificantBytes128(minHi, minLo, maxHi, maxLo)
	notePasses(0, 16-passes)
	SortPairs128(hi, lo, vals, tmpHi, tmpLo, tmpV, passes)
}

// SortPairs64 sorts keys (and vals along with it) ascending using a stable
// LSD radix sort with 8-bit digits. tmpK and tmpV are scratch buffers of at
// least len(keys); passes selects how many low-order bytes of the key
// participate (8 covers the full 64-bit key). The sorted data always ends in
// keys/vals.
//
// len(vals), len(tmpK) and len(tmpV) must all be ≥ len(keys).
func SortPairs64(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	srcK, srcV := keys, vals
	dstK, dstV := tmpK[:n], tmpV[:n]
	var count [256]int
	executed, skipped := 0, 0
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range srcK {
			count[k>>shift&0xFF]++
		}
		// Skip passes where all keys share this byte.
		if count[srcK[0]>>shift&0xFF] == n {
			skipped++
			continue
		}
		executed++
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range srcK {
			d := k >> shift & 0xFF
			j := count[d]
			count[d]++
			dstK[j] = k
			dstV[j] = srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	notePasses(executed, skipped)
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// SortPairs64Digit16 is SortPairs64 with 16-bit digits (65 536 buckets,
// half as many passes). The paper reports this is slower than 8-bit digits
// because the larger count array has worse temporal locality; it is kept as
// an ablation target.
func SortPairs64Digit16(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	srcK, srcV := keys, vals
	dstK, dstV := tmpK[:n], tmpV[:n]
	count := make([]int, 1<<16)
	executed, skipped := 0, 0
	for p := 0; p < passes; p++ {
		shift := uint(16 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range srcK {
			count[k>>shift&0xFFFF]++
		}
		if count[srcK[0]>>shift&0xFFFF] == n {
			skipped++
			continue
		}
		executed++
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range srcK {
			d := k >> shift & 0xFFFF
			j := count[d]
			count[d]++
			dstK[j] = k
			dstV[j] = srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	notePasses(executed, skipped)
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// SortPairs128 sorts 128-bit keys held as parallel hi/lo slices (and vals
// along with them) using a stable LSD radix sort with 8-bit digits: up to
// 8 passes over lo then 8 over hi, 16 passes total as in the paper's
// 63-mer configuration (§4.4). passes selects how many low-order bytes of
// the 128-bit key participate (16 covers the full key; a canonical k-mer
// needs only ⌈2k/8⌉, see SignificantBytes128). Scratch slices must be ≥
// len(lo).
func SortPairs128(hi, lo []uint64, vals []uint32, tmpHi, tmpLo []uint64, tmpV []uint32, passes int) {
	n := len(lo)
	if n < 2 || passes <= 0 {
		return
	}
	if passes > 16 {
		passes = 16
	}
	srcH, srcL, srcV := hi, lo, vals
	dstH, dstL, dstV := tmpHi[:n], tmpLo[:n], tmpV[:n]
	var count [256]int
	executed, skipped := 0, 0
	for p := 0; p < passes; p++ {
		shift := uint(8 * (p % 8))
		word := srcL
		if p >= 8 {
			word = srcH
		}
		for i := range count {
			count[i] = 0
		}
		for _, k := range word {
			count[k>>shift&0xFF]++
		}
		if count[word[0]>>shift&0xFF] == n {
			skipped++
			continue
		}
		executed++
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range word {
			d := k >> shift & 0xFF
			j := count[d]
			count[d]++
			dstH[j] = srcH[i]
			dstL[j] = srcL[i]
			dstV[j] = srcV[i]
		}
		srcH, srcL, srcV, dstH, dstL, dstV = dstH, dstL, dstV, srcH, srcL, srcV
	}
	notePasses(executed, skipped)
	if &srcL[0] != &lo[0] {
		copy(hi, srcH)
		copy(lo, srcL)
		copy(vals, srcV)
	}
}

// SortKeys64 sorts keys ascending with the same 8-bit-digit LSD scheme as
// SortPairs64, without a payload. tmp must be ≥ len(keys). The sorted data
// always ends in keys.
func SortKeys64(keys, tmp []uint64, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	src, dst := keys, tmp[:n]
	var count [256]int
	executed, skipped := 0, 0
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range src {
			count[k>>shift&0xFF]++
		}
		if count[src[0]>>shift&0xFF] == n {
			skipped++
			continue
		}
		executed++
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & 0xFF
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	notePasses(executed, skipped)
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
