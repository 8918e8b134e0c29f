package core

import "metaprep/internal/radix"

// tupleBuf is a structure-of-arrays buffer of (k-mer, value) tuples. The
// value is a 32-bit global read ID — or, under the §3.5.1 multi-pass
// optimization, a component ID. In 64-bit mode (k ≤ 31) a tuple is the
// paper's 12 bytes (8-byte key + 4-byte value); in 128-bit mode (k ≤ 63) a
// second key word brings it to the paper's 20 bytes.
type tupleBuf struct {
	lo  []uint64
	hi  []uint64 // nil in 64-bit mode
	val []uint32
}

// newTupleBuf allocates capacity for n tuples.
func newTupleBuf(n uint64, wide bool) *tupleBuf {
	b := &tupleBuf{
		lo:  make([]uint64, n),
		val: make([]uint32, n),
	}
	if wide {
		b.hi = make([]uint64, n)
	}
	return b
}

// wide reports whether the buffer is in 128-bit mode.
func (b *tupleBuf) wide() bool { return b.hi != nil }

// bytesPerTuple returns the wire size of one tuple.
func (b *tupleBuf) bytesPerTuple() int {
	if b.wide() {
		return 20
	}
	return 12
}

// memBytes returns the allocated size of the buffer.
func (b *tupleBuf) memBytes() int64 {
	n := int64(len(b.lo))
	per := int64(12)
	if b.wide() {
		per = 20
	}
	return n * per
}

// set stores a tuple at index i.
func (b *tupleBuf) set(i uint64, hi, lo uint64, val uint32) {
	b.lo[i] = lo
	b.val[i] = val
	if b.hi != nil {
		b.hi[i] = hi
	}
}

// copyRange copies cnt tuples from src[srcOff:] into b[dstOff:]. It is the
// receive side of the tuple exchange: the "transfer" of a message into the
// receiver's kmerIn buffer at its precomputed offset.
func (b *tupleBuf) copyRange(dstOff uint64, src *tupleBuf, srcOff, cnt uint64) {
	copy(b.lo[dstOff:dstOff+cnt], src.lo[srcOff:srcOff+cnt])
	copy(b.val[dstOff:dstOff+cnt], src.val[srcOff:srcOff+cnt])
	if b.hi != nil {
		copy(b.hi[dstOff:dstOff+cnt], src.hi[srcOff:srcOff+cnt])
	}
}

// moveTuple copies tuple src[i] to b[j].
func (b *tupleBuf) moveTuple(j uint64, src *tupleBuf, i uint64) {
	b.lo[j] = src.lo[i]
	b.val[j] = src.val[i]
	if b.hi != nil {
		b.hi[j] = src.hi[i]
	}
}

// keyRange bounds the packed keys of one out-of-core sort run: every
// key's m-mer prefix bin (key >> shift) lies in [binLo, binHi), so the
// bits above the highest bit the range leaves free never need a radix
// pass.
type keyRange struct {
	binLo, binHi int
	// shift is the bit position of the bin field: 2(k-m).
	shift uint
}

// sortRange sorts tuples [off, off+cnt) by key ascending using the serial
// out-of-place radix sort of §3.4, with the corresponding range of scratch
// as the ping-pong buffer. kr bounds the keys in the range, so the sort
// runs only the passes the bin range has not already decided (a canonical
// k-mer has 2k significant bits, and the bin range pins the high-order
// ones).
func (b *tupleBuf) sortRange(off, cnt uint64, kr keyRange, scratch *tupleBuf) {
	if cnt < 2 {
		return
	}
	lo := b.lo[off : off+cnt]
	val := b.val[off : off+cnt]
	sLo := scratch.lo[off : off+cnt]
	sVal := scratch.val[off : off+cnt]
	minHi, minLo, maxHi, maxLo := keyBounds(uint64(kr.binLo), uint64(kr.binHi), kr.shift)
	if b.wide() {
		hi := b.hi[off : off+cnt]
		sHi := scratch.hi[off : off+cnt]
		radix.SortPairs128Range(hi, lo, val, sHi, sLo, sVal, minHi, minLo, maxHi, maxLo)
		return
	}
	radix.SortPairs64Range(lo, val, sLo, sVal, minLo, maxLo)
}

// keyBounds returns the 128-bit interval [minHi:minLo, maxHi:maxLo] of the
// keys whose field key >> shift lies in [lo, hi). For 64-bit keys the
// high words are zero.
func keyBounds(lo, hi uint64, shift uint) (minHi, minLo, maxHi, maxLo uint64) {
	minHi, minLo = shift128(lo, shift)
	maxHi, maxLo = shift128(hi, shift)
	if maxLo == 0 { // 128-bit decrement: max = (hi << shift) - 1
		maxHi--
	}
	maxLo--
	return minHi, minLo, maxHi, maxLo
}

// shift128 computes v << s in 128 bits, returned as (hi, lo).
func shift128(v uint64, s uint) (hi, lo uint64) {
	switch {
	case s >= 64:
		return v << (s - 64), 0
	case s == 0:
		return 0, v
	default:
		return v >> (64 - s), v << s
	}
}

// keyEqual reports whether tuples i and j hold the same k-mer.
func (b *tupleBuf) keyEqual(i, j uint64) bool {
	if b.lo[i] != b.lo[j] {
		return false
	}
	return b.hi == nil || b.hi[i] == b.hi[j]
}

// forRuns calls fn(start, end) for every maximal run [start, end) of equal
// keys within [off, off+cnt). The range must already be sorted.
func (b *tupleBuf) forRuns(off, cnt uint64, fn func(start, end uint64)) {
	end := off + cnt
	for i := off; i < end; {
		j := i + 1
		for j < end && b.keyEqual(i, j) {
			j++
		}
		fn(i, j)
		i = j
	}
}

// tupleMsg is the payload of one all-to-all exchange message: views into
// the sender's kmerOut region bound for one destination.
type tupleMsg struct {
	lo  []uint64
	hi  []uint64
	val []uint32
}

// msgFor builds the message for a region [off, off+cnt) of b.
func (b *tupleBuf) msgFor(off, cnt uint64) tupleMsg {
	m := tupleMsg{
		lo:  b.lo[off : off+cnt],
		val: b.val[off : off+cnt],
	}
	if b.hi != nil {
		m.hi = b.hi[off : off+cnt]
	}
	return m
}

// receive copies a message into b at dstOff and returns the tuple count.
func (b *tupleBuf) receive(dstOff uint64, m tupleMsg) uint64 {
	cnt := uint64(len(m.lo))
	copy(b.lo[dstOff:dstOff+cnt], m.lo)
	copy(b.val[dstOff:dstOff+cnt], m.val)
	if b.hi != nil {
		copy(b.hi[dstOff:dstOff+cnt], m.hi)
	}
	return cnt
}
