package lookup

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"sync/atomic"
)

// Lookup is an open, memory-mapped lookup file. The fence-pointer index and
// shard table are decoded into RAM at Open; the key blocks stay on the map
// and a Get touches exactly one block's pages. All query methods are safe
// for concurrent use; Close must not race with queries — the Swapper's
// epoch refcount provides that guarantee for the serving path.
type Lookup struct {
	path  string
	data  []byte // whole-file map
	unmap func() error
	meta  Meta
	hist  []uint64

	wide      bool
	blockKeys int
	stride    int
	nblocks   int
	blocksOff int64

	// SoA offsets inside one block.
	hiOff, loOff, labOff, cntOff int

	fenceHi, fenceLo []uint64 // first key per block
	shardStart       []int32  // len shards+1, block index bounds
	shardHi, shardLo []uint64 // first key per shard

	closed atomic.Bool
}

// Open maps a lookup file and verifies its framing and every section CRC
// (CRC32C), including a full pass over the blocks section — a hot swap
// should never install a damaged file. Structural problems return errors
// wrapping ErrBadLookup.
func Open(path string) (*Lookup, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	data, unmap, err := mmapFile(f, size)
	// The map outlives the descriptor on every platform we build for.
	f.Close()
	if err != nil {
		return nil, err
	}
	l := &Lookup{path: path, data: data, unmap: unmap}
	if err := l.load(); err != nil {
		unmap()
		return nil, err
	}
	return l, nil
}

func (l *Lookup) load() error {
	data, path := l.data, l.path
	if int64(len(data)) < headerLen+trailerLen {
		return badf(path, "header", "file too short (%d bytes)", len(data))
	}
	if [headerLen]byte(data[:headerLen]) != magic {
		if string(data[:4]) == string(magic[:4]) {
			return badf(path, "header", "format version %d, want %d", data[4], FormatVersion)
		}
		return badf(path, "header", "bad magic %q", data[:headerLen])
	}
	tr := data[len(data)-trailerLen:]
	if [8]byte(tr[8:]) != tailMagic {
		return badf(path, "trailer", "bad tail magic (truncated file?)")
	}
	tocLen := int64(getU32(tr[0:]))
	tocCRC := getU32(tr[4:])
	tocOff := int64(len(data)) - trailerLen - tocLen
	if tocLen%tocEntryLen != 0 || tocLen > maxTocSections*tocEntryLen || tocOff < headerLen {
		return badf(path, "trailer", "implausible TOC length %d", tocLen)
	}
	toc := data[tocOff : tocOff+tocLen]
	if crc32.Checksum(toc, castagnoli) != tocCRC {
		return badf(path, "trailer", "TOC checksum mismatch")
	}
	secs := make(map[uint8]tocEntry, tocLen/tocEntryLen)
	for i := int64(0); i < tocLen; i += tocEntryLen {
		e := decodeTocEntry(toc[i:])
		if e.off < headerLen || e.len < 0 || e.off+e.len > tocOff {
			return badf(path, sectionName(e.id), "section out of bounds [%d,+%d)", e.off, e.len)
		}
		if _, dup := secs[e.id]; dup {
			return badf(path, sectionName(e.id), "duplicate section")
		}
		secs[e.id] = e
	}
	section := func(id uint8) ([]byte, error) {
		e, ok := secs[id]
		if !ok {
			return nil, badf(path, sectionName(id), "section missing")
		}
		buf := data[e.off : e.off+e.len]
		if crc32.Checksum(buf, castagnoli) != e.crc {
			return nil, badf(path, sectionName(id), "checksum mismatch")
		}
		return buf, nil
	}

	mj, err := section(secMeta)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(mj, &l.meta); err != nil {
		return badf(path, "meta", "bad JSON: %v", err)
	}
	m := l.meta
	blockKeys, stride := geometry(m.Wide)
	if m.BlockKeys != blockKeys {
		return badf(path, "meta", "block_keys %d, want %d", m.BlockKeys, blockKeys)
	}
	if m.Blocks < 0 || m.Shards < 1 {
		return badf(path, "meta", "implausible geometry: %d blocks, %d shards", m.Blocks, m.Shards)
	}
	// Bound the counts by what the file can physically hold before using
	// them in size arithmetic (overflow safety on corrupt metadata).
	if int64(m.Blocks) > int64(len(data))/int64(stride) {
		return badf(path, "meta", "%d blocks exceed file size", m.Blocks)
	}
	if m.Shards > m.Blocks && !(m.Blocks == 0 && m.Shards == 1) {
		return badf(path, "meta", "%d shards for %d blocks", m.Shards, m.Blocks)
	}
	maxKeys := uint64(m.Blocks) * uint64(blockKeys)
	if m.Keys > maxKeys || (m.Blocks > 0 && m.Keys <= maxKeys-uint64(blockKeys)) {
		return badf(path, "meta", "%d keys do not fit %d blocks", m.Keys, m.Blocks)
	}
	l.wide, l.blockKeys, l.stride, l.nblocks = m.Wide, blockKeys, stride, m.Blocks
	if m.Wide {
		l.hiOff, l.loOff = 0, 8*blockKeys
		l.labOff = l.loOff + 8*blockKeys
	} else {
		l.loOff, l.labOff = 0, 8*blockKeys
	}
	l.cntOff = l.labOff + 4*blockKeys

	be, ok := secs[secBlocks]
	if !ok {
		return badf(path, "blocks", "section missing")
	}
	wantFlags := uint8(0)
	if m.Wide {
		wantFlags = 1
	}
	if be.flags != wantFlags {
		return badf(path, "blocks", "section flags %#x disagree with meta %#x", be.flags, wantFlags)
	}
	if be.off%pageSize != 0 {
		return badf(path, "blocks", "section offset %d not page-aligned", be.off)
	}
	if be.len != int64(m.Blocks)*int64(stride) || be.items != m.Keys {
		return badf(path, "blocks", "section length %d/%d items disagree with meta", be.len, be.items)
	}
	if _, err := section(secBlocks); err != nil {
		return err
	}
	l.blocksOff = be.off

	fb, err := section(secFence)
	if err != nil {
		return err
	}
	if len(fb) != 16*m.Blocks {
		return badf(path, "fence", "length %d != 16×%d blocks", len(fb), m.Blocks)
	}
	l.fenceHi = make([]uint64, m.Blocks)
	l.fenceLo = make([]uint64, m.Blocks)
	for i := 0; i < m.Blocks; i++ {
		l.fenceHi[i] = getU64(fb[16*i:])
		l.fenceLo[i] = getU64(fb[16*i+8:])
		if i > 0 && keyLess(l.fenceHi[i], l.fenceLo[i], l.fenceHi[i-1], l.fenceLo[i-1]) {
			return badf(path, "fence", "fence keys not sorted at block %d", i)
		}
	}

	sb, err := section(secShards)
	if err != nil {
		return err
	}
	if len(sb) != 16*m.Shards {
		return badf(path, "shards", "length %d != 16×%d shards", len(sb), m.Shards)
	}
	l.shardStart = make([]int32, m.Shards+1)
	l.shardHi = make([]uint64, m.Shards)
	l.shardLo = make([]uint64, m.Shards)
	next := int64(0)
	for s := 0; s < m.Shards; s++ {
		first := int64(getU32(sb[16*s:]))
		n := int64(getU32(sb[16*s+4:]))
		if first != next || first+n > int64(m.Blocks) {
			return badf(path, "shards", "shard %d range [%d,+%d) not contiguous", s, first, n)
		}
		l.shardStart[s] = int32(first)
		if n > 0 {
			l.shardHi[s] = l.fenceHi[first]
			l.shardLo[s] = l.fenceLo[first]
		}
		next = first + n
	}
	if next != int64(m.Blocks) {
		return badf(path, "shards", "shards cover %d of %d blocks", next, m.Blocks)
	}
	l.shardStart[m.Shards] = int32(m.Blocks)

	hb, err := section(secHist)
	if err != nil {
		return err
	}
	if len(hb)%8 != 0 {
		return badf(path, "hist", "length %d not a multiple of 8", len(hb))
	}
	l.hist = make([]uint64, len(hb)/8)
	for i := range l.hist {
		l.hist[i] = getU64(hb[8*i:])
	}
	return nil
}

// keyLess reports (ahi,alo) < (bhi,blo) in 128-bit numeric order.
func keyLess(ahi, alo, bhi, blo uint64) bool {
	return ahi < bhi || (ahi == bhi && alo < blo)
}

// Meta returns the provenance record parsed by Open.
func (l *Lookup) Meta() Meta { return l.meta }

// Hist returns the k-mer frequency histogram copied from the source
// artifact (bin i counts distinct k-mers of multiplicity i, last bin
// clamped), so a serving process needs only the lookup file.
func (l *Lookup) Hist() []uint64 { return l.hist }

// Path returns the path the lookup was opened from.
func (l *Lookup) Path() string { return l.path }

// Size returns the mapped file size in bytes.
func (l *Lookup) Size() int64 { return int64(len(l.data)) }

// Keys returns the number of distinct k-mers stored.
func (l *Lookup) Keys() uint64 { return l.meta.Keys }

// Blocks returns the block count.
func (l *Lookup) Blocks() int { return l.nblocks }

// Shards returns the shard count.
func (l *Lookup) Shards() int { return len(l.shardStart) - 1 }

// shardOf returns the shard whose key range contains (hi, lo). Keys below
// the first fence map to shard 0, where the block search reports a miss.
func (l *Lookup) shardOf(hi, lo uint64) int {
	i, j := 0, len(l.shardHi)
	for i < j {
		m := int(uint(i+j) >> 1)
		if keyLess(hi, lo, l.shardHi[m], l.shardLo[m]) {
			j = m
		} else {
			i = m + 1
		}
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// Get returns the component label and multiplicity for a canonical k-mer
// key, ok=false if the key is not present. It allocates nothing.
func (l *Lookup) Get(hi, lo uint64) (label, count uint32, ok bool) {
	if !l.wide && hi != 0 {
		return 0, 0, false
	}
	shard := l.shardOf(hi, lo)
	// Last block in the shard whose fence is ≤ key.
	i, j := int(l.shardStart[shard]), int(l.shardStart[shard+1])
	for i < j {
		m := int(uint(i+j) >> 1)
		if keyLess(hi, lo, l.fenceHi[m], l.fenceLo[m]) {
			j = m
		} else {
			i = m + 1
		}
	}
	blk := i - 1
	if blk < int(l.shardStart[shard]) {
		return 0, 0, false
	}
	base := int(l.blocksOff) + blk*l.stride
	data := l.data
	// First slot in the block with key ≥ target. Sentinel padding in the
	// tail block is all-ones, so it never compares below a valid key.
	i, j = 0, l.blockKeys
	if l.wide {
		hiBase, loBase := base+l.hiOff, base+l.loOff
		for i < j {
			m := int(uint(i+j) >> 1)
			sh := getU64(data[hiBase+8*m:])
			sl := getU64(data[loBase+8*m:])
			if keyLess(sh, sl, hi, lo) {
				i = m + 1
			} else {
				j = m
			}
		}
		if i == l.blockKeys ||
			getU64(data[hiBase+8*i:]) != hi || getU64(data[loBase+8*i:]) != lo {
			return 0, 0, false
		}
	} else {
		loBase := base + l.loOff
		for i < j {
			m := int(uint(i+j) >> 1)
			if getU64(data[loBase+8*m:]) < lo {
				i = m + 1
			} else {
				j = m
			}
		}
		if i == l.blockKeys || getU64(data[loBase+8*i:]) != lo {
			return 0, 0, false
		}
	}
	count = getU32(data[base+l.cntOff+4*i:])
	if count == 0 { // sentinel padding
		return 0, 0, false
	}
	return getU32(data[base+l.labOff+4*i:]), count, true
}

// Closed reports whether Close has run — the swap tests use it to verify
// the old epoch's memory is released once the last in-flight query drains.
func (l *Lookup) Closed() bool { return l.closed.Load() }

// Close unmaps the file. Idempotent; must not race with queries (the
// Swapper guarantees this by refcounting epochs).
func (l *Lookup) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	if l.unmap != nil {
		return l.unmap()
	}
	return nil
}
