package lookup

import (
	"bufio"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"metaprep/internal/artifact"
	"metaprep/internal/durable"
)

// DefaultShards is the shard count used when BuildOptions.Shards is unset.
const DefaultShards = 16

// BuildOptions configure the offline builder.
type BuildOptions struct {
	// Shards is the number of contiguous block ranges the key space is cut
	// into (clamped to the block count; DefaultShards when ≤ 0). Queries
	// for different shards never touch the same pages, which is what makes
	// shard-parallel batch execution cache-friendly.
	Shards int
}

// BuildStats summarize a build.
type BuildStats struct {
	Keys   uint64 // distinct k-mers stored
	Blocks int
	Shards int
	Bytes  int64 // final file size
}

// Build converts an open artifact into a lookup file at path in a single
// streaming pass over the sorted tuple section: equal-key runs are collapsed
// on the fly into (key, label, multiplicity) entries and appended to
// fixed-stride blocks, so nothing but the label map (the serving payload
// itself) and one block buffer is ever resident. The file is written to a
// temp name in path's directory and renamed into place on success.
//
// Partition artifacts map each key to the component label of its first read
// and its tuple multiplicity; kmerset artifacts (whose tuple value already
// is the multiplicity) map to label 0.
func Build(ar *artifact.Reader, path string, opts BuildOptions) (BuildStats, error) {
	am := ar.Meta()
	partition := am.Kind == artifact.KindPartition
	var labels []uint32
	if partition {
		var err error
		if labels, err = ar.Labels(); err != nil {
			return BuildStats{}, err
		}
	}
	hist, err := ar.Hist()
	if err != nil {
		return BuildStats{}, err
	}

	blockKeys, stride := geometry(am.Wide)
	f, err := os.CreateTemp(filepath.Dir(path), ".mplk-*")
	if err != nil {
		return BuildStats{}, err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)

	// Header: magic padded to the first page so the blocks section is
	// page-aligned from offset pageSize on.
	var pad [pageSize]byte
	copy(pad[:], magic[:])
	if _, err := w.Write(pad[:]); err != nil {
		return BuildStats{}, err
	}

	// SoA offsets inside one block.
	var hiOff, loOff, labOff, cntOff int
	if am.Wide {
		hiOff, loOff = 0, 8*blockKeys
		labOff = loOff + 8*blockKeys
	} else {
		loOff = 0
		labOff = 8 * blockKeys
	}
	cntOff = labOff + 4*blockKeys

	blk := make([]byte, stride)
	var (
		kib      int // keys in the current block
		keys     uint64
		nblocks  int
		crcBlk   uint32
		fenceBuf []byte
	)
	emit := func(hi, lo uint64, label uint32, count uint64) error {
		if kib == 0 {
			var fe [16]byte
			putU64(fe[0:], hi)
			putU64(fe[8:], lo)
			fenceBuf = append(fenceBuf, fe[:]...)
		}
		if am.Wide {
			putU64(blk[hiOff+8*kib:], hi)
		}
		putU64(blk[loOff+8*kib:], lo)
		putU32(blk[labOff+4*kib:], label)
		if count > math.MaxUint32 {
			count = math.MaxUint32
		}
		putU32(blk[cntOff+4*kib:], uint32(count))
		kib++
		keys++
		if kib == blockKeys {
			crcBlk = crc32.Update(crcBlk, castagnoli, blk)
			if _, err := w.Write(blk); err != nil {
				return err
			}
			nblocks++
			kib = 0
		}
		return nil
	}
	flushPartial := func() error {
		if kib == 0 {
			return nil
		}
		// Pad unused slots with all-ones sentinel keys (sorting after every
		// valid k-mer) and zero counts, which Get treats as misses.
		for i := kib; i < blockKeys; i++ {
			if am.Wide {
				putU64(blk[hiOff+8*i:], ^uint64(0))
			}
			putU64(blk[loOff+8*i:], ^uint64(0))
			putU32(blk[labOff+4*i:], 0)
			putU32(blk[cntOff+4*i:], 0)
		}
		crcBlk = crc32.Update(crcBlk, castagnoli, blk)
		if _, err := w.Write(blk); err != nil {
			return err
		}
		nblocks++
		kib = 0
		return nil
	}

	st, err := ar.Kmers()
	if err != nil {
		return BuildStats{}, err
	}
	var (
		curHi, curLo uint64
		curLabel     uint32
		curCount     uint64
		have         bool
	)
	for {
		hi, lo, val, ok, serr := st.Next()
		if serr != nil {
			st.Close()
			return BuildStats{}, serr
		}
		if !ok {
			break
		}
		if have && hi == curHi && lo == curLo {
			if partition {
				curCount++
			} else {
				curCount += uint64(val)
			}
			continue
		}
		if have {
			if hi < curHi || (hi == curHi && lo < curLo) {
				st.Close()
				return BuildStats{}, badf(ar.Path(), "kmers", "tuple stream is not sorted")
			}
			if err := emit(curHi, curLo, curLabel, curCount); err != nil {
				st.Close()
				return BuildStats{}, err
			}
		}
		curHi, curLo, have = hi, lo, true
		if partition {
			if int(val) >= len(labels) {
				st.Close()
				return BuildStats{}, badf(ar.Path(), "kmers", "read id %d outside label map (%d reads)", val, len(labels))
			}
			curLabel, curCount = labels[val], 1
		} else {
			curLabel, curCount = 0, uint64(val)
		}
	}
	st.Close()
	if have {
		if err := emit(curHi, curLo, curLabel, curCount); err != nil {
			return BuildStats{}, err
		}
	}
	if err := flushPartial(); err != nil {
		return BuildStats{}, err
	}

	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if nblocks > 0 && shards > nblocks {
		shards = nblocks
	}
	if nblocks == 0 {
		shards = 1
	}
	shardBuf := make([]byte, 16*shards)
	q, r := nblocks/shards, nblocks%shards
	first := 0
	for s := 0; s < shards; s++ {
		n := q
		if s < r {
			n++
		}
		sk := uint64(n) * uint64(blockKeys)
		if n > 0 && first+n == nblocks { // last shard owns the partial tail block
			sk = keys - uint64(first)*uint64(blockKeys)
		}
		putU32(shardBuf[16*s:], uint32(first))
		putU32(shardBuf[16*s+4:], uint32(n))
		putU64(shardBuf[16*s+8:], sk)
		first += n
	}

	histBuf := make([]byte, 8*len(hist))
	for i, v := range hist {
		putU64(histBuf[8*i:], v)
	}

	meta := Meta{
		K: am.K, M: am.M, Wide: am.Wide,
		BlockKeys: blockKeys, Keys: keys, Blocks: nblocks, Shards: shards,
		Reads: am.Reads, FilterMin: am.FilterMin, FilterMax: am.FilterMax,
		IndexDigest:  am.IndexDigest,
		Source:       filepath.Base(ar.Path()),
		SourceTuples: am.Tuples,
	}
	metaBuf, err := json.Marshal(meta)
	if err != nil {
		return BuildStats{}, err
	}

	var blkFlags uint8
	if am.Wide {
		blkFlags = 1
	}
	toc := []tocEntry{
		{id: secBlocks, flags: blkFlags, crc: crcBlk, off: pageSize, len: int64(nblocks) * int64(stride), items: keys},
	}
	off := pageSize + int64(nblocks)*int64(stride)
	appendSec := func(id uint8, buf []byte, items uint64) error {
		toc = append(toc, tocEntry{
			id: id, crc: crc32.Checksum(buf, castagnoli),
			off: off, len: int64(len(buf)), items: items,
		})
		off += int64(len(buf))
		_, werr := w.Write(buf)
		return werr
	}
	if err := appendSec(secFence, fenceBuf, uint64(nblocks)); err != nil {
		return BuildStats{}, err
	}
	if err := appendSec(secShards, shardBuf, uint64(shards)); err != nil {
		return BuildStats{}, err
	}
	if err := appendSec(secHist, histBuf, uint64(len(hist))); err != nil {
		return BuildStats{}, err
	}
	if err := appendSec(secMeta, metaBuf, 1); err != nil {
		return BuildStats{}, err
	}

	tocBuf := make([]byte, tocEntryLen*len(toc))
	for i, e := range toc {
		e.encode(tocBuf[tocEntryLen*i:])
	}
	var trailer [trailerLen]byte
	putU32(trailer[0:], uint32(len(tocBuf)))
	putU32(trailer[4:], crc32.Checksum(tocBuf, castagnoli))
	copy(trailer[8:], tailMagic[:])
	if _, err := w.Write(tocBuf); err != nil {
		return BuildStats{}, err
	}
	if _, err := w.Write(trailer[:]); err != nil {
		return BuildStats{}, err
	}
	if err := w.Flush(); err != nil {
		return BuildStats{}, err
	}
	size := off + int64(len(tocBuf)) + trailerLen
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return BuildStats{}, err
	}
	f = nil
	if err := durable.Commit(tmp, path); err != nil {
		return BuildStats{}, err
	}
	return BuildStats{Keys: keys, Blocks: nblocks, Shards: shards, Bytes: size}, nil
}
