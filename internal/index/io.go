package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"metaprep/internal/durable"
)

// io.go serializes the index tables to disk. The paper writes merHist and
// FASTQPart "to disk in binary format" so a dataset's index can be reused
// across runs and machines; this format does the same: a magic header,
// fixed-width little-endian fields, and raw histogram arrays.

// fileMagic identifies a serialized Index; the trailing digit is the format
// version. Version 2 added the per-chunk flags word (bit 0: Canonical).
const fileMagic = "MPREPIX2"

// Write serializes the index to w.
func (idx *Index) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); bw.Write(b[:]) }
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); bw.Write(b[:]) }

	paired := uint64(0)
	if idx.Opts.Paired {
		paired = 1
	}
	if idx.Opts.MatePairs {
		paired = 2
	}
	writeU64(uint64(idx.Opts.K))
	writeU64(uint64(idx.Opts.M))
	writeU64(uint64(idx.Opts.ChunkSize))
	writeU64(paired)
	writeU64(uint64(len(idx.Files)))
	for _, f := range idx.Files {
		writeU64(uint64(len(f)))
		bw.WriteString(f)
	}
	writeU64(uint64(idx.Reads))
	writeU64(uint64(idx.Records))
	writeU64(uint64(idx.TotalBases))
	writeU64(idx.TotalKmers)
	for _, v := range idx.MerHist {
		writeU64(v)
	}
	writeU64(uint64(len(idx.Chunks)))
	for ci := range idx.Chunks {
		c := &idx.Chunks[ci]
		writeU32(uint32(c.File))
		writeU64(uint64(c.Offset))
		writeU64(uint64(c.Size))
		writeU32(c.FirstRead)
		writeU32(uint32(c.Records))
		var flags uint32
		if c.Canonical {
			flags |= 1
		}
		writeU32(flags)
		for _, v := range c.Hist {
			writeU32(v)
		}
	}
	return bw.Flush()
}

// ReadFrom deserializes an index written by Write.
func ReadFrom(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("index: bad magic %q (not an index file or wrong version)", magic)
	}
	le := binary.LittleEndian
	var rerr error
	readU64 := func() uint64 {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil && rerr == nil {
			rerr = err
		}
		return le.Uint64(b[:])
	}
	readU32 := func() uint32 {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil && rerr == nil {
			rerr = err
		}
		return le.Uint32(b[:])
	}

	idx := &Index{}
	idx.Opts.K = int(readU64())
	idx.Opts.M = int(readU64())
	idx.Opts.ChunkSize = int64(readU64())
	pairMode := readU64()
	idx.Opts.Paired = pairMode == 1
	idx.Opts.MatePairs = pairMode == 2
	if rerr != nil {
		return nil, fmt.Errorf("index: truncated header: %w", rerr)
	}
	if err := idx.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("index: corrupt header: %w", err)
	}
	nf := readU64()
	if nf > 1<<20 {
		return nil, fmt.Errorf("index: implausible file count %d", nf)
	}
	for i := uint64(0); i < nf; i++ {
		n := readU64()
		if n > 1<<16 || rerr != nil {
			return nil, fmt.Errorf("index: corrupt file table")
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("index: truncated file table: %w", err)
		}
		idx.Files = append(idx.Files, string(buf))
	}
	idx.Reads = uint32(readU64())
	idx.Records = int64(readU64())
	idx.TotalBases = int64(readU64())
	idx.TotalKmers = readU64()
	bins := idx.Opts.Bins()
	idx.MerHist = make([]uint64, bins)
	for b := range idx.MerHist {
		idx.MerHist[b] = readU64()
	}
	nc := readU64()
	if rerr != nil {
		return nil, fmt.Errorf("index: truncated tables: %w", rerr)
	}
	if nc > 1<<28 {
		return nil, fmt.Errorf("index: implausible chunk count %d", nc)
	}
	idx.Chunks = make([]Chunk, nc)
	for ci := range idx.Chunks {
		c := &idx.Chunks[ci]
		c.File = int32(readU32())
		c.Offset = int64(readU64())
		c.Size = int64(readU64())
		c.FirstRead = readU32()
		c.Records = int32(readU32())
		c.Canonical = readU32()&1 != 0
		c.Hist = make([]uint32, bins)
		for b := range c.Hist {
			c.Hist[b] = readU32()
		}
		if rerr != nil {
			return nil, fmt.Errorf("index: truncated chunk table: %w", rerr)
		}
	}
	return idx, nil
}

// Save writes the index to path atomically and durably (via a committed
// temp file).
func (idx *Index) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := idx.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return durable.Commit(tmp, path)
}

// Load reads an index from path.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
