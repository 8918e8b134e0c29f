package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"metaprep/internal/durable"
	"metaprep/internal/extsort"
)

// DefaultBlockTuples is the encoded-block granularity for artifacts written
// tuple-at-a-time (set operations, incremental merge tees). The pipeline
// emit path instead inherits the extsort writer's block size so spilled
// runs copy in verbatim.
const DefaultBlockTuples = 4096

// Writer streams an artifact to disk: sections in one pass, TOC at the end,
// then an atomic rename onto the target path. Not safe for concurrent use.
// On any error the Writer is dead; Abort (safe after Finish) removes the
// temp file.
type Writer struct {
	path string
	tmp  string
	f    *os.File
	bw   *bufio.Writer
	off  int64
	err  error

	crc    uint32 // running CRC of the open section
	curID  uint8
	curOff int64
	curFl  uint8
	open   bool
	toc    []tocEntry
	done   bool

	// Tuple-at-a-time k-mer buffering.
	wide        bool
	compress    bool
	blockTuples int
	kLo, kHi    []uint64
	kVal        []uint32
	kTuples     uint64
	scratch     []byte
}

// Create opens a Writer targeting path. The artifact is assembled in a temp
// file beside it and renamed into place by Finish, so a crashed or aborted
// write never leaves a partial artifact at path.
func Create(path string) (*Writer, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("artifact: create %s: %w", path, err)
	}
	w := &Writer{path: path, tmp: f.Name(), f: f, bw: bufio.NewWriterSize(f, 256<<10)}
	w.write(magic[:])
	return w, nil
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(p); err != nil {
		w.err = err
		return
	}
	if w.open {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	}
	w.off += int64(len(p))
}

func (w *Writer) begin(id uint8, flags uint8) {
	w.open = true
	w.curID = id
	w.curOff = w.off
	w.curFl = flags
	w.crc = 0
}

func (w *Writer) end(items uint64) {
	w.toc = append(w.toc, tocEntry{
		id: w.curID, flags: w.curFl, crc: w.crc,
		off: w.curOff, len: w.off - w.curOff, items: items,
	})
	w.open = false
}

// BeginKmers opens the k-mer section. blockTuples bounds tuples per encoded
// block and must match the blocks later copied in via CopyBlocks.
func (w *Writer) BeginKmers(wide, compress bool, blockTuples int) error {
	if w.err != nil {
		return w.err
	}
	if compress && wide {
		w.err = fmt.Errorf("artifact: varint/delta compression supports 64-bit keys only")
		return w.err
	}
	if blockTuples < 1 {
		w.err = fmt.Errorf("artifact: blockTuples %d < 1", blockTuples)
		return w.err
	}
	w.wide, w.compress, w.blockTuples = wide, compress, blockTuples
	var fl uint8
	if wide {
		fl |= 1
	}
	if compress {
		fl |= 2
	}
	w.begin(secKmers, fl)
	return nil
}

// CopyBlocks copies n bytes of already-encoded extsort blocks (holding
// tuples sorted tuples, encoded with the Begin parameters) into the k-mer
// section. The pipeline uses this to splice spill-run segments and in-RAM
// run files straight into the artifact without re-encoding.
func (w *Writer) CopyBlocks(r io.Reader, n int64, tuples uint64) error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushKmerBlock(); err != nil {
		return err
	}
	buf := make([]byte, 256<<10)
	for n > 0 {
		m := int64(len(buf))
		if m > n {
			m = n
		}
		k, err := io.ReadFull(r, buf[:m])
		if k > 0 {
			w.write(buf[:k])
		}
		if err != nil {
			w.err = fmt.Errorf("artifact: copy blocks: %w", err)
			return w.err
		}
		n -= int64(k)
	}
	w.kTuples += tuples
	return w.err
}

// Tuple appends one sorted tuple to the k-mer section, buffering into
// blocks of blockTuples. hi is ignored unless the section is wide.
func (w *Writer) Tuple(hi, lo uint64, val uint32) error {
	if w.err != nil {
		return w.err
	}
	w.kLo = append(w.kLo, lo)
	if w.wide {
		w.kHi = append(w.kHi, hi)
	}
	w.kVal = append(w.kVal, val)
	w.kTuples++
	if len(w.kLo) >= w.blockTuples {
		return w.flushKmerBlock()
	}
	return nil
}

func (w *Writer) flushKmerBlock() error {
	if len(w.kLo) == 0 {
		return w.err
	}
	w.scratch = extsort.AppendBlock(w.scratch[:0], w.kLo, w.kHi, w.kVal, w.compress)
	w.write(w.scratch)
	w.kLo = w.kLo[:0]
	w.kHi = w.kHi[:0]
	w.kVal = w.kVal[:0]
	return w.err
}

// EndKmers closes the k-mer section, flushing any partial block.
func (w *Writer) EndKmers() error {
	if err := w.flushKmerBlock(); err != nil {
		return err
	}
	w.end(w.kTuples)
	return w.err
}

// Labels writes the component label section (one uint32 per read).
func (w *Writer) Labels(labels []uint32) error {
	if w.err != nil {
		return w.err
	}
	w.begin(secLabels, 0)
	buf := make([]byte, 4<<10)
	for off := 0; off < len(labels); {
		n := 0
		for off < len(labels) && n+4 <= len(buf) {
			binary.LittleEndian.PutUint32(buf[n:], labels[off])
			n += 4
			off++
		}
		w.write(buf[:n])
	}
	w.end(uint64(len(labels)))
	return w.err
}

// Hist writes the k-mer frequency histogram section.
func (w *Writer) Hist(hist []uint64) error {
	if w.err != nil {
		return w.err
	}
	w.begin(secHist, 0)
	buf := make([]byte, 8*len(hist))
	for i, v := range hist {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	w.write(buf)
	w.end(uint64(len(hist)))
	return w.err
}

// Tuples returns the number of tuples written to the k-mer section so far.
func (w *Writer) Tuples() uint64 { return w.kTuples }

// BytesWritten returns the bytes emitted so far (final size after Finish).
func (w *Writer) BytesWritten() int64 { return w.off }

// Finish writes the meta section and trailer, syncs, and renames the temp
// file onto the target path. meta's encoding fields (Wide, Compress,
// BlockTuples, Tuples) are overwritten from what was actually written.
func (w *Writer) Finish(meta Meta) error {
	if w.err != nil {
		return w.err
	}
	meta.Wide, meta.Compress = w.wide, w.compress
	meta.BlockTuples = w.blockTuples
	meta.Tuples = w.kTuples
	mj, err := json.Marshal(meta)
	if err != nil {
		w.err = err
		return err
	}
	w.begin(secMeta, 0)
	w.write(mj)
	w.end(0)

	toc := make([]byte, len(w.toc)*tocEntryLen)
	for i, e := range w.toc {
		e.encode(toc[i*tocEntryLen:])
	}
	w.write(toc)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(toc)))
	binary.LittleEndian.PutUint32(tr[4:], crc32.ChecksumIEEE(toc))
	copy(tr[8:], tailMagic[:])
	w.write(tr[:])

	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(w.tmp)
		return w.err
	}
	if err := durable.Commit(w.tmp, w.path); err != nil {
		w.err = err
		return err
	}
	w.done = true
	return nil
}

// Abort discards the temp file. Safe to defer alongside Finish: it is a
// no-op once Finish has succeeded.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.f.Close()
	os.Remove(w.tmp)
}
