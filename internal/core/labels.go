package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"metaprep/internal/durable"
)

// labels.go persists component label arrays so downstream tools can consume
// a partitioning without re-running the pipeline or rewriting FASTQ: the
// file maps every global read ID to its component root.

// labelsMagic identifies a serialized label array; the digit is the format
// version.
const labelsMagic = "MPREPLB1"

// SaveLabels writes a component label array to path atomically.
func SaveLabels(path string, labels []uint32) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	ok := func() error {
		if _, err := bw.WriteString(labelsMagic); err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(labels)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		var b [4]byte
		for _, l := range labels {
			binary.LittleEndian.PutUint32(b[:], l)
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
		return bw.Flush()
	}()
	if ok != nil {
		f.Close()
		os.Remove(tmp)
		return ok
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return durable.Commit(tmp, path)
}

// LoadLabels reads a label array written by SaveLabels.
func LoadLabels(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(labelsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading label magic: %w", err)
	}
	if string(magic) != labelsMagic {
		return nil, fmt.Errorf("core: %s is not a label file", path)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: truncated label header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<34 {
		return nil, fmt.Errorf("core: implausible label count %d", n)
	}
	labels := make([]uint32, n)
	buf := make([]byte, 4)
	for i := range labels {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("core: truncated labels at %d: %w", i, err)
		}
		labels[i] = binary.LittleEndian.Uint32(buf)
	}
	return labels, nil
}
