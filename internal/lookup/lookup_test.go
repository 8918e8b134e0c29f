package lookup

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"metaprep/internal/artifact"
)

// refEntry is the expected answer for one key.
type refEntry struct {
	hi, lo uint64
	label  uint32
	count  uint32
}

// writeTestArtifact synthesizes a partition artifact with nkeys distinct
// sorted keys, 1–3 tuples per key, and a deterministic label per key.
// labelBase offsets every label so two artifacts over the same keys can be
// told apart (the swap torture test relies on this).
func writeTestArtifact(t testing.TB, path string, nkeys int, wide bool, labelBase uint32, seed int64) []refEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 21
	if wide {
		k = 33
	}
	mask := uint64(1)<<(2*21) - 1

	keys := make([]refEntry, 0, nkeys)
	seen := map[[2]uint64]bool{}
	for len(keys) < nkeys {
		var hi, lo uint64
		if wide {
			hi = rng.Uint64() & 3 // small hi so collisions in hi exercise lo compares
			lo = rng.Uint64()
		} else {
			lo = rng.Uint64() & mask
		}
		if seen[[2]uint64{hi, lo}] {
			continue
		}
		seen[[2]uint64{hi, lo}] = true
		keys = append(keys, refEntry{hi: hi, lo: lo})
	}
	sort.Slice(keys, func(i, j int) bool {
		return keyLess(keys[i].hi, keys[i].lo, keys[j].hi, keys[j].lo)
	})

	w, err := artifact.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(wide, false, 512); err != nil {
		t.Fatal(err)
	}
	var labels []uint32
	for i := range keys {
		n := 1 + rng.Intn(3)
		lab := labelBase + uint32(i%17)
		keys[i].label = lab
		keys[i].count = uint32(n)
		for j := 0; j < n; j++ {
			if err := w.Tuple(keys[i].hi, keys[i].lo, uint32(len(labels))); err != nil {
				t.Fatal(err)
			}
			labels = append(labels, lab)
		}
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(labels); err != nil {
		t.Fatal(err)
	}
	hist := make([]uint64, 256)
	for i := range hist {
		hist[i] = uint64(i) * 7
	}
	if err := w.Hist(hist); err != nil {
		t.Fatal(err)
	}
	err = w.Finish(artifact.Meta{
		Kind: artifact.KindPartition, K: k, M: 8,
		Reads: uint32(len(labels)), FilterMin: 1, IndexDigest: "test-digest",
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func buildTestLookup(t testing.TB, dir string, nkeys int, wide bool, shards int) (*Lookup, []refEntry) {
	t.Helper()
	apath := filepath.Join(dir, "a.mpa")
	ref := writeTestArtifact(t, apath, nkeys, wide, 0, 42)
	ar, err := artifact.Open(apath)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	lpath := filepath.Join(dir, "a.mplk")
	st, err := Build(ar, lpath, BuildOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != uint64(nkeys) {
		t.Fatalf("built %d keys, want %d", st.Keys, nkeys)
	}
	bk, _ := geometry(wide)
	wantBlocks := (nkeys + bk - 1) / bk
	if st.Blocks != wantBlocks {
		t.Fatalf("built %d blocks, want %d", st.Blocks, wantBlocks)
	}
	l, err := Open(lpath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, ref
}

func TestBuildAndGet(t *testing.T) {
	for _, wide := range []bool{false, true} {
		name := "narrow"
		if wide {
			name = "wide"
		}
		t.Run(name, func(t *testing.T) {
			const nkeys = 3000
			l, ref := buildTestLookup(t, t.TempDir(), nkeys, wide, 4)
			if l.Shards() != 4 {
				t.Fatalf("shards = %d, want 4", l.Shards())
			}
			if l.Meta().IndexDigest != "test-digest" {
				t.Fatalf("meta digest = %q", l.Meta().IndexDigest)
			}
			if got := l.Hist()[3]; got != 21 {
				t.Fatalf("hist[3] = %d, want 21", got)
			}
			for i, e := range ref {
				lab, cnt, ok := l.Get(e.hi, e.lo)
				if !ok || lab != e.label || cnt != e.count {
					t.Fatalf("key %d: got (%d,%d,%v), want (%d,%d,true)", i, lab, cnt, ok, e.label, e.count)
				}
			}
			// Misses: probe keys adjacent to stored ones.
			misses := 0
			for _, e := range ref {
				if _, _, ok := l.Get(e.hi, e.lo+1); ok {
					continue // neighbor may legitimately exist
				}
				misses++
			}
			if misses == 0 {
				t.Fatal("no misses at all — miss path untested")
			}
			// Extremes.
			if _, _, ok := l.Get(0, 0); ok && ref[0].lo != 0 {
				t.Fatal("key (0,0) found but never stored")
			}
		})
	}
}

func TestBatcherParity(t *testing.T) {
	for _, wide := range []bool{false, true} {
		name := "narrow"
		if wide {
			name = "wide"
		}
		t.Run(name, func(t *testing.T) {
			l, ref := buildTestLookup(t, t.TempDir(), 2000, wide, 8)
			b := NewBatcher(4)
			defer b.Close()
			for _, n := range []int{0, 1, 17, 100, 2000} {
				hi := make([]uint64, n)
				lo := make([]uint64, n)
				out := make([]Result, n)
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < n; i++ {
					e := ref[rng.Intn(len(ref))]
					hi[i], lo[i] = e.hi, e.lo
					if i%5 == 0 {
						lo[i] ^= 0x55 // mix in likely misses
					}
				}
				var hiArg []uint64
				if wide {
					hiArg = hi
				}
				b.Run(l, hiArg, lo, out)
				for i := 0; i < n; i++ {
					var h uint64
					if wide {
						h = hi[i]
					}
					lab, cnt, ok := l.Get(h, lo[i])
					if out[i] != (Result{Label: lab, Count: cnt, Found: ok}) {
						t.Fatalf("n=%d i=%d: batch %+v != direct (%d,%d,%v)", n, i, out[i], lab, cnt, ok)
					}
				}
			}
		})
	}
}

func TestEmptyArtifact(t *testing.T) {
	dir := t.TempDir()
	apath := filepath.Join(dir, "e.mpa")
	w, err := artifact.Create(apath)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, false, 512); err != nil {
		t.Fatal(err)
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(make([]uint64, 256)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(artifact.Meta{Kind: artifact.KindPartition, K: 21, M: 8}); err != nil {
		t.Fatal(err)
	}
	ar, err := artifact.Open(apath)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	lpath := filepath.Join(dir, "e.mplk")
	if _, err := Build(ar, lpath, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(lpath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, ok := l.Get(0, 12345); ok {
		t.Fatal("hit in empty lookup")
	}
}

// TestLookupFormatGolden pins the on-disk format: magic bytes, geometry,
// section ids, and bit-for-bit deterministic output for identical input.
func TestLookupFormatGolden(t *testing.T) {
	if magic != [8]byte{'M', 'P', 'L', 'K', 1, 0, 0, 0} {
		t.Fatalf("magic changed: %v", magic)
	}
	if tailMagic != [8]byte{'M', 'P', 'L', 'K', 'e', 'n', 'd', '1'} {
		t.Fatalf("tail magic changed: %v", tailMagic)
	}
	if FormatVersion != 1 || headerLen != 8 || tocEntryLen != 32 || trailerLen != 16 || pageSize != 4096 {
		t.Fatal("framing constants changed")
	}
	if blockKeys64 != 256 || blockStride64 != 4096 || blockKeys128 != 512 || blockStride128 != 12288 {
		t.Fatal("block geometry changed")
	}
	if secBlocks != 1 || secFence != 2 || secShards != 3 || secHist != 4 || secMeta != 5 {
		t.Fatal("section ids changed")
	}

	dir := t.TempDir()
	apath := filepath.Join(dir, "g.mpa")
	writeTestArtifact(t, apath, 700, false, 0, 7)
	var prev []byte
	for i := 0; i < 2; i++ {
		ar, err := artifact.Open(apath)
		if err != nil {
			t.Fatal(err)
		}
		lpath := filepath.Join(dir, "g.mplk")
		if _, err := Build(ar, lpath, BuildOptions{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		ar.Close()
		raw, err := os.ReadFile(lpath)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && string(prev) != string(raw) {
			t.Fatal("build is not deterministic")
		}
		prev = raw
	}
	// Header and trailer framing.
	if string(prev[:8]) != string(magic[:]) {
		t.Fatalf("header bytes %v", prev[:8])
	}
	if string(prev[len(prev)-8:]) != string(tailMagic[:]) {
		t.Fatalf("trailer bytes %v", prev[len(prev)-8:])
	}
	// 700 keys → 3 blocks of 256; blocks at page 1, 5 sections in the TOC.
	if getU32(prev[len(prev)-16:]) != 5*tocEntryLen {
		t.Fatalf("TOC length %d, want %d", getU32(prev[len(prev)-16:]), 5*tocEntryLen)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := buildTestLookup(t, dir, 600, false, 2)
	l.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "a.mplk"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"magic":     func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"version":   func(b []byte) []byte { b[4] = 99; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"tail":      func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"block":     func(b []byte) []byte { b[pageSize+100] ^= 0xFF; return b },
		"toc":       func(b []byte) []byte { b[len(b)-trailerLen-10] ^= 0xFF; return b },
		"late":      func(b []byte) []byte { b[len(b)-trailerLen-tocEntryLen-40] ^= 0xFF; return b },
	}
	for name, mut := range cases {
		buf := append([]byte(nil), raw...)
		p := filepath.Join(dir, name+".mplk")
		if err := os.WriteFile(p, mut(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		bad, err := Open(p)
		if err == nil {
			bad.Close()
			t.Fatalf("%s: corruption not detected", name)
		}
		if !errors.Is(err, ErrBadLookup) {
			t.Fatalf("%s: error %v does not wrap ErrBadLookup", name, err)
		}
	}
}

// TestGetZeroAlloc and TestBatcherZeroAlloc pin the acceptance criterion:
// the query path performs zero allocations per request after warm-up.
func TestGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	l, ref := buildTestLookup(t, t.TempDir(), 1500, false, 4)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			l.Get(ref[i].hi, ref[i].lo)
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v per run", n)
	}
}

func TestBatcherZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	l, ref := buildTestLookup(t, t.TempDir(), 1500, false, 8)
	b := NewBatcher(4)
	defer b.Close()
	n := 512
	lo := make([]uint64, n)
	out := make([]Result, n)
	for i := 0; i < n; i++ {
		lo[i] = ref[i%len(ref)].lo
	}
	b.Run(l, nil, lo, out) // warm up pools
	if a := testing.AllocsPerRun(50, func() {
		b.Run(l, nil, lo, out)
	}); a != 0 {
		t.Fatalf("Batcher.Run allocates %v per run after warm-up", a)
	}
}

// BenchmarkLookupGet times one probe of a 10⁵-key lookup, cycling through
// a fixed mix of present keys and one-in-ten misses.
func BenchmarkLookupGet(b *testing.B) {
	l, ref := buildTestLookup(b, b.TempDir(), 100_000, false, DefaultShards)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = ref[rng.Intn(len(ref))].lo
		if i%10 == 0 {
			keys[i] ^= 0x55
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		l.Get(0, keys[i&(len(keys)-1)])
		i++
	}
}
