package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/index"
)

// backhalf_test.go covers the pipelined delta tree merge and the zero-copy
// overlapped CC-I/O: labels identical to the merge-free single-task run and
// the naive reference, output files byte-identical to a reader-based oracle,
// the bounded top-component selection, concatFiles error handling, and
// clean mid-output cancellation.

// TestDeltaMergeMatchesDense asserts the pipelined delta merge reaches the
// same global components as a run with no merge at all (P=1) and as the
// naive reference, across task counts (powers of two and not) and multiple
// passes. Labels must be byte-identical to the P=1 run, not merely the same
// partition.
func TestDeltaMergeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	td := overlappingDataset(t, rng, smallOpts(), 4, 300, 220, 35)
	want := naiveLabels(td, smallOpts().K, false, Filter{})
	for _, passes := range []int{1, 2} {
		single := Default(td.idx)
		single.Passes = passes
		ref, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		for _, tasks := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("P%d/S%d", tasks, passes), func(t *testing.T) {
				cfg := single
				cfg.Tasks = tasks
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameLabels(t, want, got.Labels)
				if !slices.Equal(got.Labels, ref.Labels) {
					t.Fatal("labels are not byte-identical to the P=1 run")
				}
				if got.Components != ref.Components || got.LargestRoot != ref.LargestRoot ||
					got.LargestSize != ref.LargestSize {
					t.Fatalf("P=1 %d/%d/%d vs P=%d %d/%d/%d",
						ref.Components, ref.LargestRoot, ref.LargestSize,
						tasks, got.Components, got.LargestRoot, got.LargestSize)
				}
			})
		}
	}
}

// TestDeltaMergeReducesTraffic pins the wire-byte claim: on mostly-singleton
// data the delta schedule's sparse baselines plus change-only rounds must
// ship fewer MergeCC bytes than a dense tree merge, whose P−1 hops carry the
// 4R-byte parent array each.
func TestDeltaMergeReducesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	td := genDataset(t, rng, smallOpts(), 2, 200, 50)
	const tasks = 4
	cfg := Default(td.idx)
	cfg.Tasks = tasks
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, rep := range res.PerTask {
		total += rep.MergeBytes
	}
	// MergeBytes also counts the label broadcast: P−1 tree sends of the
	// 4R-byte label array.
	dense := int64(tasks-1) * 4 * int64(td.idx.Reads)
	deltaBytes := total - dense
	if deltaBytes < 0 || deltaBytes >= dense {
		t.Errorf("delta merge sent %d MergeCC bytes, want within [0, %d) (dense bound)", deltaBytes, dense)
	}
}

// readOutDir returns the contents of every .fastq file in dir keyed by file
// name — the comparison unit for byte-for-byte output parity.
func readOutDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// topComponentsRef is the full-sort reference for topComponents: the roots
// of the n largest components, largest first, ties toward the smaller root.
func topComponentsRef(sizes map[uint32]int, n int) []uint32 {
	type comp struct {
		root uint32
		size int
	}
	all := make([]comp, 0, len(sizes))
	for r, s := range sizes {
		all = append(all, comp{r, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].size != all[j].size {
			return all[i].size > all[j].size
		}
		return all[i].root < all[j].root
	})
	n = max(0, min(n, len(all)))
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = all[i].root
	}
	return roots
}

// readerOutput is the CC-I/O oracle: it re-parses every chunk of the plan's
// per-thread chunk lists through fastq.Reader, re-serializes each record
// through fastq.Writer into its component group, and returns the expected
// output files keyed by name. The groups are the largest component (or the
// SplitComponents largest) plus the remainder, chosen from res.Labels alone.
func readerOutput(t *testing.T, cfg Config, res *Result) map[string][]byte {
	t.Helper()
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := openInputs(pl.idx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	roots := topComponentsRef(res.ComponentSizes(), max(cfg.SplitComponents, 1))
	groupOf := make(map[uint32]int, len(roots))
	for g, r := range roots {
		groupOf[r] = g
	}
	other := len(roots)
	groupName := func(g int) string {
		switch {
		case g == other:
			return "other"
		case cfg.SplitComponents == 0:
			return "lc"
		default:
			return fmt.Sprintf("comp%03d", g)
		}
	}
	out := make(map[string][]byte)
	for rank := 0; rank < cfg.Tasks; rank++ {
		for th := 0; th < cfg.Threads; th++ {
			bufs := make([]bytes.Buffer, other+1)
			writers := make([]*fastq.Writer, other+1)
			for g := range writers {
				writers[g] = fastq.NewWriter(&bufs[g])
			}
			for _, ci := range pl.threadChunks[rank][th] {
				c := &pl.idx.Chunks[ci]
				r := fastq.NewReader(io.NewSectionReader(files[c.File], c.Offset, c.Size))
				for n := int32(0); n < c.Records; n++ {
					rec, err := r.Next()
					if err != nil {
						t.Fatalf("oracle re-read chunk %d: %v", ci, err)
					}
					g, ok := groupOf[res.Labels[pl.idx.ReadIDOf(c, n)]]
					if !ok {
						g = other
					}
					if err := writers[g].Write(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			for g, w := range writers {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s_p%03d_t%03d.fastq", groupName(g), rank, th)] = bufs[g].Bytes()
			}
		}
	}
	return out
}

// assertSameFiles requires got to hold exactly want's files, byte for byte.
func assertSameFiles(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d output files, reference has %d", len(got), len(want))
	}
	for name, wantData := range want {
		gotData, ok := got[name]
		if !ok {
			t.Fatalf("missing output file %s", name)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Fatalf("%s differs from the reader-based oracle (%d vs %d bytes)",
				name, len(gotData), len(wantData))
		}
	}
}

// TestBackHalfOutputParity is the bit-identical output suite: for every
// combination of key width, task count, component splitting and filter mode,
// the back-half (pipelined delta merge + zero-copy overlapped CC-I/O) must
// reach the naive reference's components and write byte-for-byte the files
// the reader-based oracle produces from its labels.
func TestBackHalfOutputParity(t *testing.T) {
	modes := []struct {
		name string
		opts index.Options
	}{
		{"64bit", index.Options{K: 11, M: 4, ChunkSize: 1500}},
		{"128bit", index.Options{K: 45, M: 4, ChunkSize: 1500}},
	}
	filters := []struct {
		name string
		f    Filter
	}{
		{"nofilter", Filter{}},
		{"maxfilter", Filter{Max: 40}},
	}
	for mi, mode := range modes {
		rng := rand.New(rand.NewSource(int64(300 + mi)))
		td := overlappingDataset(t, rng, mode.opts, 4, 260, 160, 60)
		for _, flt := range filters {
			want := naiveLabels(td, mode.opts.K, false, flt.f)
			for _, tasks := range []int{1, 2, 4} {
				for _, split := range []int{0, 3} {
					name := fmt.Sprintf("%s/P%d/split%d/%s", mode.name, tasks, split, flt.name)
					t.Run(name, func(t *testing.T) {
						cfg := Default(td.idx)
						cfg.Tasks = tasks
						cfg.Threads = 2
						cfg.SplitComponents = split
						cfg.Filter = flt.f
						// Force the prefetch goroutines on even on a
						// single-CPU host, so parity covers the overlapped
						// ring path everywhere.
						cfg.PrefetchChunks = 2
						cfg.OutDir = t.TempDir()
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						assertSameLabels(t, want, res.Labels)
						assertSameFiles(t, readerOutput(t, cfg, res), readOutDir(t, cfg.OutDir))
					})
				}
			}
		}
	}
}

// TestZeroCopyReencodesNonCanonicalInput feeds the pipeline CRLF input —
// which NextRaw must flag non-verbatim — and checks the partitioned output
// matches the reader-based oracle byte for byte (both re-encode to
// canonical form, so no carriage return survives).
func TestZeroCopyReencodesNonCanonicalInput(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	genome := make([]byte, 300)
	for j := range genome {
		genome[j] = "ACGT"[rng.Intn(4)]
	}
	path := filepath.Join(dir, "crlf.fastq")
	var buf bytes.Buffer
	for i := 0; i < 120; i++ {
		pos := rng.Intn(len(genome) - 40)
		seq := genome[pos : pos+40]
		fmt.Fprintf(&buf, "@r%d\r\n%s\r\n+\r\n%s\r\n", i, seq, bytes.Repeat([]byte("I"), 40))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default(idx)
	cfg.Tasks = 2
	cfg.OutDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := readOutDir(t, cfg.OutDir)
	assertSameFiles(t, readerOutput(t, cfg, res), got)
	for name, data := range got {
		if bytes.IndexByte(data, '\r') >= 0 {
			t.Fatalf("%s kept a carriage return: CRLF input was not re-encoded", name)
		}
	}
}

// TestTopComponents checks the bounded heap selection against a full-sort
// reference on random size maps with deliberate ties.
func TestTopComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		sizes := make(map[uint32]int)
		c := rng.Intn(40)
		for i := 0; i < c; i++ {
			// Small size range forces ties; sparse roots exercise ordering.
			sizes[uint32(rng.Intn(1000))] = 1 + rng.Intn(6)
		}
		for _, n := range []int{0, 1, 2, 3, 10, len(sizes), len(sizes) + 5} {
			want := topComponentsRef(sizes, n)
			got := topComponents(sizes, n)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: got %d roots, want %d", trial, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d: roots[%d] = %d, want %d (got %v, want %v)",
						trial, n, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

// TestConcatFiles checks content, ordering and error propagation.
func TestConcatFiles(t *testing.T) {
	dir := t.TempDir()
	var srcs []string
	var want bytes.Buffer
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("src%d", i))
		data := bytes.Repeat([]byte{byte('a' + i)}, 1000*(i+1))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want.Write(data)
		srcs = append(srcs, p)
	}
	dst := filepath.Join(dir, "out")
	if err := concatFiles(dst, srcs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("concatenated %d bytes, want %d", len(got), want.Len())
	}

	// A missing source must surface, not produce a silently short output.
	if err := concatFiles(filepath.Join(dir, "out2"),
		append(srcs, filepath.Join(dir, "missing"))); err == nil {
		t.Fatal("concatFiles with a missing source returned nil")
	}
	// An uncreatable destination must surface too.
	if err := concatFiles(filepath.Join(dir, "no", "such", "dir", "out"), srcs); err == nil {
		t.Fatal("concatFiles with an uncreatable destination returned nil")
	}
}

// TestRunContextCancelMidOutput cancels a run with overlapped zero-copy
// output in the middle of CC-I/O and checks the error surfaces, no partial
// result escapes, and no goroutine — output prefetchers included — leaks.
// Under -race this shakes out the shutdown ordering between writeOutput's
// per-thread fetcher close and the pipeline's deferred backstop close.
func TestRunContextCancelMidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 300, 40)

	base := runtime.NumGoroutine()
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.OutDir = t.TempDir()
	// Keep the prefetch goroutines in play on single-CPU hosts too: the
	// whole point here is shaking out their shutdown ordering.
	cfg.PrefetchChunks = 2

	// Poll sites before the output loop, with S=1: KmerGen polls once per
	// chunk plus once per thread (the end-of-list iteration), each rank polls
	// once at the pass boundary and once before writeOutput. The output loop
	// then polls once per chunk again, so landing the flip half the chunks
	// past that prefix places cancellation mid-CC-I/O deterministically.
	chunks := len(td.idx.Chunks)
	limit := chunks + cfg.Tasks*cfg.Threads + 2*cfg.Tasks + chunks/2
	ctx := newChunkCancelCtx(limit)
	res, err := RunContext(ctx, cfg)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after mid-output cancel: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("RunContext returned a result alongside cancellation")
	}
	flipped := ctx.cancelledAt()
	if flipped.IsZero() {
		t.Fatalf("context never flipped: the run finished before %d polls", ctx.limit)
	}
	if lat := returned.Sub(flipped); lat > time.Second {
		t.Fatalf("cancellation latency %v, want <= 1s", lat)
	}
	waitGoroutines(t, base, 2, 5*time.Second)
}
