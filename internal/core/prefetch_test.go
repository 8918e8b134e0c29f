package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"metaprep/internal/index"
)

// runOnce executes the pipeline with the given prefetch depth applied on
// top of cfg and returns the result.
func runOnce(t *testing.T, cfg Config, depth int) *Result {
	t.Helper()
	cfg.PrefetchChunks = depth
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("depth=%d: %v", depth, err)
	}
	return res
}

// runSerial executes the pipeline on the serial chunk-read path: with one
// schedulable CPU and no explicit depth, prefetchDepth is 0 and every chunk
// is read on its enumerating thread. GOMAXPROCS is restored on return (no
// core test runs in parallel, so the global setting is safe to borrow).
func runSerial(t *testing.T, cfg Config) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if d := cfg.prefetchDepth(); d != 0 {
		t.Fatalf("prefetchDepth under GOMAXPROCS(1) = %d, want the serial path", d)
	}
	return runOnce(t, cfg, 0)
}

// assertIdenticalResults requires the bit-identical outputs the prefetch
// ablation promises: same Labels (not merely the same partition), Tuples,
// Edges and KmerFreqHist.
func assertIdenticalResults(t *testing.T, want, got *Result, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("%s: Labels differ", what)
	}
	if want.Tuples != got.Tuples || want.Edges != got.Edges {
		t.Fatalf("%s: Tuples/Edges %d/%d, want %d/%d",
			what, got.Tuples, got.Edges, want.Tuples, want.Edges)
	}
	if !reflect.DeepEqual(want.KmerFreqHist, got.KmerFreqHist) {
		t.Fatalf("%s: KmerFreqHist differs", what)
	}
}

// TestPrefetchAblationIdentical runs the pipeline with overlapped chunk I/O
// off (the serial single-CPU path) and on at several depths; every variant must produce
// bit-identical results, since the prefetcher only changes when bytes are
// read, never what is parsed.
func TestPrefetchAblationIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	td := overlappingDataset(t, rng, smallOpts(), 5, 400, 160, 40)

	base := Default(td.idx)
	base.Tasks = 2
	base.Threads = 2
	base.Passes = 2

	want := runSerial(t, base) // serial reads, no overlap
	assertIdenticalResults(t, want, runOnce(t, base, 0), "default depth")
	for _, depth := range []int{1, 2, 3} {
		res := runOnce(t, base, depth)
		assertIdenticalResults(t, want, res, fmt.Sprintf("depth %d", depth))
	}
	assertSameLabels(t, naiveLabels(td, 11, false, Filter{}), want.Labels)
}

// TestPrefetchLargeKAndDynamicOffsets covers the 128-bit k-mer path and the
// dynamic-offset KmerGen variant under prefetch.
func TestPrefetchLargeKAndDynamicOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	opts := index.Options{K: 35, M: 4, ChunkSize: 2000}
	td := overlappingDataset(t, rng, opts, 4, 300, 100, 60)

	base := Default(td.idx)
	base.Tasks = 2
	base.Threads = 2

	want := runSerial(t, base)
	assertIdenticalResults(t, want, runOnce(t, base, 2), "large-K prefetch")

	dyn := base
	dyn.DynamicOffsets = true
	assertIdenticalResults(t, want, runOnce(t, dyn, 2), "dynamic offsets prefetch")
}

// TestPrefetchSingleChunkFiles exercises the serial fallback: with at most
// one chunk per thread there is nothing to overlap.
func TestPrefetchSingleChunkFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := index.Options{K: 11, M: 4, ChunkSize: 1 << 20} // one chunk per file
	td := overlappingDataset(t, rng, opts, 3, 200, 80, 40)

	base := Default(td.idx)
	base.Threads = 2
	want := runSerial(t, base)
	assertIdenticalResults(t, want, runOnce(t, base, 4), "single chunk")
}
