package lookup

import (
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprep/internal/artifact"
)

// TestSwapTorture hammers the Swapper with queries in flight while the
// served lookup is swapped many times (run under -race in CI): zero failed
// acquires, zero torn reads (every answer matches exactly one generation's
// label scheme), every retired epoch's mapping released once its readers
// drain, and no goroutine leaks.
func TestSwapTorture(t *testing.T) {
	dir := t.TempDir()
	const nkeys = 800

	// Two artifacts over the same key set whose labels differ by a fixed
	// offset — a torn or stale-after-close read would surface as a label
	// in neither scheme.
	const genOffset = 100000
	refA := writeTestArtifact(t, filepath.Join(dir, "a.mpa"), nkeys, false, 0, 99)
	refB := writeTestArtifact(t, filepath.Join(dir, "b.mpa"), nkeys, false, genOffset, 99)
	for i := range refA {
		if refA[i].lo != refB[i].lo || refA[i].label+genOffset != refB[i].label {
			t.Fatal("test artifacts do not line up")
		}
	}
	build := func(which string) string {
		ar, err := artifact.Open(filepath.Join(dir, which+".mpa"))
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		p := filepath.Join(dir, which+".mplk")
		if _, err := Build(ar, p, BuildOptions{Shards: 4}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pathA, pathB := build("a"), build("b")

	goroutinesBefore := runtime.NumGoroutine()

	sw := NewSwapper()
	first, err := Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	sw.Swap(first)

	const readers = 8
	const swaps = 200
	var (
		stop    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	old := make([]*Lookup, 0, swaps+1)
	old = append(old, first)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for !stop.Load() {
				ep, ok := sw.Acquire()
				if !ok {
					t.Error("Acquire failed while serving")
					return
				}
				lk := ep.Lookup()
				if lk.Closed() {
					t.Error("acquired a closed lookup")
					ep.Release()
					return
				}
				e := refA[i%nkeys]
				lab, cnt, found := lk.Get(e.hi, e.lo)
				if !found || cnt != e.count || (lab != e.label && lab != e.label+genOffset) {
					t.Errorf("torn read: key %d → (%d,%d,%v)", i%nkeys, lab, cnt, found)
					ep.Release()
					return
				}
				ep.Release()
				queries.Add(1)
				i++
			}
		}(r)
	}

	for s := 0; s < swaps; s++ {
		p := pathA
		if s%2 == 0 {
			p = pathB
		}
		lk, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, lk)
		sw.Swap(lk)
		if s%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	// Let readers overlap the final generation for a moment, then stop.
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	sw.Stop()

	if q := queries.Load(); q == 0 {
		t.Fatal("no queries completed during the torture")
	}
	// Every epoch, including the last (released by Stop), must be closed
	// once its readers drained.
	for i, lk := range old {
		if !lk.Closed() {
			t.Fatalf("epoch %d not closed after drain", i)
		}
	}
	if _, ok := sw.Acquire(); ok {
		t.Fatal("Acquire succeeded after Stop")
	}

	// Goroutine-leak check: readers are joined and the Swapper owns no
	// goroutines, so the count must come back to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

// TestSwapUnderBatcher swaps while batch queries run, ensuring the epoch
// pin covers a whole batch.
func TestSwapUnderBatcher(t *testing.T) {
	dir := t.TempDir()
	l, ref := buildTestLookup(t, dir, 1000, false, 4)
	sw := NewSwapper()
	sw.Swap(l)
	b := NewBatcher(4)
	defer b.Close()
	defer sw.Stop()

	lo := make([]uint64, 256)
	want := make([]Result, 256)
	for i := range lo {
		e := ref[i*3%len(ref)]
		lo[i] = e.lo
		want[i] = Result{Label: e.label, Count: e.count, Found: true}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]Result, len(lo))
		for !stop.Load() {
			ep, ok := sw.Acquire()
			if !ok {
				t.Error("acquire failed")
				return
			}
			b.Run(ep.Lookup(), nil, lo, out)
			ep.Release()
			for i := range out {
				if out[i] != want[i] {
					t.Errorf("batch result %d = %+v, want %+v", i, out[i], want[i])
					return
				}
			}
		}
	}()
	for s := 0; s < 50; s++ {
		nl, err := Open(filepath.Join(dir, "a.mplk"))
		if err != nil {
			t.Fatal(err)
		}
		sw.Swap(nl)
	}
	stop.Store(true)
	wg.Wait()
}
