package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaprep/internal/index"
)

// multiCellDataset is large enough that LocalSort cuts every task's bin
// range into several cells, so the scatter's per-(region, cell) cursors,
// the cell boundaries and the thread split all carry weight.
func multiCellDataset(t *testing.T, k int) *testData {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(40 + k)))
	return overlappingDataset(t, rng, index.Options{K: k, M: 5, ChunkSize: 20000}, 6, 3000, 1200, 80)
}

func TestLocalSortMultiCellParity(t *testing.T) {
	for _, k := range []int{21, 35} {
		td := multiCellDataset(t, k)
		want := naiveLabels(td, k, false, Filter{})
		ref, err := Run(Default(td.idx))
		if err != nil {
			t.Fatal(err)
		}
		assertSameLabels(t, want, ref.Labels)
		pl, err := newPlan(Default(td.idx))
		if err != nil {
			t.Fatal(err)
		}
		if sl := pl.sortLayout(0, 0, pl.recvLayout(0, 0)); sl.ncells < 4 {
			t.Fatalf("k=%d: %d cells for %d tuples; the dataset no longer exercises multi-cell sorts",
				k, sl.ncells, sl.total)
		}
		for _, tc := range []struct{ P, T, S int }{{2, 1, 1}, {2, 3, 1}, {3, 2, 2}, {1, 4, 3}} {
			for _, dyn := range []bool{false, true} {
				for _, pf := range []bool{false, true} {
					if dyn && pf {
						continue // Validate rejects the pair
					}
					name := fmt.Sprintf("k=%d/P=%d/T=%d/S=%d/dynamic=%v/prefilter=%v", k, tc.P, tc.T, tc.S, dyn, pf)
					cfg := Default(td.idx)
					cfg.Tasks, cfg.Threads, cfg.Passes = tc.P, tc.T, tc.S
					cfg.DynamicOffsets = dyn
					if pf {
						cfg.Prefilter = Prefilter{BitsPerKmer: 8}
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// Labels are the pipeline's byte-level contract: equal
					// across P/T/S and every knob, not just up to renaming.
					if !slices.Equal(res.Labels, ref.Labels) {
						t.Fatalf("%s: labels differ from the P=1 T=1 S=1 run", name)
					}
				}
			}
		}
	}
}

func TestLocalSortStaleIndexFails(t *testing.T) {
	for _, k := range []int{21, 35} {
		td := multiCellDataset(t, k)
		pl, err := newPlan(Default(td.idx))
		if err != nil {
			t.Fatal(err)
		}
		sl := pl.sortLayout(0, 0, pl.recvLayout(0, 0))
		// Move one tuple's worth of count between two bins of the first
		// chunk that lie in different cells. Every per-thread and per-task
		// total the earlier steps check stays the same; only LocalSort's
		// per-cell counts are wrong.
		hist := td.idx.Chunks[0].Hist
		from := slices.IndexFunc(hist, func(c uint32) bool { return c > 0 })
		to := len(hist) - 1
		if from < 0 || sl.cellOf(from) == sl.cellOf(to) {
			t.Fatalf("k=%d: no two bins in different cells to corrupt", k)
		}
		hist[from]--
		hist[to]++
		td.idx.MerHist[from]--
		td.idx.MerHist[to]++

		_, err = Run(Default(td.idx))
		var stale *StaleIndexError
		if !errors.As(err, &stale) {
			t.Fatalf("k=%d: Run on a stale index returned %v, want a *StaleIndexError", k, err)
		}
	}
}
