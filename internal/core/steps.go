package core

import (
	"fmt"
	"time"

	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/radix"
	"metaprep/internal/unionfind"
)

// steps.go implements the in-memory middle of the pipeline: the tuple
// exchange (§3.3), the two-stage local sort (§3.4) and the concurrent
// union–find over sorted runs (§3.5).

// exchange runs the custom all-to-all of §3.3: P stages of point-to-point
// messages, stage i pairing rank→rank+i. Each received region lands at its
// precomputed offset in kmerIn; counts are validated against the index's
// prediction.
func (st *taskState) exchange(s int, gl genLayout, rl recvLayout) error {
	t0 := time.Now()
	var mismatch error
	st.t.AllToAll(tagTuples+s,
		func(dst int) (any, int) {
			cnt := gl.dstCnt[dst]
			return st.out.msgFor(gl.dstOff[dst], cnt), int(cnt) * st.out.bytesPerTuple()
		},
		func(src int, payload any) {
			var got uint64
			if st.spill != nil {
				// Out-of-core path: land the message in the run builders
				// instead of a partition-sized kmerIn.
				got = st.spill.receive(payload.(tupleMsg))
			} else {
				got = st.in.receive(rl.srcOff[src], payload.(tupleMsg))
			}
			if st.exchTupleCounters != nil {
				// Per-rank-pair volume: the Fig. 8 communication
				// imbalance quantity, keyed on the receiving task. The
				// counters were preformatted in newTaskState, keeping
				// fmt.Sprintf out of the receive path.
				st.exchTupleCounters[src].Add(got)
			}
			if got != rl.srcCnt[src] && mismatch == nil {
				mismatch = fmt.Errorf("core: task %d received %d tuples from %d, index predicts %d",
					st.rank, got, src, rl.srcCnt[src])
			}
		},
	)
	// Messages are zero-copy views into this task's kmerOut; the barrier
	// guarantees every peer has copied its message out before LocalSort
	// reuses the buffer. (A real MPI transfer copies on the wire; this is
	// the in-process equivalent of waiting on the sends.)
	st.t.Barrier()
	d := time.Since(t0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", t0, d)
	return mismatch
}

// localSort runs §3.4 on the received tuples in two phases. Scatter: the
// kmerIn regions move their tuples straight into cell order in kmerOut,
// each (region, cell) pair writing through its own precomputed cursor.
// Finish: T threads sort contiguous blocks of about total/T tuples' worth
// of cells, each cell in cache, with kmerIn as the fallback radix scratch.
// It returns the T+1 kmerOut offsets of those blocks, which are also
// LocalCC's thread partitions: a cell boundary never splits a run of equal
// keys. Counts that do not describe the received tuples end in a
// *StaleIndexError, never in a mis-sorted buffer.
func (st *taskState) localSort(s int, sl sortLayout) ([]uint64, error) {
	T := st.p.cfg.Threads
	in, out := st.in, st.out
	nr, nc := len(sl.regionOff), sl.ncells
	t0 := time.Now()
	if nc > 0 {
		stale := make([]bool, nr)
		workers := min(T, nr)
		par.Run(workers, func(w int) {
			cells := make([]radix.Cell, nc)
			rlo, rhi := par.Block(nr, workers, w)
			for r := rlo; r < rhi; r++ {
				sl.cells(r, cells)
				a, b := sl.regionOff[r], sl.regionOff[r]+sl.regionCnt[r]
				var ok bool
				if in.wide() {
					ok = radix.ScatterBins128(out.hi, out.lo, out.val, in.hi[a:b], in.lo[a:b], in.val[a:b],
						sl.cellShift, sl.cellLo, cells)
				} else {
					ok = radix.ScatterBins64(out.lo, out.val, in.lo[a:b], in.val[a:b],
						sl.cellShift, sl.cellLo, cells)
				}
				if !ok {
					stale[r] = true
					return
				}
			}
		})
		for r, bad := range stale {
			if bad {
				return nil, &StaleIndexError{Rank: st.rank, Pass: s, Region: r}
			}
		}
	}
	t1 := time.Now()
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "sort-scatter", t0, t1.Sub(t0), nil)
	blocks := make([]int, T+1) // first cell of each thread's block
	blocks[T] = nc
	for w := 1; w < T; w++ {
		blocks[w] = sl.firstCellAt(sl.total * uint64(w) / uint64(T))
	}
	par.Run(T, func(w int) {
		var bs radix.BinSorter
		for c := blocks[w]; c < blocks[w+1]; c++ {
			a, b := sl.cellStart(c), sl.cellStart(c+1)
			if b-a < 2 {
				continue
			}
			g := sl.cellLo + uint64(c)
			minHi, minLo, maxHi, maxLo := keyBounds(g, g+1, sl.cellShift)
			if in.wide() {
				bs.Sort128(out.hi[a:b], out.lo[a:b], out.val[a:b], in.hi[a:b], in.lo[a:b], in.val[a:b],
					minHi, minLo, maxHi, maxLo)
			} else {
				bs.Sort64(out.lo[a:b], out.val[a:b], in.lo[a:b], in.val[a:b], minLo, maxLo)
			}
		}
	})
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "sort-finish", t1, time.Since(t1), nil)
	parts := make([]uint64, T+1)
	for w, c := range blocks {
		parts[w] = sl.cellStart(c)
	}
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	return parts, nil
}

// StaleIndexError reports LocalSort tuples that disagree with the per-bin
// counts the index predicts: a tuple outside the task's bins, or a (region,
// cell) pair that received more or fewer tuples than planned. The input
// changed since the index was built.
type StaleIndexError struct {
	Rank, Pass, Region int
}

func (e *StaleIndexError) Error() string {
	return fmt.Sprintf("core: task %d pass %d: LocalSort region %d does not match the index's per-bin counts — input changed since IndexCreate?",
		e.Rank, e.Pass, e.Region)
}

// localCC runs §3.5: every thread walks its sorted partition, turns each
// run of an equal k-mer into star edges (first read — every other read) if
// the run's length passes the frequency filter, and feeds them to the
// shared lock-free union–find with Algorithm 1's buffered re-verification.
func (st *taskState) localCC(parts []uint64) {
	T := st.p.cfg.Threads
	filter := st.p.cfg.Filter
	t0 := time.Now()
	edgeCounts := make([]uint64, T)
	retries := make([][]unionfind.Edge, T)
	hists := make([][]uint64, T)
	par.Run(T, func(d int) {
		var retry []unionfind.Edge
		hist := make([]uint64, freqHistSize)
		st.out.forRuns(parts[d], parts[d+1]-parts[d], func(start, end uint64) {
			f := uint32(end - start)
			// The frequency spectrum falls out of the sorted runs for free;
			// it is what a user consults to pick the §4.4 filter bounds.
			if f < freqHistSize {
				hist[f]++
			} else {
				hist[freqHistSize-1]++
			}
			if f < 2 || !filter.Keep(f) {
				return
			}
			v0 := st.out.val[start]
			for i := start + 1; i < end; i++ {
				vi := st.out.val[i]
				edgeCounts[d]++
				if st.dsu.Connect(v0, vi) {
					retry = append(retry, unionfind.Edge{U: v0, V: vi})
				}
			}
		})
		retries[d] = retry
		hists[d] = hist
	})
	st.ccFinish(t0, edgeCounts, retries, hists)
}

// ccFinish is the tail of LocalCC shared by the in-RAM and spill paths:
// fold the per-thread frequency histograms, run Algorithm 1's outer
// re-verification loop over the buffered edges, and charge the step.
func (st *taskState) ccFinish(t0 time.Time, edgeCounts []uint64, retries [][]unionfind.Edge, hists [][]uint64) {
	T := st.p.cfg.Threads
	for _, h := range hists {
		for f, c := range h {
			st.freqHist[f] += c
		}
	}
	// Algorithm 1's outer loop: re-verify buffered edges until none remain.
	iters := 1
	for {
		any := false
		for d := range retries {
			if len(retries[d]) > 0 {
				any = true
			}
		}
		if !any {
			break
		}
		iters++
		par.Run(T, func(d int) {
			buf := retries[d][:0]
			for _, e := range retries[d] {
				if st.dsu.Connect(e.U, e.V) {
					buf = append(buf, e)
				}
			}
			retries[d] = buf
		})
	}
	if iters > st.rep.CCIters {
		st.rep.CCIters = iters
	}
	st.rep.Edges += sum(edgeCounts)
	d := time.Since(t0)
	st.rep.Steps.LocalCC += d
	var args map[string]any
	if st.obs != nil { // avoid the map allocation on the disabled path
		args = map[string]any{"edges": sum(edgeCounts), "iterations": iters}
	}
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "step", "LocalCC", t0, d, args)
	st.obs.Histogram(st.rank, "step/LocalCC").Observe(d)
}

func sum(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}
