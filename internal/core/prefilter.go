package core

import (
	"fmt"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/radix"
	"metaprep/internal/sketch"
)

// prefilter.go implements the opt-in two-pass probabilistic singleton
// prefilter (Config.Prefilter). Pass 1 is an enumeration-only scan of this
// rank's FASTQ chunks — the same overlapped chunk-prefetch path KmerGen
// uses, minus tuple writes — inserting every canonical k-mer into a
// blocked-Bloom repeat ladder (internal/sketch). The ranks then combine
// their ladders exactly (the max-plus convolution over per-bit level
// sequences: Σ_r min(n_r, L) ≥ L ⟺ Σ_r n_r ≥ L) and broadcast the top
// level — the global "seen ≥ MinCount times" bitmap — to every rank.
//
// Pass 2 is the normal pipeline with one change: KmerGen consults the
// bitmap and skips tuple generation for k-mers below the threshold, so
// dropped k-mers never cross the all-to-all, never enter LocalSort, and
// never spill. Because the filter's errors are one-sided (false positives
// keep extra k-mers, never drop repeated ones), MinCount 2 is lossless: a
// dropped k-mer is a true singleton, whose run of length 1 produces no
// edge in the exact pipeline either, so component labels are identical.
//
// The drop rate makes the per-pass tuple counts dynamic, which ripples
// through the offset machinery the static plan otherwise precomputes:
//
//   - KmerGen threads keep their exclusive per-(dst, thread) sub-regions
//     but fill only a prefix of each; the end cursors are recorded in
//     genKept instead of being validated against the index's counts.
//   - The bulk exchange first compacts each destination region in place
//     (a forward copy — writes trail reads) and ships actual counts; the
//     receiver lands regions at their planned offsets and records actual
//     counts in recvGot, erroring only when a region exceeds its exact
//     prediction (the filter can only shrink counts).
//   - The streaming exchange replaces the fill-count chunk tracker (whose
//     "chunk full" condition never fires under filtering) with explicit
//     per-thread chunk publication: each worker publishes its kept ranges
//     at chunk-size boundaries and a last-flagged final per destination,
//     and the sender walks the same P-stage schedule shipping them as
//     they appear, closing each destination with one last-flagged
//     message. The receiver drains each source until that flag.
//   - LocalSort derives its per-(region, cell) counts from a counting scan
//     of the received tuples (sortLayoutFiltered) instead of the index
//     histograms, which describe the unfiltered stream.

// Prefilter message tags, below tagDelta's band (see pipeline.go).
const (
	tagPrefilter      = 3 // sub-range ladder all-to-all (rank r's slice of dst's owned words)
	tagPrefilterBcast = 4 // keep-bitmap broadcast (rank 0 → every rank)
	tagPrefilterKeep  = 5 // merged keep sub-range gather (every rank → rank 0)
)

// buildPrefilter runs pass 1: scan, combine, broadcast. On return st.keep
// holds the global keep bitmap every emit consults. Scan I/O and insert
// time are charged to KmerGen-I/O and KmerGen, the combine to KmerGen-Comm
// — the prefilter's cost is part of the front half it shrinks.
func (st *taskState) buildPrefilter() error {
	cfg := st.p.cfg
	P, T := cfg.Tasks, cfg.Threads
	build0 := time.Now()
	f := sketch.NewRepeatFilter(st.p.idx.TotalKmers, cfg.Prefilter.BitsPerKmer,
		cfg.Prefilter.minCount())

	ioTimes := make([]time.Duration, T)
	scanTimes := make([]time.Duration, T)
	errs := make([]error, T)
	par.Run(T, func(t int) {
		errs[t] = st.prefilterScanThread(t, f, &ioTimes[t], &scanTimes[t])
	})
	for _, err := range errs {
		if err != nil {
			// Peers that scanned clean may already be blocked in the
			// combine's sends and receives; fail the world so they wake
			// before this body returns.
			st.t.Abort()
			return err
		}
	}
	ioDur, scanDur := maxOfDur(ioTimes), maxOfDur(scanTimes)
	st.rep.Steps.KmerGenIO += ioDur
	st.rep.Steps.KmerGen += scanDur
	st.stepSpan("KmerGen-I/O", build0, ioDur)
	st.stepSpan("KmerGen", build0.Add(ioDur), scanDur)
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "prefilter-scan",
		build0, time.Since(build0), nil)

	// Combine by owned sub-range: the ladder's word space [0, nwords) is
	// split into P contiguous ranges, and the all-to-all ships each rank
	// only the slice of every peer's ladder covering the words it owns —
	// L·filterBytes/P per peer instead of the full ladder, so per-rank
	// combine wire volume stays ~filterBytes as P grows rather than the
	// old (P−1)·filterBytes inbound at rank 0. Each owner MergeRanges its
	// slice of all P ladders (bit-identical to a full-ladder fold — the
	// convolution is per-word), then rank 0 gathers the merged keep
	// sub-ranges (filterBytes/L/P each) and broadcasts the assembled
	// bitmap. Zero-copy safety: a rank only mutates words in its own
	// range, while every slice it sent covers other ranks' ranges.
	c0 := time.Now()
	f.Normalize()
	nw := f.NWords()
	cut := func(r int) uint64 { return nw * uint64(r) / uint64(P) }
	myLo, myHi := cut(st.rank), cut(st.rank+1)
	if P > 1 {
		lv := f.Levels()
		st.t.AllToAll(tagPrefilter,
			func(dst int) (any, int) {
				lo, hi := cut(dst), cut(dst+1)
				sub := make([][]uint64, len(lv))
				for i := range lv {
					sub[i] = lv[i][lo:hi]
				}
				return sub, int(hi-lo) * 8 * len(lv)
			},
			func(src int, payload any) {
				if src == st.rank {
					return // stage 0 self-exchange: already our own words
				}
				f.MergeRange(payload.([][]uint64), myLo, myHi)
			},
		)
	}
	keepWords := f.Keep().Words()
	var words []uint64
	if st.rank == 0 {
		for src := 1; src < P; src++ {
			lo, hi := cut(src), cut(src+1)
			copy(keepWords[lo:hi], st.t.Recv(src, tagPrefilterKeep).([]uint64))
		}
		words = keepWords
	} else {
		st.t.Send(0, tagPrefilterKeep, keepWords[myLo:myHi], int(myHi-myLo)*8)
	}
	// Non-root ranks receive first, then relay the stored payload to their
	// subtree — the send closure must serve the received words.
	st.t.TreeBroadcast(tagPrefilterBcast,
		func(dst int) (any, int) { return words, len(words) * 8 },
		func(src int, payload any) { words = payload.([]uint64) },
	)
	keep := sketch.BloomFromWords(words, f.Probes())
	d := time.Since(c0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", c0, d)
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "prefilter-combine",
		c0, time.Since(c0), nil)

	st.keep = keep
	st.filterBytes = f.SizeBytes()
	st.recvGot = make([]uint64, P)
	if st.obs != nil {
		st.counter("prefilter/build_us").Add(uint64(time.Since(build0).Microseconds()))
		st.counter("prefilter/filter_bytes").Add(uint64(f.SizeBytes()))
		// Landed(0)−Landed(1) estimates this rank's local singletons; both
		// counts are FP-deflated, so clamp the pathological tiny-filter case.
		if d0, d1 := f.Landed(0), f.Landed(1); d0 > d1 {
			st.counter("prefilter/kmers_dropped").Add(d0 - d1)
		}
		st.counter("prefilter/est_fp_rate").Add(uint64(keep.EstFPRate() * 1e6))
	}
	if cfg.Log != nil && st.rank == 0 {
		cfg.Log.InfoContext(st.ctx, "prefilter built",
			"bits_per_kmer", cfg.Prefilter.BitsPerKmer,
			"min_count", cfg.Prefilter.minCount(),
			"filter_bytes", f.SizeBytes(),
			"est_fp_rate", keep.EstFPRate(),
			"build", time.Since(build0))
	}
	return nil
}

// prefilterScanThread is one worker of the pass-1 scan: the KmerGen chunk
// loop (prefetched reads, in-place parsing, canonical enumeration) with
// ladder inserts in place of tuple writes. Every k-mer is inserted
// regardless of its m-mer bin — the filter is global, not per pass.
func (st *taskState) prefilterScanThread(t int, f *sketch.RepeatFilter,
	ioTime, scanTime *time.Duration) error {

	cfg := st.p.cfg
	idx := st.p.idx
	k := idx.Opts.K
	use64 := st.p.use64()
	var laneBuf []kmer.Kmer64
	var scanner fastq.ChunkScanner
	fetch := newChunkFetcher(st.p.threadChunks[st.rank][t], idx, st.files,
		cfg.prefetchDepth(), st.obs, st.rank, obsv.TidPrefetch+t)
	defer fetch.close()
	for {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		ci, buf, err := fetch.next()
		*ioTime += time.Since(t0)
		if err != nil {
			return err
		}
		if buf == nil {
			break
		}
		c := &idx.Chunks[ci]
		t0 = time.Now()
		scanner.Reset(buf)
		for n := int32(0); n < c.Records; n++ {
			rec, err := scanner.Next()
			if err != nil {
				return fmt.Errorf("core: chunk %d record %d: %w", ci, n, err)
			}
			if use64 {
				if cfg.NoVectorKmerGen {
					kmer.ForEach64(rec.Seq, k, func(_ int, km kmer.Kmer64) {
						h1, h2 := sketch.Hash(0, uint64(km))
						f.Insert(h1, h2)
					})
				} else {
					laneBuf = kmer.AppendCanonical64(laneBuf[:0], rec.Seq, k)
					for _, km := range laneBuf {
						h1, h2 := sketch.Hash(0, uint64(km))
						f.Insert(h1, h2)
					}
				}
			} else {
				kmer.ForEach128(rec.Seq, k, func(_ int, km kmer.Kmer128) {
					h1, h2 := sketch.Hash(km.Hi, km.Lo)
					f.Insert(h1, h2)
				})
			}
		}
		*scanTime += time.Since(t0)
		fetch.release(buf)
	}
	return nil
}

// genExchangeFiltered is genExchange's prefiltered twin: the same
// bulk/streaming dispatch, but with dynamic tuple counts flowing through
// compaction (bulk) or explicit chunk publication (streaming).
func (st *taskState) genExchangeFiltered(s int, gl genLayout, rl recvLayout) error {
	if st.p.cfg.ExchangeChunkTuples == 0 {
		if err := st.kmerGen(s, gl); err != nil {
			return err
		}
		act := st.compactGen(gl)
		return st.exchangeFiltered(s, gl, rl, act)
	}
	ex := st.startStreamPF(s, gl, rl)
	if err := st.kmerGen(s, gl); err != nil {
		st.t.Abort()
		ex.join()
		return err
	}
	genEnd := time.Now()
	err := ex.join()
	st.t.Barrier()
	if err != nil {
		return err
	}
	st.streamTail(ex, genEnd)
	return nil
}

// compactGen closes the gaps the prefilter left in kmerOut: within each
// destination region, every thread's kept prefix slides left so the
// region's tuples are contiguous from dstOff. The copies move tuples
// strictly leftward (the write cursor never passes the read cursor), so
// the in-place forward copy is safe. Returns the actual per-destination
// counts. Charged to KmerGen — it is the tail of tuple generation.
func (st *taskState) compactGen(gl genLayout) []uint64 {
	t0 := time.Now()
	T := st.p.cfg.Threads
	act := make([]uint64, len(gl.dstOff))
	for dst := range gl.dstOff {
		w := gl.dstOff[dst]
		for t := 0; t < T; t++ {
			lo := gl.cursor[dst*T+t]
			n := st.genKept[dst*T+t] - lo
			if n > 0 && w != lo {
				st.out.copyRange(w, st.out, lo, n)
			}
			w += n
		}
		act[dst] = w - gl.dstOff[dst]
	}
	d := time.Since(t0)
	st.rep.Steps.KmerGen += d
	st.stepSpan("KmerGen", t0, d)
	return act
}

// exchangeFiltered is the bulk all-to-all with actual (post-filter) send
// counts. Receive offsets stay at their planned positions — regions are
// simply part-filled — and actual counts land in recvGot for the layout
// scan. A region larger than the exact prediction is still an error: the
// filter can only shrink counts, so growth means the input changed.
func (st *taskState) exchangeFiltered(s int, gl genLayout, rl recvLayout, act []uint64) error {
	t0 := time.Now()
	var mismatch error
	st.t.AllToAll(tagTuples+s,
		func(dst int) (any, int) {
			cnt := act[dst]
			return st.out.msgFor(gl.dstOff[dst], cnt), int(cnt) * st.out.bytesPerTuple()
		},
		func(src int, payload any) {
			var got uint64
			if st.spill != nil {
				got = st.spill.receive(payload.(tupleMsg))
			} else {
				got = st.in.receive(rl.srcOff[src], payload.(tupleMsg))
			}
			st.recvGot[src] = got
			if st.exchTupleCounters != nil {
				st.exchTupleCounters[src].Add(got)
			}
			if got > rl.srcCnt[src] && mismatch == nil {
				mismatch = fmt.Errorf("core: task %d received %d tuples from %d, index predicts at most %d — input changed since IndexCreate?",
					st.rank, got, src, rl.srcCnt[src])
			}
		},
	)
	st.t.Barrier()
	d := time.Since(t0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", t0, d)
	return mismatch
}

// pfChunk is one kept tuple range a KmerGen worker publishes to the
// prefiltered streaming sender: [off, off+cnt) of kmerOut, bound for dst.
// last marks a thread's final contribution to dst (cnt may be 0); the
// sender closes a destination once all T finals have arrived.
type pfChunk struct {
	dst      int
	off, cnt uint64
	last     bool
}

// pfTracker carries published chunks from the KmerGen worker threads to
// the prefiltered streaming sender. Unlike chunkTracker there are no fill
// counts to track — a worker's kept tuples are contiguous within its own
// sub-region, so each publication is a self-describing range.
type pfTracker struct {
	chunkTuples uint64
	pub         chan pfChunk
}

func newPFTracker(gl genLayout, p, t int) *pfTracker {
	// Capacity bounds the worst-case publication count so workers never
	// block: per (dst, thread), ⌈kept/chunkTuples⌉ data chunks plus one
	// final; summed, at most chunkTotal + 2·P·T.
	return &pfTracker{
		chunkTuples: gl.chunkTuples,
		pub:         make(chan pfChunk, gl.chunkTotal+2*p*t),
	}
}

// pfMsg is the streaming prefilter exchange's wire unit: a tuple view plus
// the end-of-source flag (counts are dynamic, so termination is explicit
// rather than derived from the index tables).
type pfMsg struct {
	tupleMsg
	last bool
}

// startStreamPF launches the prefiltered streaming exchange for pass s and
// installs the publication tracker KmerGen's workers feed.
func (st *taskState) startStreamPF(s int, gl genLayout, rl recvLayout) *exchStream {
	ex := &exchStream{st: st, start: time.Now()}
	st.pfTracker = newPFTracker(gl, st.p.cfg.Tasks, st.p.cfg.Threads)
	ex.wg.Add(2)
	go func() {
		defer ex.wg.Done()
		err := mpirt.Guard(func() {
			if e := ex.sendLoopPF(s, gl); e != nil && ex.sendErr == nil {
				ex.sendErr = e
			}
		})
		if err != nil && ex.sendErr == nil {
			ex.sendErr = err
		}
	}()
	go func() {
		defer ex.wg.Done()
		err := mpirt.Guard(func() {
			if e := ex.recvLoopPF(s, rl); e != nil && ex.recvErr == nil {
				ex.recvErr = e
			}
		})
		if err != nil && ex.recvErr == nil {
			ex.recvErr = err
		}
	}()
	return ex
}

// sendLoopPF walks the same P-stage schedule as the exact sender (stage i
// sends to rank+i), shipping published chunks as they arrive. Chunks for
// later stages are queued; the current stage closes when all T worker
// finals for its destination have been seen, whereupon one last-flagged
// (possibly empty) message tells the receiver the source is done. Keeping
// the stage schedule preserves the bulk path's deadlock-freedom argument:
// the globally-first undelivered message's sender is blocked only on
// publication (KmerGen progress) or on strictly earlier sends.
func (ex *exchStream) sendLoopPF(s int, gl genLayout) error {
	st := ex.st
	t := st.t
	P := t.Size()
	T := st.p.cfg.Threads
	tr := st.pfTracker
	obs := st.obs
	queued := make([][]pfChunk, P)
	finals := make([]int, P)
	var inflight []*mpirt.Request
	var sent int
	ship := func(dst int, off, cnt uint64, last bool) {
		req := t.ISend(dst, tagTuples+s,
			pfMsg{tupleMsg: st.out.msgFor(off, cnt), last: last},
			int(cnt)*st.out.bytesPerTuple())
		inflight = append(inflight, req)
		sent++
		if len(inflight) > sendWindow {
			t.Wait(inflight[0])
			inflight = inflight[1:]
		}
	}
	for i := 0; i < P; i++ {
		dst := (st.rank + i) % P
		for _, c := range queued[dst] {
			ship(dst, c.off, c.cnt, false)
		}
		queued[dst] = nil
		for finals[dst] < T {
			var c pfChunk
			select {
			case c = <-tr.pub:
			default:
				// Block: the chunk we need has not been enumerated yet.
				w0 := time.Now()
				select {
				case c = <-tr.pub:
				case <-t.Failed():
					return mpirt.ErrPeerFailed
				}
				ex.pubWait += time.Since(w0)
			}
			if c.last {
				finals[c.dst]++
			}
			if c.cnt > 0 {
				if c.dst == dst {
					ship(dst, c.off, c.cnt, false)
				} else {
					queued[c.dst] = append(queued[c.dst], pfChunk{dst: c.dst, off: c.off, cnt: c.cnt})
				}
			}
		}
		ship(dst, gl.dstOff[dst], 0, true)
	}
	t.WaitAll(inflight)
	if obs != nil {
		st.counter("exchange/chunks_sent").Add(uint64(sent))
		st.counter("exchange/publish_wait_us").Add(uint64(ex.pubWait.Microseconds()))
	}
	return nil
}

// recvLoopPF mirrors the schedule (stage i receives from rank-i), landing
// each source's chunks compactly from its planned region offset until the
// last-flagged message arrives, and recording the actual count in recvGot.
func (ex *exchStream) recvLoopPF(s int, rl recvLayout) error {
	st := ex.st
	t := st.t
	P := t.Size()
	obs := st.obs
	var mismatch error
	var landed int
	for i := 0; i < P; i++ {
		src := (st.rank - i + P) % P
		var got uint64
		for {
			r0 := time.Now()
			m := t.Wait(t.IRecv(src, tagTuples+s)).(pfMsg)
			var n uint64
			if st.spill != nil {
				n = st.spill.receive(m.tupleMsg)
			} else {
				n = st.in.receive(rl.srcOff[src]+got, m.tupleMsg)
			}
			got += n
			landed++
			if obs != nil {
				obs.RecordSpan(st.rank, obsv.TidExchRecv, "detail", "chunk-land", r0, time.Since(r0),
					map[string]any{"src": src, "tuples": n})
			}
			if m.last {
				break
			}
		}
		st.recvGot[src] = got
		if st.exchTupleCounters != nil {
			st.exchTupleCounters[src].Add(got)
		}
		if got > rl.srcCnt[src] && mismatch == nil {
			mismatch = fmt.Errorf("core: task %d received %d tuples from %d, index predicts at most %d — input changed since IndexCreate?",
				st.rank, got, src, rl.srcCnt[src])
		}
	}
	if obs != nil {
		st.counter("exchange/chunks_recv").Add(uint64(landed))
	}
	return mismatch
}

// sortLayoutFiltered replaces the plan's histogram-derived sortLayout when
// tuple counts are dynamic: regions are the P part-filled source areas of
// kmerIn (per-thread sub-regions no longer have knowable extents), and the
// per-(region, cell) counts come from one counting scan of the received
// tuples. The scan is the price of filtering — O(received) reads, charged
// to LocalSort, against the 40%+ of tuples that never arrived.
func (st *taskState) sortLayoutFiltered(s int, rl recvLayout) (sortLayout, error) {
	t0 := time.Now()
	p := st.p
	P, T := p.cfg.Tasks, p.cfg.Threads
	lo, hi := p.pt.TaskRange(s, st.rank)
	l := newSortLayout(lo, hi, 2*uint(p.idx.Opts.K-p.idx.Opts.M), sum(st.recvGot),
		rl.srcOff, st.recvGot)
	in := st.in
	nc := uint64(l.ncells)
	stale := make([]bool, P)
	par.For(T, P, func(r int) {
		a, b := rl.srcOff[r], rl.srcOff[r]+st.recvGot[r]
		row := l.start[r*l.ncells : (r+1)*l.ncells]
		for i := a; i < b; i++ {
			var c uint64
			if in.wide() {
				c = radix.Shr128(in.hi[i], in.lo[i], l.cellShift) - l.cellLo
			} else {
				c = in.lo[i]>>l.cellShift - l.cellLo
			}
			if c >= nc {
				stale[r] = true
				return
			}
			row[c]++
		}
	})
	for r, bad := range stale {
		if bad {
			return l, &StaleIndexError{Rank: st.rank, Pass: s, Region: r}
		}
	}
	l.offsets()
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	return l, nil
}
