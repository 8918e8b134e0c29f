package core

import (
	"sort"

	"metaprep/internal/index"
	"metaprep/internal/par"
	"metaprep/internal/radix"
)

// plan is the static schedule derived from the index tables: which task and
// thread owns which FASTQ chunks, how the m-mer bin space is split into
// pass/task/thread key ranges, and — per pass and rank — every buffer count
// and offset the pipeline steps need to run without synchronization
// (§3.1–§3.4). Everything in a plan is derived deterministically from the
// index, so all tasks compute identical plans.
type plan struct {
	cfg Config
	idx *index.Index
	pt  *index.Partition

	// taskChunks[p] lists the chunk indices task p owns (a contiguous
	// block, so each task reads a contiguous region of the inputs).
	taskChunks [][]int
	// threadChunks[p][t] lists the chunks thread t of task p owns.
	threadChunks [][][]int

	// bufTuples[p] is the tuple capacity task p must allocate for each of
	// its two buffers (kmerOut and kmerIn): the maximum over passes of
	// tuples generated and tuples received, because kmerOut doubles as the
	// sorted output buffer (§3.4) and kmerIn as radix-sort scratch.
	// In spill mode only the generation term counts — received tuples land
	// in the bounded run builders instead of a kmerIn-sized buffer.
	bufTuples []uint64

	// spill is true when the out-of-core LocalSort path is active: a
	// SpillBudgetBytes cap is set and at least one (pass, rank) would
	// otherwise receive a partition larger than the cap. The decision is
	// global and uniform — every rank and pass takes the same path — so the
	// per-pass schedules of all tasks stay identical.
	spill bool
	// runTuples is the spill run size: the budget covers three circulating
	// run builders (two in the receive↔sort-write handoff ring plus the
	// radix scratch), so each holds budget/(3·bytesPerTuple) tuples.
	runTuples uint64
}

func newPlan(cfg Config) (*plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	idx := cfg.Index
	pt, err := index.NewPartition(idx.MerHist, cfg.Passes, cfg.Tasks, cfg.Threads)
	if err != nil {
		return nil, err
	}
	p := &plan{cfg: cfg, idx: idx, pt: pt}

	c := len(idx.Chunks)
	p.taskChunks = make([][]int, cfg.Tasks)
	p.threadChunks = make([][][]int, cfg.Tasks)
	for rank := 0; rank < cfg.Tasks; rank++ {
		lo, hi := par.Block(c, cfg.Tasks, rank)
		chunks := make([]int, 0, hi-lo)
		for ci := lo; ci < hi; ci++ {
			chunks = append(chunks, ci)
		}
		p.taskChunks[rank] = chunks
		p.threadChunks[rank] = make([][]int, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			tlo, thi := par.Block(len(chunks), cfg.Threads, t)
			p.threadChunks[rank][t] = chunks[tlo:thi]
		}
	}

	maxGen := make([]uint64, cfg.Tasks)
	maxRecv := make([]uint64, cfg.Tasks)
	var worstRecv uint64
	for rank := 0; rank < cfg.Tasks; rank++ {
		for s := 0; s < cfg.Passes; s++ {
			var gen uint64
			plo, phi := pt.PassRange(s)
			for _, ci := range p.taskChunks[rank] {
				gen += index.RangeCount(idx.Chunks[ci].Hist, plo, phi)
			}
			if gen > maxGen[rank] {
				maxGen[rank] = gen
			}
			tlo, thi := pt.TaskRange(s, rank)
			if recv := index.RangeCount64(idx.MerHist, tlo, thi); recv > maxRecv[rank] {
				maxRecv[rank] = recv
			}
		}
		if maxRecv[rank] > worstRecv {
			worstRecv = maxRecv[rank]
		}
	}
	if b := cfg.SpillBudgetBytes; b > 0 && worstRecv*p.bytesPerTuple() > uint64(b) {
		p.spill = true
		p.runTuples = uint64(b) / (3 * p.bytesPerTuple())
		if p.runTuples < 1 {
			p.runTuples = 1
		}
	}
	p.bufTuples = make([]uint64, cfg.Tasks)
	for rank := 0; rank < cfg.Tasks; rank++ {
		p.bufTuples[rank] = maxGen[rank]
		if !p.spill && maxRecv[rank] > maxGen[rank] {
			p.bufTuples[rank] = maxRecv[rank]
		}
	}
	return p, nil
}

// bytesPerTuple is the in-memory and on-wire tuple size: the paper's 12
// bytes for k ≤ 31, 20 for the 128-bit key path.
func (p *plan) bytesPerTuple() uint64 {
	if p.use64() {
		return 12
	}
	return 20
}

// spillRuns returns how many runs a pass with recvTotal received tuples
// spills.
func (p *plan) spillRuns(recvTotal uint64) int {
	if recvTotal == 0 {
		return 0
	}
	return int((recvTotal + p.runTuples - 1) / p.runTuples)
}

// spillBlockTuples sizes the encode blocks of a pass's spill file — the unit
// of merge read-ahead. During the merge every one of T threads holds up to
// two decoded blocks per run (one draining, one prefetching), so the block
// size is chosen to keep T·runs·2·block·bytesPerTuple within half the
// budget, clamped to [16, 4096] tuples and to the run size.
func (p *plan) spillBlockTuples(runs int) int {
	if runs < 1 {
		runs = 1
	}
	b := uint64(p.cfg.SpillBudgetBytes) /
		(4 * uint64(p.cfg.Threads) * uint64(runs) * p.bytesPerTuple())
	if b < 16 {
		b = 16
	}
	if b > 4096 {
		b = 4096
	}
	if b > p.runTuples {
		b = p.runTuples
	}
	return int(b)
}

// use64 reports whether the 64-bit k-mer path applies.
func (p *plan) use64() bool { return p.idx.Opts.Use64() }

// genLayout describes task rank's kmerOut buffer in pass s: tuples are
// grouped by destination task (so a destination's tuples ship as one
// message), and within each destination region by source thread (so each
// thread writes its own precomputed sub-region without synchronization,
// §3.2.2).
type genLayout struct {
	// dstOff[dst] / dstCnt[dst]: each destination region within kmerOut.
	dstOff, dstCnt []uint64
	// cursor[dst*T+t]: where thread t starts writing tuples bound for dst.
	cursor []uint64
	// total is the number of tuples task rank generates this pass.
	total uint64

	// Streaming-exchange chunk accounting (zero when ExchangeChunkTuples
	// is 0). Each destination region is cut into ⌈dstCnt/chunkTuples⌉
	// fixed-size chunks; chunkBase[dst] is the first flat chunk index of
	// dst's region, and chunkTotal the flat chunk count across all
	// destinations. Chunk c of dst covers tuples
	// [dstOff+c·chunkTuples, min(dstOff+(c+1)·chunkTuples, dstOff+dstCnt)).
	chunkTuples uint64
	chunkBase   []int
	chunkTotal  int
}

// chunksFor returns the number of exchange chunks in dst's send region.
func (l genLayout) chunksFor(dst int) int {
	if l.chunkTuples == 0 {
		return 0
	}
	return int((l.dstCnt[dst] + l.chunkTuples - 1) / l.chunkTuples)
}

func (p *plan) genLayout(s, rank int) genLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	idx := p.idx
	// count[dst*T+t] = tuples thread t generates for destination dst.
	count := make([]uint64, P*T)
	for t := 0; t < T; t++ {
		for _, ci := range p.threadChunks[rank][t] {
			hist := idx.Chunks[ci].Hist
			for dst := 0; dst < P; dst++ {
				lo, hi := p.pt.TaskRange(s, dst)
				count[dst*T+t] += index.RangeCount(hist, lo, hi)
			}
		}
	}
	l := genLayout{
		dstOff: make([]uint64, P),
		dstCnt: make([]uint64, P),
		cursor: make([]uint64, P*T),
	}
	var off uint64
	for dst := 0; dst < P; dst++ {
		l.dstOff[dst] = off
		for t := 0; t < T; t++ {
			l.cursor[dst*T+t] = off
			off += count[dst*T+t]
			l.dstCnt[dst] += count[dst*T+t]
		}
	}
	l.total = off
	if c := p.cfg.ExchangeChunkTuples; c > 0 {
		l.chunkTuples = uint64(c)
		l.chunkBase = make([]int, P)
		for dst := 0; dst < P; dst++ {
			l.chunkBase[dst] = l.chunkTotal
			l.chunkTotal += l.chunksFor(dst)
		}
	}
	return l
}

// recvLayout describes task rank's kmerIn buffer in pass s: one region per
// source task, in rank order, sized from the source's chunk histograms
// (§3.3: "each task also calculates the number of tuples to be received
// from other tasks and the corresponding receive offsets in advance").
// Within a source region, tuples arrive ordered by the source's threads.
type recvLayout struct {
	srcOff, srcCnt []uint64
	// threadCnt[src*T+t] splits srcCnt by the source's thread t, needed to
	// locate scatter work regions for LocalSort.
	threadCnt []uint64
	total     uint64

	// chunkTuples mirrors genLayout's chunk accounting on the receive
	// side: source src ships ⌈srcCnt/chunkTuples⌉ chunks, chunk c landing
	// at srcOff[src]+c·chunkTuples. Both sides derive the counts from the
	// same index tables, so no control messages are needed — not even for
	// empty regions, which ship zero chunks.
	chunkTuples uint64
}

// chunksFrom returns the number of exchange chunks source src will send.
func (l recvLayout) chunksFrom(src int) int {
	if l.chunkTuples == 0 {
		return 0
	}
	return int((l.srcCnt[src] + l.chunkTuples - 1) / l.chunkTuples)
}

func (p *plan) recvLayout(s, rank int) recvLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	lo, hi := p.pt.TaskRange(s, rank)
	l := recvLayout{
		srcOff:    make([]uint64, P),
		srcCnt:    make([]uint64, P),
		threadCnt: make([]uint64, P*T),
	}
	var off uint64
	for src := 0; src < P; src++ {
		l.srcOff[src] = off
		for t := 0; t < T; t++ {
			var cnt uint64
			for _, ci := range p.threadChunks[src][t] {
				cnt += index.RangeCount(p.idx.Chunks[ci].Hist, lo, hi)
			}
			l.threadCnt[src*T+t] = cnt
			l.srcCnt[src] += cnt
			off += cnt
		}
	}
	l.total = off
	l.chunkTuples = uint64(p.cfg.ExchangeChunkTuples)
	return l
}

// sortLayout is the LocalSort plan for task rank's received tuples in pass
// s (§3.4). The task's m-mer bin range is cut into cells of 2^g adjacent
// bins, and every (kmerIn region, cell) pair owns an exclusive,
// precomputed slice of kmerOut: cell-major, then region order. The scatter
// therefore lands every tuple in cell order in one pass with no
// synchronization, and equal keys keep their kmerIn order, so finishing
// each cell with a stable sort gives the stable sort of the whole task.
type sortLayout struct {
	// regionOff/regionCnt: the scatter's work units in kmerIn.
	regionOff, regionCnt []uint64
	// A cell is 2^g adjacent m-mer bins; key >> cellShift (= 2(k−m) + g)
	// is a tuple's global cell.
	g, cellShift uint
	// cellLo is the task's first global cell; ncells counts its cells.
	cellLo uint64
	ncells int
	// start[r*ncells+c] is where region r's tuples of cell c begin in
	// kmerOut. Row 0 holds the cell boundaries.
	start []uint64
	total uint64
}

// newSortLayout sizes the cell grid of the bin range [lo, hi) for n
// tuples in the given regions. start is left holding zero counts for the
// caller to fill (start[r*ncells+c] += tuples of region r in cell c)
// before calling offsets.
func newSortLayout(lo, hi int, binShift uint, n uint64, regionOff, regionCnt []uint64) sortLayout {
	l := sortLayout{regionOff: regionOff, regionCnt: regionCnt}
	if hi <= lo {
		return l
	}
	l.g = cellBits(lo, hi, len(regionOff), n)
	l.cellShift = binShift + l.g
	l.cellLo = uint64(lo) >> l.g
	l.ncells = int(uint64(hi-1)>>l.g-l.cellLo) + 1
	l.start = make([]uint64, len(regionOff)*l.ncells)
	return l
}

// cellBits returns g, the number of low bin bits a cell drops: the
// smallest value that keeps the (region, cell) cursor table of the bin
// range [lo, hi) at or below n/8 entries, so the table costs at most one
// byte per tuple however large m makes the bin space, and that gives the
// average cell at least cellTuples tuples.
func cellBits(lo, hi, regions int, n uint64) uint {
	for g := uint(0); ; g++ {
		cells := uint64(hi-1)>>g - uint64(lo)>>g + 1
		if cells == 1 || uint64(regions)*cells <= n/8 && cells*cellTuples <= n {
			return g
		}
	}
}

// cellTuples is the average cell size cellBits aims for. Fewer, larger
// cells narrow the scatter's fan-out (fewer concurrent write streams for
// the caches and TLB to track), while a cell stays small enough for
// radix.BinSorter to group in its scratch. On the partition benchmark
// (HG, k=27, m=8, 6.7 M tuples per task, 2-vCPU x86-64 VM) LocalSort time
// falls by a fifth from one-bin cells to 16-bin cells of about 3 200
// tuples, and rises again past 64-bin cells as cells outgrow the scratch.
const cellTuples = 2048

// cellOf returns the task-relative cell of m-mer bin b.
func (l *sortLayout) cellOf(b int) int {
	return int(uint64(b)>>l.g - l.cellLo)
}

// offsets turns the per-(region, cell) counts in start into write
// offsets, cell-major then region order.
func (l *sortLayout) offsets() {
	nr, nc := len(l.regionOff), l.ncells
	var off uint64
	for c := 0; c < nc; c++ {
		for r := 0; r < nr; r++ {
			n := l.start[r*nc+c]
			l.start[r*nc+c] = off
			off += n
		}
	}
	l.total = off
}

// cells fills dst with region r's scatter cursors: each cell's first slot
// and the slot where the next region's (or the next cell's) tuples begin.
func (l *sortLayout) cells(r int, dst []radix.Cell) {
	nr, nc := len(l.regionOff), l.ncells
	for c := range dst {
		lim := l.cellStart(c + 1)
		if r+1 < nr {
			lim = l.start[(r+1)*nc+c]
		}
		dst[c] = radix.Cell{Cur: l.start[r*nc+c], Lim: lim}
	}
}

// cellStart returns where cell c begins in kmerOut; cellStart(ncells) is
// the end of the last cell.
func (l *sortLayout) cellStart(c int) uint64 {
	if c < l.ncells {
		return l.start[c]
	}
	return l.total
}

// firstCellAt returns the first cell whose extent starts at or after
// tuple offset off (ncells if none).
func (l *sortLayout) firstCellAt(off uint64) int {
	return sort.Search(l.ncells, func(c int) bool { return l.start[c] >= off })
}

func (p *plan) sortLayout(s, rank int, rl recvLayout) sortLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	idx := p.idx
	// Normally the scatter's work units are the P×T (source task, source
	// thread) sub-regions of kmerIn, because the precomputed-offset KmerGen
	// keeps each sender thread's tuples contiguous inside a message. The
	// DynamicOffsets ablation interleaves sender threads within a message,
	// so only whole source messages remain well-defined regions.
	perThread := !p.cfg.DynamicOffsets
	regionOff, regionCnt := rl.srcOff, rl.srcCnt
	if perThread {
		regionOff = make([]uint64, P*T)
		regionCnt = rl.threadCnt
		var off uint64
		for r := range regionOff {
			regionOff[r] = off
			off += regionCnt[r]
		}
	}
	lo, hi := p.pt.TaskRange(s, rank)
	l := newSortLayout(lo, hi, 2*uint(idx.Opts.K-idx.Opts.M), rl.total, regionOff, regionCnt)
	if l.ncells == 0 {
		return l
	}
	// §3.3's precomputed offsets, applied to cells: the chunk histograms
	// give every (region, cell) count before a tuple arrives.
	for src := 0; src < P; src++ {
		for t := 0; t < T; t++ {
			r := src
			if perThread {
				r = src*T + t
			}
			row := l.start[r*l.ncells : (r+1)*l.ncells]
			for _, ci := range p.threadChunks[src][t] {
				for b, c := range idx.Chunks[ci].Hist[lo:hi] {
					row[l.cellOf(lo+b)] += uint64(c)
				}
			}
		}
	}
	l.offsets()
	return l
}
