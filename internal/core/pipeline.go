package core

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"metaprep/internal/model"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
	"metaprep/internal/radix"
	"metaprep/internal/sketch"
	"metaprep/internal/unionfind"
)

// Message tags. Tuple exchanges are tagged per pass so a lagging task can
// never confuse two passes' messages.
const (
	tagTuples = 100 // +pass number
	tagMerge  = 1
	tagBcast  = 2
	tagDelta  = 10 // +merge round (pipelined delta merge; rounds ≤ log₂P keep it below tagTuples)
)

// taskState is everything one simulated MPI task owns while the pipeline
// runs: its rank, communicator endpoint, the two tuple buffers, its local
// disjoint-set instance, open input files and its accounting.
type taskState struct {
	p    *plan
	rank int
	t    *mpirt.Task
	// ctx is the run's cancellation context. Long compute phases poll it at
	// chunk and step boundaries; blocked communication is woken through the
	// world's abort propagation instead.
	ctx context.Context
	// obs is the run's collector (nil when observability is off). It is
	// the same pointer as p.cfg.Obs, cached for the instrumentation sites.
	obs *obsv.Collector

	// out is kmerOut; in is kmerIn, nil in spill mode (received tuples go
	// through the run builders instead).
	out, in *tupleBuf
	dsu     *unionfind.DSU
	ufStats *unionfind.Stats
	files   []*os.File

	// spill, non-nil only while a spill pass's exchange runs, diverts the
	// receive path into the run builders.
	spill *spillState
	// emit, non-nil when ArtifactOut is set, collects this task's sorted
	// tuple stream into artifact part files as the passes run.
	emit *artifactEmit
	// spillCur/spillPeak gauge the spill machinery's resident tuple bytes
	// (builders plus decoded merge blocks); the peak is exported as the
	// extsort/peak_tuple_bytes counter the budget-compliance test checks.
	spillCur, spillPeak atomic.Int64

	// exchTracker, non-nil only while a streaming exchange pass runs,
	// receives chunk-fill notifications from the KmerGen worker threads.
	exchTracker *chunkTracker
	// pfTracker is exchTracker's prefiltered twin: explicit chunk
	// publication instead of fill counting (see prefilter.go).
	pfTracker *pfTracker

	// keep, non-nil when the prefilter is enabled, is the global "seen ≥
	// MinCount times" Bloom every KmerGen emit consults; filterBytes is the
	// pass-1 ladder's memory charge. genKept[dst*T+t] records thread t's
	// end cursor in dst's send region per pass (kept = end − start cursor);
	// recvGot[src] the actual tuples landed from src this pass.
	keep        *sketch.Bloom
	filterBytes int64
	genKept     []uint64
	recvGot     []uint64
	// exchTupleCounters[src] is the preformatted per-source-rank tuple
	// counter ("exchange/tuples[src->rank]"), resolved once at task setup
	// so the receive path never formats counter names (nil when
	// observability is off).
	exchTupleCounters []*obsv.Counter

	// rep is this task's accounting, accumulated in place as the steps
	// run. Steps, tuples, edges and iteration counts live only here —
	// TaskReport is the one per-task report type, consumed by Result,
	// the metrics snapshot and the load-balance analysis alike.
	rep           TaskReport
	maxChunkBytes int64
	freqHist      [freqHistSize]uint64
}

// newTaskState wires a task's rank, communicator and collector together,
// attaching union–find operation counting when observability is on.
func newTaskState(ctx context.Context, pl *plan, task *mpirt.Task) *taskState {
	st := &taskState{p: pl, rank: task.Rank(), t: task, ctx: ctx, obs: pl.cfg.Obs}
	st.rep.Rank = st.rank
	if st.obs != nil {
		st.ufStats = &unionfind.Stats{}
		st.obs.SetProcessName(st.rank, fmt.Sprintf("task %d", st.rank))
		st.obs.SetThreadName(st.rank, obsv.TidSteps, "steps")
		st.obs.SetThreadName(st.rank, obsv.TidComm, "mpirt comm")
		if pl.cfg.ExchangeChunkTuples > 0 {
			st.obs.SetThreadName(st.rank, obsv.TidExchange, "exchange send")
			st.obs.SetThreadName(st.rank, obsv.TidExchRecv, "exchange recv")
		}
		if pl.spill {
			st.obs.SetThreadName(st.rank, obsv.TidSpill, "spill writer")
		}
		if pl.cfg.ArtifactOut != "" || pl.cfg.ArtifactIn != "" {
			st.obs.SetThreadName(st.rank, obsv.TidArtifact, "artifact")
		}
		// Per-rank-pair tuple counters (the Fig. 8 communication-imbalance
		// quantity, keyed on the receiving task), preformatted here so the
		// exchange receive path does no string formatting per message.
		st.exchTupleCounters = make([]*obsv.Counter, pl.cfg.Tasks)
		for src := range st.exchTupleCounters {
			st.exchTupleCounters[src] =
				st.counter(fmt.Sprintf("exchange/tuples[%03d->%03d]", src, st.rank))
		}
		for t := 0; t < pl.cfg.Threads; t++ {
			st.obs.SetThreadName(st.rank, obsv.TidWorker+t, fmt.Sprintf("worker %d", t))
			if !pl.cfg.NoPrefetch {
				st.obs.SetThreadName(st.rank, obsv.TidPrefetch+t, fmt.Sprintf("prefetch %d", t))
			}
		}
	}
	return st
}

// stepSpan records one "step"-category span on this task's step track and
// folds the duration into the rank's per-step latency histogram. Every
// call site passes the exact duration it just added to rep.Steps —
// including modeled network time — so the per-task sum of step spans
// reconciles with StepTimes.Total (the `metaprep checktrace` invariant).
// The early return keeps the disabled path free of the name concatenation.
func (st *taskState) stepSpan(name string, start time.Time, d time.Duration) {
	if st.obs == nil {
		return
	}
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "step", name, start, d, nil)
	st.obs.Histogram(st.rank, "step/"+name).Observe(d)
}

// counter resolves a per-rank counter (nil, a no-op, when observability
// is off). Hot loops resolve once and keep the pointer.
func (st *taskState) counter(name string) *obsv.Counter {
	return st.obs.Counter(st.rank, name)
}

// spillMemAdd moves the spill tuple-memory gauge by delta bytes, tracking
// its peak. The gauge covers the run builders and the decoded merge blocks
// — the memory the spill budget governs.
func (st *taskState) spillMemAdd(delta int64) {
	cur := st.spillCur.Add(delta)
	for {
		p := st.spillPeak.Load()
		if cur <= p || st.spillPeak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// finishObs registers the end-of-run counters that fall out of the task's
// accounting: volumes, memory and the union–find operation mix.
func (st *taskState) finishObs() {
	if st.obs == nil {
		return
	}
	st.counter("pipeline/tuples").Add(st.rep.Tuples)
	st.counter("pipeline/edges").Add(st.rep.Edges)
	st.counter("pipeline/bytes_sent").Add(uint64(st.rep.BytesSent))
	st.counter("mergecc/bytes_sent").Add(uint64(st.rep.MergeBytes))
	st.counter("memory/planned_bytes").Add(uint64(st.rep.MemoryBytes))
	st.counter("unionfind/finds").Add(st.ufStats.Finds.Load())
	st.counter("unionfind/path_splits").Add(st.ufStats.PathSplits.Load())
	st.counter("unionfind/unions").Add(st.ufStats.Unions.Load())
	st.counter("unionfind/union_races").Add(st.ufStats.UnionRaces.Load())
	if peak := st.spillPeak.Load(); peak > 0 {
		st.counter("extsort/peak_tuple_bytes").Add(uint64(peak))
	}
}

// freqHistSize caps the k-mer frequency spectrum the pipeline collects; the
// last bin aggregates every frequency ≥ freqHistSize-1.
const freqHistSize = 256

// TaskReport is the per-task accounting: the one report type shared by
// the pipeline's internal bookkeeping (taskState accumulates a TaskReport
// in place), Result.PerTask, the metrics snapshot (`metaprep run
// -metrics`) and the load-balance analysis (Fig. 8).
type TaskReport struct {
	Rank      int
	Steps     StepTimes
	Tuples    uint64
	Edges     uint64
	BytesSent int64
	// MergeBytes is the portion of BytesSent spent in the MergeCC tree and
	// label broadcast (dense: 4R per send; sparse: 8 bytes per non-singleton
	// read; delta: 8 bytes per entry changed since the sender's previous
	// round).
	MergeBytes int64
	// CCIters is the largest Algorithm 1 iteration count across this
	// task's passes (§3.5 observes the first iteration dominates).
	CCIters int
	// MemoryBytes is the task's peak planned memory: index tables, both
	// tuple buffers, the two component arrays and the FASTQ chunk buffers
	// (§3.7's inventory).
	MemoryBytes int64
	// SpillBytes is what the out-of-core LocalSort wrote to scratch on this
	// task (0 when every pass stayed in RAM) — the measured side of the
	// drift report's spill comparison.
	SpillBytes int64
	// DriftRatio is this task's total step time against the model's
	// prediction for the run (ε-smoothed, always finite; 0 when drift
	// reconciliation is off). One task drifting alone is load imbalance,
	// not model drift.
	DriftRatio float64
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Labels maps every global read ID to its component root.
	Labels []uint32
	// LargestRoot and LargestSize identify the giant component.
	LargestRoot uint32
	LargestSize int
	// Components is the number of connected components.
	Components int
	// Reads is R, the number of global read IDs.
	Reads uint32
	// Steps is the element-wise maximum of per-task step times — the
	// quantity the paper's figures report.
	Steps StepTimes
	// PerTask holds each task's own accounting.
	PerTask []TaskReport
	// Wall is the end-to-end measured wall time of the run.
	Wall time.Duration
	// Tuples is the total number of (k-mer, read) tuples enumerated.
	Tuples uint64
	// Edges is the number of read-graph edges fed to union–find.
	Edges uint64
	// CCIterations is the largest Algorithm 1 iteration count any task saw.
	CCIterations int
	// KmerFreqHist is the k-mer frequency spectrum: KmerFreqHist[f] counts
	// distinct canonical k-mers of frequency f (the last bin aggregates the
	// tail). It falls out of the sorted runs and is the input to choosing
	// the §4.4 filter bounds.
	KmerFreqHist []uint64
	// MemoryPerTask is the maximum per-task memory figure.
	MemoryPerTask int64
	// LCFiles and OtherFiles list the output FASTQ files (empty when
	// OutDir was not set). With SplitComponents, LCFiles holds component
	// 0's files and OtherFiles the remainder's; SplitFiles has every group.
	LCFiles, OtherFiles []string
	// SplitFiles, indexed [group][...], lists the per-component output
	// file sets when SplitComponents > 0 (groups ordered largest first,
	// remainder last). Nil otherwise.
	SplitFiles [][]string
	// Drift is the post-run model reconciliation: measured step times and
	// byte volumes against model.Predict for this run's actual parameters.
	// Nil when Config.DriftCal is "off".
	Drift *model.DriftReport
}

// LargestFraction returns the largest component's share of all reads, the
// "LC size (% Reads)" quantity of Table 7.
func (r *Result) LargestFraction() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.LargestSize) / float64(r.Reads)
}

// ComponentSizes returns the size of every component keyed by root.
func (r *Result) ComponentSizes() map[uint32]int {
	sizes := make(map[uint32]int)
	for _, l := range r.Labels {
		sizes[l]++
	}
	return sizes
}

// Run executes the full METAPREP pipeline under the given configuration.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled or times out,
// compute phases stop at the next chunk or step boundary, blocked ranks are
// woken through mpirt's abort propagation, and RunContext returns ctx.Err()
// with no goroutines left behind (TestRunContextCancelMidKmerGen).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	pl, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	// Artifact-driven paths replace the front half of the pipeline: a
	// reload turns a stored partition straight into a Result, and a delta
	// run merges freshly enumerated tuples against the stored base.
	if cfg.ArtifactIn != "" {
		if cfg.ArtifactDelta {
			return runIncremental(ctx, cfg, pl)
		}
		return runFromArtifact(ctx, cfg, pl)
	}
	if cfg.Log != nil {
		cfg.Log.InfoContext(ctx, "pipeline start",
			"tasks", cfg.Tasks, "threads", cfg.Threads, "passes", cfg.Passes,
			"reads", pl.idx.Reads, "tuples", pl.idx.TotalKmers, "spill", pl.spill)
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	// In spill mode, every rank's run files live in one run-scoped temp
	// directory, removed on every exit path — success, error and
	// cancellation alike (TestSpillCancelLeavesNoRunFiles).
	var spillDir string
	if pl.spill {
		spillDir, err = os.MkdirTemp(cfg.SpillDir, "metaprep-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(spillDir)
	}
	// The artifact emit tees the sorted tuple stream into part files as the
	// passes run; its scratch directory follows the spill-dir lifecycle
	// (removed on success, error and cancellation alike).
	var emit *artifactEmit
	if cfg.ArtifactOut != "" {
		emit, err = newArtifactEmit(cfg, pl)
		if err != nil {
			return nil, err
		}
		defer emit.cleanup()
	}

	world := mpirt.NewWorld(cfg.Tasks, cfg.Network)
	world.SetCollector(cfg.Obs)
	if cfg.Obs != nil {
		radix.EnablePassStats()
		radix.TakePassStats() // discard tallies from earlier, unobserved sorts
		defer func() {
			ex, sk := radix.TakePassStats()
			cfg.Obs.Counter(obsv.RankGlobal, "radix/passes_executed").Add(ex)
			cfg.Obs.Counter(obsv.RankGlobal, "radix/passes_skipped").Add(sk)
			radix.DisablePassStats()
		}()
	}
	reports := make([]TaskReport, cfg.Tasks)
	freqHists := make([][freqHistSize]uint64, cfg.Tasks)
	outFiles := make([][][]string, cfg.Tasks) // [rank][group][thread]
	var final mergeResult

	start := time.Now()
	err = world.RunContext(ctx, func(task *mpirt.Task) error {
		st := newTaskState(ctx, pl, task)
		st.emit = emit
		defer st.closeFiles()
		files, err := openInputs(pl.idx)
		if err != nil {
			return err
		}
		st.files = files
		st.out = cfg.acquireTupleBuf(pl.bufTuples[st.rank], !pl.use64())
		if !pl.spill {
			// Spill mode has no kmerIn: received tuples stream through
			// the budgeted run builders instead.
			st.in = cfg.acquireTupleBuf(pl.bufTuples[st.rank], !pl.use64())
		}
		defer func() {
			// Safe to recycle even on the error path: RunContext joins
			// every rank before returning, so no peer still holds a
			// zero-copy view into these buffers when a later run (the
			// next daemon job) can acquire them.
			cfg.releaseTupleBuf(st.out)
			if st.in != nil {
				cfg.releaseTupleBuf(st.in)
			}
		}()
		st.dsu = unionfind.New(int(pl.idx.Reads))
		st.dsu.SetStats(st.ufStats)
		for _, ci := range pl.taskChunks[st.rank] {
			if sz := pl.idx.Chunks[ci].Size; sz > st.maxChunkBytes {
				st.maxChunkBytes = sz
			}
		}
		if cfg.Prefilter.Enabled() {
			// Pass 1 of the two-pass prefilter: scan, combine, broadcast.
			// Every later pass's KmerGen consults st.keep.
			if err := st.buildPrefilter(); err != nil {
				return err
			}
		}

		for s := 0; s < cfg.Passes; s++ {
			gl := pl.genLayout(s, st.rank)
			rl := pl.recvLayout(s, st.rank)
			if pl.spill {
				if err := st.runSpillPass(s, gl, rl, spillDir); err != nil {
					return err
				}
			} else {
				if err := st.genExchange(s, gl, rl); err != nil {
					return err
				}
				var sl sortLayout
				if st.keep != nil {
					if sl, err = st.sortLayoutFiltered(s, rl); err != nil {
						return err
					}
				} else {
					sl = pl.sortLayout(s, st.rank, rl)
				}
				parts, err := st.localSort(s, sl)
				if err != nil {
					return err
				}
				// The artifact part writer overlaps LocalCC: both only
				// read the sorted kmerOut. The join below keeps the
				// buffer from being reused (next pass) while encoding.
				var emitDone chan error
				if st.emit != nil {
					emitDone = make(chan error, 1)
					go func(s int, n uint64) {
						t0 := time.Now()
						err := st.emit.writeRun(s, st.rank, st.out, n)
						if st.obs != nil {
							st.obs.RecordSpan(st.rank, obsv.TidArtifact, "detail",
								"artifact-part", t0, time.Since(t0),
								map[string]any{"pass": s, "tuples": n})
						}
						emitDone <- err
					}(s, rl.total)
				}
				st.localCC(parts)
				if emitDone != nil {
					if err := <-emitDone; err != nil {
						return err
					}
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			// Keep passes in lockstep so a fast task cannot start enumerating
			// pass s+1 component IDs while peers still union pass s edges
			// (§3.5.1 requires the local DSU to be quiescent at enumeration).
			task.Barrier()
		}

		// With OverlapOutput, the CC-I/O chunk prefetchers start before the
		// merge so the output re-read streams from disk while Merge-Comm and
		// MergeCC are still in flight. The deferred close covers the abort
		// paths (close is idempotent; writeOutput closes them itself).
		var outFetchers []*chunkFetcher
		if cfg.OutDir != "" && cfg.OverlapOutput {
			outFetchers = st.startOutputFetchers()
			defer func() {
				for _, f := range outFetchers {
					f.close()
				}
			}()
		}
		preMergeBytes := task.BytesSent()
		res := st.mergeCC()
		mergeBytes := task.BytesSent() - preMergeBytes
		if st.rank == 0 {
			final = res
		}
		if cfg.OutDir != "" {
			if err := ctx.Err(); err != nil {
				return err
			}
			paths, err := st.writeOutput(res, outFetchers)
			if err != nil {
				return err
			}
			outFiles[st.rank] = paths
		}

		freqHists[st.rank] = st.freqHist
		st.rep.BytesSent = task.BytesSent()
		st.rep.MergeBytes = mergeBytes
		st.rep.MemoryBytes = st.memoryBytes()
		st.finishObs()
		reports[st.rank] = st.rep
		return nil
	})
	if err != nil {
		if cfg.Log != nil {
			cfg.Log.ErrorContext(ctx, "pipeline failed",
				"err", err, "wall", time.Since(start))
		}
		return nil, err
	}

	res := &Result{
		Labels:      final.labels,
		LargestRoot: final.largestRoot,
		LargestSize: final.largestSize,
		Reads:       pl.idx.Reads,
		Steps:       MaxOf(stepsOf(reports)),
		PerTask:     reports,
		Wall:        time.Since(start),
	}
	comps := make(map[uint32]int)
	for _, l := range final.labels {
		comps[l]++
	}
	res.Components = len(comps)
	singletons := 0
	for _, n := range comps {
		if n == 1 {
			singletons++
		}
	}
	for _, rep := range reports {
		res.Tuples += rep.Tuples
		res.Edges += rep.Edges
		if rep.MemoryBytes > res.MemoryPerTask {
			res.MemoryPerTask = rep.MemoryBytes
		}
	}
	if cfg.OutDir != "" {
		fillOutputFiles(res, outFiles, cfg)
	}
	for _, rep := range reports {
		if rep.CCIters > res.CCIterations {
			res.CCIterations = rep.CCIters
		}
	}
	res.KmerFreqHist = make([]uint64, freqHistSize)
	for rank := range freqHists {
		for f, c := range freqHists[rank] {
			res.KmerFreqHist[f] += c
		}
	}
	// Assemble the artifact once the result is complete: the k-mer parts
	// are copied verbatim, labels and histogram come from the Result, and
	// the file appears atomically (temp + rename) only on success.
	if emit != nil {
		if err := emit.assemble(cfg, pl, res); err != nil {
			return nil, err
		}
	}
	var nonSingletonFrac float64
	if pl.idx.Reads > 0 {
		nonSingletonFrac = float64(int(pl.idx.Reads)-singletons) / float64(pl.idx.Reads)
	}
	reconcileDrift(cfg, res, nonSingletonFrac)
	if cfg.Log != nil {
		attrs := []any{
			"wall", res.Wall, "components", res.Components,
			"largest_frac", res.LargestFraction(), "step_total", res.Steps.Total(),
		}
		if res.Drift != nil {
			attrs = append(attrs, "drift_total", res.Drift.TotalRatio)
		}
		cfg.Log.InfoContext(ctx, "pipeline done", attrs...)
	}
	return res, nil
}

// stepsOf projects the step times out of the reports.
func stepsOf(reports []TaskReport) []StepTimes {
	ts := make([]StepTimes, len(reports))
	for i := range reports {
		ts[i] = reports[i].Steps
	}
	return ts
}

// memoryBytes tallies this task's planned memory per the §3.7 inventory:
// index tables (replicated), kmerOut and kmerIn, the component array p and
// the received array p′ (4R each), and the chunk read buffers — with the
// overlapped-I/O prefetcher, each thread circulates 1+PrefetchChunks
// buffers instead of one, and the inventory charges them all.
func (st *taskState) memoryBytes() int64 {
	idx := st.p.idx
	mem := idx.MemoryBytes()
	mem += st.out.memBytes()
	if st.in != nil {
		mem += st.in.memBytes()
	} else {
		// Spill mode: the receive side is budgeted, not partition-sized.
		mem += st.p.cfg.SpillBudgetBytes
	}
	mem += 2 * 4 * int64(idx.Reads)
	buffersPerThread := int64(1 + st.p.cfg.prefetchDepth())
	mem += int64(st.p.cfg.Threads) * buffersPerThread * st.maxChunkBytes
	if st.p.cfg.SparseDeltaMerge {
		// SnapshotDelta's shadow baseline (lazily allocated on senders).
		mem += 4 * int64(idx.Reads)
	}
	// The prefilter ladder (pass-1 peak; the broadcast keep bitmap is one
	// of its levels).
	mem += st.filterBytes
	return mem
}

// startOutputFetchers spins up one chunk prefetcher per thread over that
// thread's CC-I/O chunk list. Called before mergeCC when OverlapOutput is
// on, so the first prefetch-depth chunks are read while the merge tree and
// label broadcast run. The fetchers reuse the KmerGen prefetch tracks in
// the trace (the KmerGen readers are finished by now).
func (st *taskState) startOutputFetchers() []*chunkFetcher {
	cfg := st.p.cfg
	fs := make([]*chunkFetcher, cfg.Threads)
	for t := range fs {
		fs[t] = newChunkFetcher(st.p.threadChunks[st.rank][t], st.p.idx, st.files,
			cfg.prefetchDepth(), st.obs, st.rank, obsv.TidPrefetch+t)
	}
	return fs
}

// MergeLC concatenates all largest-component output files into one FASTQ
// and all remainder files into another, returning the two paths. It is a
// convenience for feeding the partitions to an assembler.
func MergeLC(res *Result, lcPath, otherPath string) error {
	if len(res.LCFiles) == 0 {
		return fmt.Errorf("core: result has no output files (OutDir was not set)")
	}
	if err := concatFiles(lcPath, res.LCFiles); err != nil {
		return err
	}
	return concatFiles(otherPath, res.OtherFiles)
}
