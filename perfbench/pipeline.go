package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/core"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/obsv"
	"metaprep/internal/simulate"
)

// pipelineShape fixes one pipeline workload: its synthetic dataset and the
// run configuration every measured repetition uses.
type pipelineShape struct {
	preset                 string
	scale                  float64
	tasks, threads, passes int
	spillBudget            int64 // per-task resident tuple cap; 0 stays in RAM
	artifact               bool  // tee a partition artifact
}

var (
	// partition is the paper's default path: everything in RAM, the
	// kernels (kmer, radix, unionfind, mpirt) do the work.
	partitionShape = pipelineShape{preset: "HG", scale: 8, tasks: 2, threads: 1, passes: 1}
	// bounded is the memory-bounded multi-pass mode on a high-diversity
	// dataset: extsort and the artifact writer do most of the work.
	boundedShape = pipelineShape{preset: "IS", scale: 0.5, tasks: 2, threads: 1, passes: 2,
		spillBudget: 32 << 20, artifact: true}
)

func runPartition(p params, o *outcome) error { return runPipeline(p, o, partitionShape) }
func runBounded(p params, o *outcome) error   { return runPipeline(p, o, boundedShape) }

// pipelineInput is one setup's product: the generated FASTQ and the labels
// of the single-task in-RAM reference run every measured run must match.
type pipelineInput struct {
	files   []string
	bytes   int64
	records int64
	reads   uint32
	tuples  uint64
	ref     []uint32
	refTime time.Duration // index.Build + core.Run at P=1 T=1 S=1
}

func indexOptions() index.Options {
	opts := index.Defaults()
	opts.Paired = true
	return opts
}

// generate writes a preset's dataset under dir with the workload's seed.
func generate(preset string, scale float64, seed int64, dir string) (*simulate.Dataset, error) {
	spec, err := simulate.Preset(preset, scale)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return simulate.Generate(spec, dir)
}

// fileBytes sums the sizes of files.
func fileBytes(files []string) (int64, error) {
	var n int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

func setupPipeline(shape pipelineShape, p params, dir string) (*pipelineInput, func(), error) {
	ds, err := generate(shape.preset, shape.scale*p.scale, p.seed, filepath.Join(dir, "in"))
	if err != nil {
		return nil, nil, err
	}
	in := &pipelineInput{files: ds.Files, records: ds.Records}
	if in.bytes, err = fileBytes(ds.Files); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	idx, err := index.Build(in.files, indexOptions())
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Run(core.Default(idx))
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	in.refTime = time.Since(start)
	in.ref, in.reads, in.tuples = res.Labels, res.Reads, res.Tuples
	return in, func() {}, nil
}

// pipelineRep is one measured repetition: FASTQ to partitioned output.
type pipelineRep struct {
	index time.Duration // index.Build
	total time.Duration // index.Build + core.Run
	cpu   time.Duration // process CPU time over total
	res   *core.Result
	obs   *obsv.Collector // nil when untraced
	peak  int64           // VmHWM over the repetition, bytes
	fixed map[string]uint64
}

func runPipeline(p params, o *outcome, shape pipelineShape) error {
	in, release, err := setupRepeated(p, o, func(dir string) (*pipelineInput, func(), error) {
		return setupPipeline(shape, p, dir)
	})
	if err != nil {
		return err
	}
	defer release()
	o.prov = map[string]any{
		"preset": shape.preset, "preset_scale": shape.scale * p.scale,
		"tasks": shape.tasks, "threads": shape.threads, "passes": shape.passes,
		"spill_budget_bytes": shape.spillBudget, "artifact_tee": shape.artifact,
		"input_bytes": in.bytes, "input_records": in.records, "reads": in.reads, "tuples": in.tuples,
	}

	var reps []pipelineRep
	var peaks []int64           // VmHWM of each repetition
	var first map[string]uint64 // deterministic counts of the first run
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < p.window; i++ {
		// A traced run alternates traced and untraced repetitions, so the
		// collector's overhead is measured in the same window.
		traced := p.trace && i%2 == 0
		o.attempted++
		if err := resetPeak(); err != nil {
			return err
		}
		rep, err := pipelineOnce(p, shape, in, i, traced)
		if err == nil {
			rep.peak, err = peakRSS()
		}
		if err != nil {
			o.fail("run %d: %v", i, err)
			continue
		}
		if first == nil {
			first = rep.fixed
		}
		if drift := countDrift(first, rep.fixed); drift != "" {
			o.fail("run %d: deterministic counts drifted: %s", i, drift)
			continue
		}
		reps = append(reps, rep)
		o.note("run %d traced=%v partition_s=%.4f index_s=%.4f steps_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f",
			i, traced, rep.total.Seconds(), rep.index.Seconds(), rep.res.Steps.Total().Seconds(),
			rep.cpu.Seconds(), float64(rep.peak)/(1<<20))
	}

	var untraced, traced []pipelineRep
	for _, r := range reps {
		if r.obs == nil {
			untraced = append(untraced, r)
		} else {
			traced = append(traced, r)
		}
	}
	var cpus []time.Duration
	for _, r := range untraced {
		o.ops = append(o.ops, r.total)
		cpus = append(cpus, r.cpu)
		peaks = append(peaks, r.peak)
	}
	slices.Sort(peaks)
	if len(peaks) > 0 {
		o.peakRSS = peaks[(len(peaks)-1)/2]
	}
	o.cpuPerOp = median(cpus)
	o.named = append(o.named, namedValue{"partition_s", "s", median(o.ops).Seconds()},
		namedValue{"ref.partition_s", "s", in.refTime.Seconds()})
	if p.trace {
		pipelineLayers(o, traced, untraced, in)
	}
	return nil
}

// pipelineOnce times one FASTQ-to-partitioned-output run and checks its
// outputs against the reference.
func pipelineOnce(p params, shape pipelineShape, in *pipelineInput, i int, traced bool) (pipelineRep, error) {
	dir := filepath.Join(p.work, fmt.Sprintf("run-%d", i))
	defer os.RemoveAll(dir)
	outDir, spillDir := filepath.Join(dir, "out"), filepath.Join(dir, "spill")
	for _, d := range []string{outDir, spillDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return pipelineRep{}, err
		}
	}
	var rep pipelineRep
	if traced {
		rep.obs = obsv.New()
	}

	cpu0, err := cpuTime()
	if err != nil {
		return rep, err
	}
	start := time.Now()
	idx, err := index.Build(in.files, indexOptions())
	if err != nil {
		return rep, fmt.Errorf("index: %w", err)
	}
	rep.index = time.Since(start)
	cfg := core.Default(idx)
	cfg.Tasks, cfg.Threads, cfg.Passes = shape.tasks, shape.threads, shape.passes
	cfg.OutDir = outDir
	if shape.spillBudget > 0 {
		// The budget scales with the dataset, so a scaled-down run still spills.
		cfg.SpillBudgetBytes = max(int64(float64(shape.spillBudget)*p.scale), core.MinSpillBudgetBytes)
		cfg.SpillDir = spillDir
	}
	if shape.artifact {
		cfg.ArtifactOut = filepath.Join(dir, "partition.mpa")
	}
	cfg.Obs = rep.obs
	res, err := core.Run(cfg)
	if err != nil {
		return rep, fmt.Errorf("core.Run: %w", err)
	}
	rep.total = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return rep, err
	}
	rep.cpu, rep.res = cpu1-cpu0, res

	if !slices.Equal(res.Labels, in.ref) {
		return rep, fmt.Errorf("labels differ from the P=1 T=1 S=1 reference")
	}
	var written int64
	for _, f := range slices.Concat(res.LCFiles, res.OtherFiles) {
		n, err := countRecords(f)
		if err != nil {
			return rep, err
		}
		written += n
	}
	if written != in.records {
		return rep, fmt.Errorf("partitioned output holds %d records, input %d", written, in.records)
	}
	if left, err := os.ReadDir(spillDir); err != nil || len(left) != 0 {
		return rep, fmt.Errorf("spill directory not empty after the run (%d entries, %v)", len(left), err)
	}

	var spilled uint64
	for _, t := range res.PerTask {
		spilled += uint64(t.SpillBytes)
	}
	rep.fixed = map[string]uint64{
		"kmer.tuples": res.Tuples, "core.edges": res.Edges, "core.components": uint64(res.Components),
		"extsort.bytes_spilled": spilled,
	}
	if shape.artifact {
		size, err := checkArtifact(cfg.ArtifactOut, res)
		if err != nil {
			return rep, err
		}
		rep.fixed["artifact.bytes_written"] = uint64(size)
	}
	if traced {
		c := counters(rep.obs)
		rep.fixed["extsort.runs"] = c["extsort/runs"]
		rep.fixed["extsort.bytes_spilled.counter"] = c["extsort/bytes_spilled"]
		if shape.artifact {
			rep.fixed["artifact.bytes_written.counter"] = c["artifact/bytes_written"]
		}
	}
	return rep, nil
}

// checkArtifact reopens the teed artifact and checks it carries the run's
// labels and tuple count; it returns the file size.
func checkArtifact(path string, res *core.Result) (int64, error) {
	ar, err := artifact.Open(path)
	if err != nil {
		return 0, err
	}
	defer ar.Close()
	labels, err := ar.Labels()
	if err != nil {
		return 0, err
	}
	if !slices.Equal(labels, res.Labels) || ar.Tuples() != res.Tuples {
		return 0, fmt.Errorf("artifact %s disagrees with the run (tuples %d, run %d)", path, ar.Tuples(), res.Tuples)
	}
	return ar.Size(), nil
}

func countRecords(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return fastq.CountRecords(f)
}

// countDrift names the deterministic counts of got that differ from want.
// Counts only one of the two carries (the traced ones) are not compared.
func countDrift(want, got map[string]uint64) string {
	var s string
	for _, k := range sortedKeys(got) {
		if w, ok := want[k]; ok && w != got[k] {
			s += fmt.Sprintf(" %s=%d (first run %d)", k, got[k], w)
		}
	}
	return s
}

// counters sums a collector's counters over ranks; peaks take the maximum.
func counters(c *obsv.Collector) map[string]uint64 {
	m := map[string]uint64{}
	for _, v := range c.Counters() {
		if v.Name == "extsort/peak_tuple_bytes" {
			m[v.Name] = max(m[v.Name], v.Value)
		} else {
			m[v.Name] += v.Value
		}
	}
	return m
}

// pipelineLayers reports the per-layer metrics of the traced repetition
// whose partition time is the median, so its step times, index build and
// residual add up to its own partition_s exactly.
func pipelineLayers(o *outcome, traced, untraced []pipelineRep, in *pipelineInput) {
	if len(traced) == 0 {
		return
	}
	slices.SortFunc(traced, func(a, b pipelineRep) int { return int(a.total - b.total) })
	r := traced[(len(traced)-1)/2]
	st := r.res.Steps
	o.layer("core.partition_s", r.total.Seconds())
	o.layer("index.build_s", r.index.Seconds())
	o.layer("kmer.gen_s", st.KmerGen.Seconds())
	o.layer("radix.sort_s", st.LocalSort.Seconds())
	o.layer("unionfind.local_cc_s", st.LocalCC.Seconds())
	o.layer("mpirt.exchange_s", st.KmerGenComm.Seconds())
	o.layer("mpirt.merge_comm_s", st.MergeComm.Seconds())
	o.layer("unionfind.merge_cc_s", st.MergeCC.Seconds())
	o.layer("fastq.read_wait_s", st.KmerGenIO.Seconds())
	o.layer("fastq.write_s", st.CCIO.Seconds())
	o.layer("core.residual_s", (r.total - r.index - st.Total()).Seconds())
	o.layer("ref.partition_s", in.refTime.Seconds())

	c := counters(r.obs)
	o.layer("fastq.bytes_read", float64(c["kmergen/bytes_read"]))
	o.layer("kmer.tuples", float64(r.res.Tuples))
	o.layer("core.edges", float64(r.res.Edges))
	o.layer("core.components", float64(r.res.Components))
	o.layer("mpirt.bytes_sent", float64(c["pipeline/bytes_sent"]))
	o.layer("radix.passes_executed", float64(c["radix/passes_executed"]))
	o.layer("radix.passes_skipped", float64(c["radix/passes_skipped"]))
	o.layer("unionfind.finds", float64(c["unionfind/finds"]))
	o.layer("unionfind.unions", float64(c["unionfind/unions"]))
	o.layer("extsort.runs", float64(c["extsort/runs"]))
	o.layer("extsort.bytes_spilled", float64(c["extsort/bytes_spilled"]))
	o.layer("extsort.peak_tuple_bytes", float64(c["extsort/peak_tuple_bytes"]))
	o.layer("artifact.bytes_written", float64(c["artifact/bytes_written"]))

	var tt, ut []time.Duration
	for _, r := range traced {
		tt = append(tt, r.total)
	}
	for _, r := range untraced {
		ut = append(ut, r.total)
	}
	if len(ut) > 0 {
		o.layer("trace.overhead_frac", float64(median(tt))/float64(median(ut))-1)
	}
}
