// Command perfbench is the repository's end-to-end benchmark. One run
// generates a workload's inputs from --seed, sets the workload up several
// times (timing each), measures it for --seconds, checks every output, and
// prints one JSON result line last:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run of the same workload reports the per-layer ones. Lines before
// the result carry the run's provenance and every figure by name with its
// unit. README.md explains the workloads and the layer → end-to-end map.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload partition --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the last line of standard output carries.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one invocation's settings.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured phase length
	trace    bool
	scale    float64 // multiplies every dataset size; 1 is the benchmark
	work     string  // scratch root, emptied on exit
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	problems          []string

	setup    []time.Duration // one per setup repetition
	peakRSS  int64           // VmHWM over the measured phase, bytes
	ops      []time.Duration // latency of each successful user operation
	cpuPerOp time.Duration   // process CPU time per successful operation

	notes  []string           // per-operation lines printed before the result
	named  []namedValue       // the figures printed by name before the result
	layers map[string]float64 // per-layer metrics (traced runs)
	prov   map[string]any     // workload parameters and input size
}

type namedValue struct {
	name, unit string
	value      float64
}

// fail records one failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// layer records a per-layer metric; its unit comes from perLayer.
func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

// perLayer lists every per-layer metric a traced run reports, on every
// workload: a layer the workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.partition_s", "s"}, {"index.build_s", "s"}, {"kmer.gen_s", "s"}, {"radix.sort_s", "s"},
	{"unionfind.local_cc_s", "s"}, {"mpirt.exchange_s", "s"}, {"mpirt.merge_comm_s", "s"},
	{"unionfind.merge_cc_s", "s"}, {"fastq.read_wait_s", "s"}, {"fastq.write_s", "s"},
	{"core.residual_s", "s"}, {"ref.partition_s", "s"},
	{"fastq.bytes_read", "bytes"}, {"kmer.tuples", "count"}, {"core.edges", "count"},
	{"core.components", "count"}, {"mpirt.bytes_sent", "bytes"}, {"radix.passes_executed", "count"},
	{"radix.passes_skipped", "count"}, {"unionfind.finds", "count"}, {"unionfind.unions", "count"},
	{"extsort.runs", "count"}, {"extsort.bytes_spilled", "bytes"}, {"extsort.peak_tuple_bytes", "bytes"},
	{"artifact.bytes_written", "bytes"},
	{"query.qps", "1/s"}, {"query.p50_ms", "ms"}, {"query.p99_ms", "ms"}, {"query.swap_s", "s"},
	{"lookup.build_s", "s"}, {"lookup.open_s", "s"}, {"lookup.keys", "count"}, {"lookup.bytes", "bytes"},
	{"lookup.probe_us", "us"}, {"server.execute_us", "us"}, {"server.codec_us", "us"},
	{"server.transport_us", "us"}, {"server.roundtrip_us", "us"}, {"server.layer_samples", "count"},
	{"server.misses", "count"}, {"server.rejected", "count"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = map[string]func(p params, o *outcome) error{
	"partition": runPartition,
	"bounded":   runBounded,
	"query":     runQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: partition, bounded or query")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	scale := fs.Float64("scale", 1, "dataset size multiplier (tests use a tiny one)")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory, removed on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload partition|bounded|query --seed N --seconds S --trace 0|1\n")
		return 2
	}
	p := params{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scale: *scale}
	err := os.MkdirAll(*work, 0o755)
	if err == nil {
		p.work, err = os.MkdirTemp(*work, p.workload+"-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(p.work)

	o := &outcome{}
	steal0, total0 := cpuStat()
	err = runWorkload(p, o)
	steal1, total1 := cpuStat()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	if len(o.ops) == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation succeeded\n", p.workload)
		for _, pr := range o.problems {
			fmt.Fprintf(stderr, "perfbench: %s\n", pr)
		}
		return 1
	}
	if total1 > total0 {
		o.prov["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := writeReport(stdout, p, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints the provenance line, the named figures and the result
// line.
func writeReport(w io.Writer, p params, o *outcome) error {
	e2e := map[string]metric{
		"setup_s":       {median(o.setup).Seconds(), "s"},
		"peak_rss_mb":   {float64(o.peakRSS) / (1 << 20), "MiB"},
		"op_p50_ms":     {millis(median(o.ops)), "ms"},
		"cpu_ms_per_op": {millis(o.cpuPerOp), "ms"},
	}
	layers := map[string]metric{}
	for _, l := range perLayer {
		layers[l.name] = metric{Value: o.layers[l.name], Unit: l.unit}
	}
	for name := range o.layers {
		if _, ok := layers[name]; !ok {
			return fmt.Errorf("layer metric %s is not in perLayer", name)
		}
	}
	prov := provenance(p)
	for k, v := range o.prov {
		prov[k] = v
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "provenance %s\n", pj)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "error_rate %.6f (%d failed of %d attempted)\n",
		float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	for i, pr := range o.problems {
		if i == 20 {
			fmt.Fprintf(w, "problem ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(w, "problem %s\n", pr)
	}
	for _, name := range sortedKeys(e2e) {
		fmt.Fprintf(w, "metric %s %.6g %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	for _, nv := range o.named {
		fmt.Fprintf(w, "metric %s %.6g %s\n", nv.name, nv.value, nv.unit)
	}
	out := e2e
	if p.trace {
		out = layers
		for _, name := range sortedKeys(layers) {
			fmt.Fprintf(w, "layer %s %.6g %s\n", name, layers[name].Value, layers[name].Unit)
		}
	}
	rj, err := json.Marshal(report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rj)
	return err
}

// setupRepeated runs setup setupReps times, each into a fresh directory
// under the run's scratch root, records each duration, and keeps the last
// repetition, releasing the others.
func setupRepeated[T any](p params, o *outcome, setup func(dir string) (T, func(), error)) (T, func(), error) {
	var (
		val     T
		release = func() {}
	)
	for i := range setupReps {
		release()
		dir := filepath.Join(p.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return val, nil, err
		}
		start := time.Now()
		v, rel, err := setup(dir)
		if err != nil {
			return val, nil, fmt.Errorf("setup: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
		val = v
		release = func() {
			rel()
			os.RemoveAll(dir)
		}
	}
	return val, release, nil
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile returns the q-quantile of ds by the nearest-rank rule (0 for an
// empty sample).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
