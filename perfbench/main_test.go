package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the result line must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the result line against BENCHMARK.json and the additivity of the
// per-layer breakdowns.
func TestSmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("peak memory is read from /proc")
	}
	s := loadSpec(t)
	if len(s.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workload), len(workloads))
	}
	for _, w := range s.Workload {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3",
					"--trace", trace, "--scale", "0.02", "--work", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Fatalf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" {
					checkAdditive(t, w.Name, r.Metrics)
				}
			})
		}
	}
}

// checkAdditive checks that a traced run's breakdown adds up to the total
// it decomposes.
func checkAdditive(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	sum := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += m[n].Value
		}
		return s
	}
	var total, parts float64
	if workload == "query" {
		total = m["server.roundtrip_us"].Value
		parts = sum("server.execute_us", "server.codec_us", "server.transport_us")
	} else {
		total = m["core.partition_s"].Value
		parts = sum("index.build_s", "fastq.read_wait_s", "kmer.gen_s", "mpirt.exchange_s", "radix.sort_s",
			"unionfind.local_cc_s", "mpirt.merge_comm_s", "unionfind.merge_cc_s", "fastq.write_s", "core.residual_s")
	}
	if total <= 0 || math.Abs(total-parts) > 1e-6*total {
		t.Errorf("%s: parts add up to %v, total %v", workload, parts, total)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "partition", "--trace", "2"},
		{"--workload", "partition", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
