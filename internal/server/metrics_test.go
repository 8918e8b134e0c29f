package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"metaprep/internal/jobs"
)

// splitSample tears one exposition line into (name, labels, value).
func splitSample(t *testing.T, line string) (name, labels, value string) {
	t.Helper()
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("malformed sample %q", line)
		}
		return line[:i], line[i+1 : j], strings.TrimSpace(line[j+1:])
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		t.Fatalf("malformed sample %q", line)
	}
	return f[0], "", f[1]
}

// familyOf maps a sample name onto its declared family: itself, or — for
// histogram families — the base of a _bucket/_sum/_count suffix.
func familyOf(name string, typ map[string]string) (family, suffix string) {
	if _, ok := typ[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typ[base] == "histogram" {
			return base, suf
		}
	}
	return "", ""
}

// extractLe splits the le pair off a bucket sample's label list, returning
// its parsed bound and the remaining labels.
func extractLe(t *testing.T, labels string) (le float64, rest string) {
	t.Helper()
	const marker = `le="`
	i := strings.Index(labels, marker)
	if i < 0 {
		t.Fatalf("bucket sample without le label: %q", labels)
	}
	end := strings.IndexByte(labels[i+len(marker):], '"')
	if end < 0 {
		t.Fatalf("unterminated le label: %q", labels)
	}
	v := labels[i+len(marker) : i+len(marker)+end]
	rest = strings.TrimSuffix(labels[:i], ",")
	if v == "+Inf" {
		return math.Inf(1), rest
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("bad le bound %q: %v", v, err)
	}
	return f, rest
}

// validateProm is the strict Prometheus text-format (0.0.4) check: every
// family declares HELP then TYPE before any sample, no family or series is
// emitted twice, every value parses, and each histogram series has strictly
// increasing le bounds, non-decreasing cumulative buckets ending at +Inf,
// with the +Inf bucket equal to _count and a _sum alongside.
func validateProm(t *testing.T, text string) {
	t.Helper()
	help := make(map[string]bool)
	typ := make(map[string]string)
	seen := make(map[string]bool)
	type hkey struct{ family, labels string }
	type bucket struct{ le, val float64 }
	buckets := make(map[hkey][]bucket)
	counts := make(map[hkey]float64)
	sums := make(map[hkey]bool)

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("HELP without text: %q", line)
			}
			if help[parts[0]] {
				t.Fatalf("duplicate HELP for %s", parts[0])
			}
			help[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			name, ty := parts[0], parts[1]
			if !help[name] {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			if _, dup := typ[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			typ[name] = ty
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			name, labels, valStr := splitSample(t, line)
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			series := name + "{" + labels + "}"
			if seen[series] {
				t.Fatalf("duplicate series %q", series)
			}
			seen[series] = true
			fam, suffix := familyOf(name, typ)
			if fam == "" {
				t.Fatalf("sample %q precedes its HELP/TYPE declaration", line)
			}
			if typ[fam] != "histogram" {
				continue
			}
			switch suffix {
			case "_bucket":
				le, rest := extractLe(t, labels)
				k := hkey{fam, rest}
				buckets[k] = append(buckets[k], bucket{le, v})
			case "_sum":
				sums[hkey{fam, labels}] = true
			case "_count":
				counts[hkey{fam, labels}] = v
			default:
				t.Fatalf("bare sample %q in histogram family %s", line, fam)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for k, bs := range buckets {
		prevLe, prevVal := math.Inf(-1), 0.0
		for _, b := range bs {
			if b.le <= prevLe {
				t.Fatalf("%s{%s}: le bounds not increasing (%v after %v)", k.family, k.labels, b.le, prevLe)
			}
			if b.val < prevVal {
				t.Fatalf("%s{%s}: cumulative bucket decreased at le=%v", k.family, k.labels, b.le)
			}
			prevLe, prevVal = b.le, b.val
		}
		if !math.IsInf(prevLe, 1) {
			t.Fatalf("%s{%s}: last bucket is not +Inf", k.family, k.labels)
		}
		c, ok := counts[k]
		if !ok {
			t.Fatalf("%s{%s}: missing _count", k.family, k.labels)
		}
		if prevVal != c {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", k.family, k.labels, prevVal, c)
		}
		if !sums[k] {
			t.Fatalf("%s{%s}: missing _sum", k.family, k.labels)
		}
	}
}

// TestMetricsStrictFormat runs a real job and a query through the daemon
// and holds the full /metrics output to the strict format check, then
// spot-checks the families the observability layer added.
func TestMetricsStrictFormat(t *testing.T) {
	idxPath := buildIndexFile(t, 41)
	dir := t.TempDir()
	kms, _ := writeQueryArtifact(t, filepath.Join(dir, "q.mpa"), 60, 0, 3)
	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "serve"), Artifact: filepath.Join(dir, "q.mpa")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	srv, _ := newTestServer(t, jobs.Options{}, Options{OrphansSwept: 7, Query: tier})
	if resp, data := postJSON(t, srv.URL+"/query", fmt.Sprintf(`{"kmers":[%q]}`, kms[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}

	resp, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index":%q,"tasks":2,"threads":2}`, idxPath))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollDone(t, srv.URL, sub.ID); st.State != jobs.Done {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	// The terminal observation runs just after the done signal; poll until
	// the run histogram has the job.
	var text string
	deadline := 50
	for ; deadline > 0; deadline-- {
		r, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		text = string(b)
		if strings.Contains(text, "metaprepd_job_run_seconds_count 1") {
			break
		}
	}
	if deadline == 0 {
		t.Fatalf("job never observed in run histogram:\n%s", text)
	}

	validateProm(t, text)

	for _, want := range []string{
		"metaprepd_orphans_swept_total 7\n",
		"metaprepd_traces_dumped_total 0\n",
		`metaprepd_job_queue_seconds_bucket{le="+Inf"} 1`,
		`metaprepd_job_total_seconds_count 1`,
		`metaprepd_step_seconds_bucket{step="KmerGen",le="+Inf"}`,
		`metaprepd_step_seconds_bucket{step="LocalSort",le="+Inf"}`,
		`metaprepd_model_drift_ratio{step="KmerGen"}`,
		`metaprepd_model_drift_ratio{step="total"}`,
		`metaprepd_model_drift_ratio{step="wire"}`,
		`metaprepd_model_drift_ratio{step="spill"}`,
		`metaprepd_jobs{state="done"} 1`,
		"metaprepd_job_counter{",
		`metaprepd_query_phase_seconds_bucket{phase="decode",le="+Inf"} 1`,
		`metaprepd_query_phase_seconds_count{phase="execute"} 1`,
		`metaprepd_query_phase_seconds_sum{phase="encode"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Drift ratios are ε-smoothed: every exported ratio must be a positive
	// finite number.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "metaprepd_model_drift_ratio{") {
			continue
		}
		_, _, valStr := splitSample(t, line)
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			t.Errorf("drift ratio not positive finite: %q", line)
		}
	}
}

// TestMetricsBucketGolden pins the exported le labels: these are scraped
// boundaries — changing them breaks continuity of every deployed dashboard,
// so a change here must be deliberate.
func TestMetricsBucketGolden(t *testing.T) {
	les := histBucketLabels()
	if len(les) != 37 {
		t.Fatalf("%d le labels, want 37", len(les))
	}
	for i, want := range map[int]string{
		0:  "1e-06",
		1:  "2e-06",
		5:  "3.2e-05",
		10: "0.001024",
		20: "1.048576",
		35: "34359.738368",
		36: "+Inf",
	} {
		if les[i] != want {
			t.Errorf("le[%d] = %q, want %q", i, les[i], want)
		}
	}
}

// TestTraceEndpoint fetches a completed job's flight-recorder dump over
// HTTP and checks shape and the 404 path.
func TestTraceEndpoint(t *testing.T) {
	idxPath := buildIndexFile(t, 42)
	srv, _ := newTestServer(t, jobs.Options{}, Options{})

	resp, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index":%q,"tasks":2,"threads":2}`, idxPath))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollDone(t, srv.URL, sub.ID); st.State != jobs.Done {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	r, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", r.StatusCode, body)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type %q", ct)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans, metaSeen := 0, false
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			metaSeen = true
			if spans > 0 {
				t.Fatal("metadata event after the first span")
			}
		case "X":
			spans++
		}
	}
	if !metaSeen || spans == 0 {
		t.Fatalf("trace has meta=%v spans=%d", metaSeen, spans)
	}
	if trace.OtherData["ring_capacity"] == nil {
		t.Fatal("trace missing flight-recorder provenance (ring_capacity)")
	}

	if r, err := http.Get(srv.URL + "/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job trace: %d, want 404", r.StatusCode)
		}
	}
}
