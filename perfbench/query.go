package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/core"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/jobs"
	"metaprep/internal/kmer"
	"metaprep/internal/lookup"
	"metaprep/internal/server"
)

// The query workload: a closed loop of queryClients callers, each waiting
// for its answer before posting the next batch, against the query tier
// serving an artifact built in setup, while the benchmark hot-swaps the
// served artifact querySwaps times.
const (
	queryPreset     = "HG"
	queryScale      = 8   // the served artifact's dataset
	queryDeltaScale = 0.5 // the reads merged into the second artifact
	queryClients    = 2
	queryPool       = 1024 // distinct request bodies, drawn at random
	batchKmers      = 64   // k-mers in a k-mer request
	batchReads      = 8    // reads in a read request (1 request in 4)
	absentOneIn     = 10   // 1 k-mer in 10 is absent from both artifacts
	querySwaps      = 4
	swapTimeout     = 15 * time.Second
	followedKey     = "perfbench"
)

// answers is one artifact's expected response to a request.
type answers struct {
	kmers []server.KmerAnswer
	seqs  []server.SequenceAnswer
}

// queryRequest is one request of the pool with its expected answers under
// each artifact the tier may be serving, keyed by the response's source.
type queryRequest struct {
	body   []byte
	req    server.QueryRequest
	expect map[string]answers
}

// table is an artifact's k-mer → (label, multiplicity) map, read through
// artifact.Reader, sorted by key.
type table struct {
	keys   []uint64
	labels []uint32
	counts []uint32
}

func (t *table) get(key uint64) (label, count uint32, ok bool) {
	i, ok := slices.BinarySearch(t.keys, key)
	if !ok {
		return 0, 0, false
	}
	return t.labels[i], t.counts[i], true
}

// queryEnv is what the query setup leaves running.
type queryEnv struct {
	dir       string
	artifacts [2]string // base, delta-merged
	k         int
	pool      []queryRequest
	tier      *server.QueryTier
	url       string
	client    *http.Client
	inBytes   int64
	reads     uint32
	tuples    uint64
	keys      [2]int
}

func setupQuery(p params, dir string) (*queryEnv, func(), error) {
	env := &queryEnv{dir: dir}
	base, merged := filepath.Join(dir, "base.mpa"), filepath.Join(dir, "merged.mpa")
	env.artifacts = [2]string{base, merged}

	// The served partition: the paper's default run, teeing its artifact.
	ds, err := generate(queryPreset, queryScale*p.scale, p.seed, filepath.Join(dir, "in"))
	if err != nil {
		return nil, nil, err
	}
	idx, err := index.Build(ds.Files, indexOptions())
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Default(idx)
	cfg.Tasks, cfg.ArtifactOut = 2, base
	res, err := core.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("base partition: %w", err)
	}
	env.k, env.reads, env.tuples = idx.Opts.K, res.Reads, res.Tuples
	if env.inBytes, err = fileBytes(ds.Files); err != nil {
		return nil, nil, err
	}

	// The second artifact: new reads merged into the base incrementally.
	dds, err := generate(queryPreset, queryDeltaScale*p.scale, p.seed+1, filepath.Join(dir, "delta"))
	if err != nil {
		return nil, nil, err
	}
	didx, err := index.Build(dds.Files, indexOptions())
	if err != nil {
		return nil, nil, err
	}
	dcfg := core.Default(didx)
	dcfg.Tasks, dcfg.ArtifactIn, dcfg.ArtifactDelta, dcfg.ArtifactOut = 2, base, true, merged
	if _, err := core.Run(dcfg); err != nil {
		return nil, nil, fmt.Errorf("delta merge: %w", err)
	}

	tables := map[string]*table{}
	for i, path := range env.artifacts {
		t, err := loadTable(path)
		if err != nil {
			return nil, nil, err
		}
		tables[filepath.Base(path)] = t
		env.keys[i] = len(t.keys)
	}
	seqs, err := sampleReads(ds.Files[0], 4096, p.seed)
	if err != nil {
		return nil, nil, err
	}
	if env.pool, err = requestPool(p.seed, env.k, tables, tables[filepath.Base(base)], seqs); err != nil {
		return nil, nil, err
	}

	env.tier, err = server.NewQueryTier(server.QueryOptions{
		Dir: filepath.Join(dir, "serve"), Artifact: base, Key: followedKey,
	})
	if err != nil {
		return nil, nil, err
	}
	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.tier.Close()
		mgr.Stop()
		return nil, nil, err
	}
	hs := &http.Server{Handler: server.New(mgr, server.Options{Query: env.tier})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	env.url = "http://" + ln.Addr().String()
	transport := &http.Transport{MaxIdleConnsPerHost: queryClients, DisableCompression: true}
	env.client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	release := func() {
		transport.CloseIdleConnections()
		hs.Close()
		<-served
		env.tier.Close()
		mgr.Stop()
	}
	return env, release, nil
}

// loadTable reads a partition artifact's sorted tuple stream into a table:
// each key maps to the label of its first read and its tuple count, the
// mapping the lookup file is specified to hold.
func loadTable(path string) (*table, error) {
	ar, err := artifact.Open(path)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	if ar.Meta().Wide {
		return nil, fmt.Errorf("%s: 128-bit keys are not used by this workload", path)
	}
	labels, err := ar.Labels()
	if err != nil {
		return nil, err
	}
	st, err := ar.Kmers()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	t := &table{}
	for {
		_, lo, val, ok, err := st.Next()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			return t, nil
		}
		if n := len(t.keys); n > 0 && t.keys[n-1] == lo {
			t.counts[n-1]++
			continue
		}
		if int(val) >= len(labels) {
			return nil, fmt.Errorf("%s: read %d outside the label map", path, val)
		}
		t.keys = append(t.keys, lo)
		t.labels = append(t.labels, labels[val])
		t.counts = append(t.counts, 1)
	}
}

// sampleReads keeps n read sequences of a FASTQ file, chosen by reservoir
// sampling from the seed.
func sampleReads(path string, n int, seed int64) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(seed))
	r := fastq.NewReader(f)
	var out []string
	for seen := 0; ; seen++ {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(out) < n {
			out = append(out, string(rec.Seq))
		} else if j := rng.Intn(seen + 1); j < n {
			out[j] = string(rec.Seq)
		}
	}
}

// requestPool builds the workload's requests: 3 in 4 carry batchKmers
// k-mers (1 in absentOneIn absent from every artifact), the rest batchReads
// reads of the dataset. Each carries its expected answers per artifact.
func requestPool(seed int64, k int, tables map[string]*table, base *table, seqs []string) ([]queryRequest, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x51ed))
	absent := func() string {
		for {
			var km kmer.Kmer64
			for range k {
				km = km<<2 | kmer.Kmer64(rng.Intn(4))
			}
			key := uint64(kmer.Canonical64(km, k))
			if !present(tables, key) {
				return kmer.String64(kmer.Kmer64(key), k)
			}
		}
	}
	pool := make([]queryRequest, queryPool)
	for i := range pool {
		var req server.QueryRequest
		if i%4 == 3 {
			for range batchReads {
				req.Sequences = append(req.Sequences, seqs[rng.Intn(len(seqs))])
			}
		} else {
			for range batchKmers {
				if rng.Intn(absentOneIn) == 0 {
					req.Kmers = append(req.Kmers, absent())
				} else {
					key := base.keys[rng.Intn(len(base.keys))]
					req.Kmers = append(req.Kmers, kmer.String64(kmer.Kmer64(key), k))
				}
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q := queryRequest{body: body, req: req, expect: map[string]answers{}}
		for name, t := range tables {
			q.expect[name] = expected(t, k, req)
		}
		pool[i] = q
	}
	return pool, nil
}

func present(tables map[string]*table, key uint64) bool {
	for _, t := range tables {
		if _, _, ok := t.get(key); ok {
			return true
		}
	}
	return false
}

// expected answers a request from an artifact's table: a k-mer's label and
// multiplicity, and per sequence the majority label over its found
// canonical k-mers (ties to the lower label).
func expected(t *table, k int, req server.QueryRequest) answers {
	var a answers
	for _, s := range req.Kmers {
		km, _ := kmer.Encode64([]byte(s))
		label, count, ok := t.get(uint64(kmer.Canonical64(km, k)))
		a.kmers = append(a.kmers, server.KmerAnswer{Label: label, Count: count, Found: ok})
	}
	for _, s := range req.Sequences {
		votes := map[uint32]int{}
		var sa server.SequenceAnswer
		kmer.ForEach64([]byte(s), k, func(_ int, km kmer.Kmer64) {
			sa.Kmers++
			if label, _, ok := t.get(uint64(km)); ok {
				sa.Hits++
				votes[label]++
			}
		})
		best := -1
		for label, n := range votes {
			if n > best || (n == best && label < sa.Label) {
				sa.Label, best = label, n
			}
		}
		sa.Found = sa.Hits > 0
		a.seqs = append(a.seqs, sa)
	}
	return a
}

// check compares a response with the answers of the artifact it names.
func (q *queryRequest) check(resp *server.QueryResponse) error {
	want, ok := q.expect[resp.Source]
	if !ok {
		return fmt.Errorf("response names unknown source %q", resp.Source)
	}
	if !slices.Equal(resp.Kmers, want.kmers) {
		return fmt.Errorf("k-mer answers differ from artifact %s", resp.Source)
	}
	if !slices.Equal(resp.Sequences, want.seqs) {
		return fmt.Errorf("read answers differ from artifact %s", resp.Source)
	}
	return nil
}

// post sends one request body and decodes the answer.
func (env *queryEnv) post(body []byte) (*server.QueryResponse, error) {
	resp, err := env.client.Post(env.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &qr, nil
}

func runQuery(p params, o *outcome) error {
	env, release, err := setupRepeated(p, o, func(dir string) (*queryEnv, func(), error) {
		return setupQuery(p, dir)
	})
	if err != nil {
		return err
	}
	defer release()
	o.prov = map[string]any{
		"preset": queryPreset, "preset_scale": queryScale * p.scale, "delta_scale": queryDeltaScale * p.scale,
		"clients": queryClients, "batch_kmers": batchKmers, "batch_reads": batchReads,
		"absent_one_in": absentOneIn, "swaps": querySwaps,
		"input_bytes": env.inBytes, "reads": env.reads, "tuples": env.tuples,
		"keys_base": env.keys[0], "keys_merged": env.keys[1],
	}

	window := p.window
	if p.trace {
		window = p.window * 7 / 10 // the rest decomposes a request by layer
	}
	releaseSetup()
	if err := resetPeak(); err != nil {
		return err
	}
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	lr := queryLoad(env, o, p.seed, window)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	if o.peakRSS, err = peakRSS(); err != nil {
		return err
	}
	o.ops = lr.rts
	// Clients, server and the swaps' rebuilds share the process, so this
	// is the whole loop's CPU cost of an answer.
	o.cpuPerOp = (cpu1 - cpu0) / time.Duration(max(len(o.ops), 1))
	p50, p99 := quantile(o.ops, 0.50), quantile(o.ops, 0.99)
	qps := float64(len(o.ops)) / lr.wall.Seconds()
	swap := median(lr.swaps)
	o.named = append(o.named,
		namedValue{"query_qps", "1/s", qps},
		namedValue{"query_p50_ms", "ms", millis(p50)},
		namedValue{"query_p99_ms", "ms", millis(p99)},
		namedValue{"swap_s", "s", swap.Seconds()},
		namedValue{"query_samples", "count", float64(len(o.ops))},
		namedValue{"query_cpu_us_per_answer", "us", micros(o.cpuPerOp)})
	if !p.trace {
		return nil
	}
	o.layer("query.qps", qps)
	o.layer("query.p50_ms", millis(p50))
	o.layer("query.p99_ms", millis(p99))
	o.layer("query.swap_s", swap.Seconds())
	// No tracer runs on the query path: the tier takes no collector.
	o.layer("trace.overhead_frac", 0)
	return queryLayers(env, o, p.window-window)
}

// loadResult is what the closed loop measured.
type loadResult struct {
	rts   []time.Duration // round trips of the answered requests
	swaps []time.Duration // commit until the tier reports the swap
	wall  time.Duration
}

// queryLoad runs the closed loop for window while committing the two
// artifacts alternately.
func queryLoad(env *queryEnv, o *outcome, seed int64, window time.Duration) loadResult {
	var (
		mu sync.Mutex
		lr loadResult
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := range queryClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*queryClients + int64(c)))
			var rts []time.Duration
			var attempted, failed int64
			var problems []string
			for i := 0; time.Now().Before(deadline); i++ {
				q := &env.pool[rng.Intn(len(env.pool))]
				attempted++
				t0 := time.Now()
				resp, err := env.post(q.body)
				d := time.Since(t0)
				if err == nil {
					err = q.check(resp)
				}
				if err != nil {
					failed++
					problems = append(problems, fmt.Sprintf("client %d request %d: %v", c, i, err))
					continue
				}
				rts = append(rts, d)
			}
			mu.Lock()
			defer mu.Unlock()
			lr.rts = append(lr.rts, rts...)
			o.attempted += attempted
			o.failed += failed
			o.problems = append(o.problems, problems...)
		}()
	}

	// The writer: a few hot swaps spread over the window, alternating the
	// delta-merged and the base artifact.
	for i := range querySwaps {
		time.Sleep(time.Until(start.Add(window * time.Duration(i+1) / (querySwaps + 1))))
		before := env.tier.Swaps()
		t0 := time.Now()
		env.tier.ArtifactCommitted(followedKey, env.artifacts[(i+1)%2])
		for env.tier.Swaps() == before && time.Since(t0) < swapTimeout {
			time.Sleep(time.Millisecond)
		}
		d := time.Since(t0)
		mu.Lock()
		o.attempted++
		if env.tier.Swaps() == before {
			o.fail("swap %d: tier did not swap within %v", i, swapTimeout)
		} else {
			lr.swaps = append(lr.swaps, d)
		}
		mu.Unlock()
	}
	wg.Wait()
	lr.wall = time.Since(start)
	return lr
}

// queryLayers decomposes a request serially, calling each layer's public
// entry point on the workload's own batches for budget: lookup.Build and
// lookup.Open on the base artifact, Batcher.Run (probe), QueryTier.Execute,
// the handler's JSON codec, and the HTTP round trip. Transport is the round
// trip less execute and codec, so the three add up to the round trip.
func queryLayers(env *queryEnv, o *outcome, budget time.Duration) error {
	var builds, opens []time.Duration
	var lk *lookup.Lookup
	for i := range 3 {
		ar, err := artifact.Open(env.artifacts[0])
		if err != nil {
			return err
		}
		path := filepath.Join(env.dir, fmt.Sprintf("layers-%d.mplk", i))
		t0 := time.Now()
		_, err = lookup.Build(ar, path, lookup.BuildOptions{})
		builds = append(builds, time.Since(t0))
		ar.Close()
		if err != nil {
			return err
		}
		t0 = time.Now()
		l, err := lookup.Open(path)
		opens = append(opens, time.Since(t0))
		if err != nil {
			return err
		}
		o.attempted++
		if l.Keys() != uint64(env.keys[0]) {
			o.fail("lookup build %d: %d keys, artifact table %d", i, l.Keys(), env.keys[0])
		}
		if lk != nil {
			lk.Close()
		}
		lk = l
	}
	defer lk.Close()
	o.layer("lookup.build_s", median(builds).Seconds())
	o.layer("lookup.open_s", median(opens).Seconds())
	o.layer("lookup.keys", float64(lk.Keys()))
	o.layer("lookup.bytes", float64(lk.Size()))

	// Probe: the batches the tier's Execute hands the batcher — all k-mers
	// of a k-mer request, one batch per read. A first pass over the pool
	// faults the fresh lookup's pages in, as serving has for the tier's.
	b := lookup.NewBatcher(0)
	defer b.Close()
	batches := make([][][]uint64, len(env.pool))
	var out []lookup.Result
	probeOnce := func(i int) time.Duration {
		var d time.Duration
		for _, keys := range batches[i] {
			out = slices.Grow(out[:0], len(keys))[:len(keys)]
			t0 := time.Now()
			b.Run(lk, nil, keys, out)
			d += time.Since(t0)
		}
		return d
	}
	for i := range env.pool {
		batches[i] = probeBatches(env.pool[i].req, env.k)
		probeOnce(i)
	}

	var probe, exec, codec, rt []time.Duration
	var buf bytes.Buffer
	deadline := time.Now().Add(budget)
	for i := 0; i < len(env.pool) && (i < 16 || time.Now().Before(deadline)); i++ {
		q := &env.pool[i]
		probe = append(probe, probeOnce(i))

		t0 := time.Now()
		var req server.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(q.body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		dDecode := time.Since(t0)
		if err != nil {
			return fmt.Errorf("decode request: %w", err)
		}
		t0 = time.Now()
		resp, _, err := env.tier.Execute(req)
		exec = append(exec, time.Since(t0))
		if err != nil {
			return fmt.Errorf("execute: %w", err)
		}
		buf.Reset()
		t0 = time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		codec = append(codec, dDecode+time.Since(t0))
		if err != nil {
			return err
		}

		o.attempted++
		t0 = time.Now()
		hresp, err := env.post(q.body)
		rt = append(rt, time.Since(t0))
		if err == nil {
			err = q.check(hresp)
		}
		if err != nil {
			o.fail("layer request %d: %v", i, err)
		}
	}
	o.layer("lookup.probe_us", micros(mean(probe)))
	o.layer("server.execute_us", micros(mean(exec)))
	o.layer("server.codec_us", micros(mean(codec)))
	o.layer("server.roundtrip_us", micros(mean(rt)))
	o.layer("server.transport_us", micros(mean(rt)-mean(exec)-mean(codec)))
	o.layer("server.layer_samples", float64(len(rt)))

	m, err := scrapeMetrics(env)
	if err != nil {
		return err
	}
	o.layer("server.misses", m["metaprepd_query_misses_total"])
	o.layer("server.rejected", m["metaprepd_query_rejected_total"])
	return nil
}

// probeBatches lists the canonical keys Execute probes for a request, in
// the batches it probes them: one for the k-mers, one per read.
func probeBatches(req server.QueryRequest, k int) [][]uint64 {
	var out [][]uint64
	if len(req.Kmers) > 0 {
		var ks []uint64
		for _, s := range req.Kmers {
			km, _ := kmer.Encode64([]byte(s))
			ks = append(ks, uint64(kmer.Canonical64(km, k)))
		}
		out = append(out, ks)
	}
	for _, s := range req.Sequences {
		var ks []uint64
		kmer.ForEach64([]byte(s), k, func(_ int, km kmer.Kmer64) { ks = append(ks, uint64(km)) })
		out = append(out, ks)
	}
	return out
}

// scrapeMetrics reads the query tier's unlabelled counters from GET
// /metrics.
func scrapeMetrics(env *queryEnv) (map[string]float64, error) {
	resp, err := env.client.Get(env.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "metaprepd_query_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, nil
}
