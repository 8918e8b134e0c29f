package server

// query.go is the high-QPS read path (ROADMAP item 5): POST /query answers
// component-label lookups for batches of k-mers or raw sequences from a
// memory-mapped lookup file (internal/lookup) built out of a partition
// artifact. The tier hot-swaps the served lookup when the artifact store
// admits a newer artifact for the followed key, admission-controls bursts
// with the jobs-layer 429 machinery, and reports latency through obsv log2
// histograms (metaprepd_query_seconds, and metaprepd_query_phase_seconds
// split into decode, execute and encode).

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/jobs"
	"metaprep/internal/kmer"
	"metaprep/internal/lookup"
	"metaprep/internal/obsv"
)

// QueryOptions configures the query tier.
type QueryOptions struct {
	// Dir is where built lookup files (.mplk) are written (required).
	Dir string
	// Artifact, when set, is served from startup: a .mpa is converted to a
	// lookup first, a .mplk is mapped in place. Startup fails if it cannot
	// be served.
	Artifact string
	// Key is the artifact-store name to follow for hot swap: every time
	// the store admits an artifact committed under this name, the tier
	// rebuilds and atomically swaps the served lookup. The special value
	// "auto" adopts the first committed partition artifact ("p-…") and
	// follows that name from then on. Empty disables auto swap.
	Key string
	// Shards is the lookup build shard count (default lookup.DefaultShards).
	Shards int
	// MaxBatch bounds the k-mers probed per request (default 8192): every
	// listed k-mer plus each sequence's len−k+1 windows. A larger request
	// is rejected with 400 before any probe scratch grows.
	MaxBatch int
	// MaxConcurrent bounds requests in flight; excess is rejected with 429
	// + Retry-After, reusing the jobs-layer admission contract (default 64).
	MaxConcurrent int
	// Logger receives swap and rebuild records. Nil logs nothing.
	Logger *slog.Logger
}

// QueryTier owns the served lookup, its swap lifecycle, admission gate and
// metrics. Create with NewQueryTier, hand to server.Options.Query, wire
// ArtifactCommitted into jobs.Options.OnArtifactCommit, and Close on
// shutdown.
type QueryTier struct {
	opts QueryOptions
	lg   *slog.Logger

	swap *lookup.Swapper
	sem  chan struct{}
	hist *obsv.Histogram
	// Answered requests' phases: body decode, Execute, response encode
	// and write (metaprepd_query_phase_seconds).
	decodeHist, executeHist, encodeHist *obsv.Histogram

	queries  atomic.Uint64
	kmers    atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
	swaps    atomic.Uint64

	keyMu sync.Mutex
	key   string // followed store key; "auto" until adopted, "" = disabled

	rebuildC chan string
	quit     chan struct{}
	wg       sync.WaitGroup
	prevFile string // lookup file of the previous epoch, removed on swap
	buildSeq atomic.Uint64

	scratch sync.Pool
}

// queryScratch holds one request's probe keys and results: the k-mers
// first, then every sequence's windows, with ends[i] closing sequence i.
type queryScratch struct {
	hi, lo []uint64
	res    []lookup.Result
	ends   []int
	labs   []uint32
}

// NewQueryTier builds the tier and, when opts.Artifact is set, serves it
// synchronously before returning (so a daemon flagged to serve fails fast
// on a bad artifact).
func NewQueryTier(opts QueryOptions) (*QueryTier, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("query tier: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = lookup.DefaultShards
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8192
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 64
	}
	t := &QueryTier{
		opts:        opts,
		lg:          opts.Logger,
		swap:        lookup.NewSwapper(),
		sem:         make(chan struct{}, opts.MaxConcurrent),
		hist:        obsv.NewHistogram(),
		decodeHist:  obsv.NewHistogram(),
		executeHist: obsv.NewHistogram(),
		encodeHist:  obsv.NewHistogram(),
		key:         opts.Key,
		rebuildC:    make(chan string, 1),
		quit:        make(chan struct{}),
	}
	t.scratch.New = func() any { return new(queryScratch) }
	if opts.Artifact != "" {
		lk, file, err := t.buildLookup(opts.Artifact)
		if err != nil {
			return nil, err
		}
		t.swap.Swap(lk)
		t.swaps.Add(1)
		t.prevFile = file
		if t.lg != nil {
			t.lg.Info("query tier serving", "source", lk.Meta().Source,
				"keys", lk.Keys(), "shards", lk.Shards(), "bytes", lk.Size())
		}
	}
	t.wg.Add(1)
	go t.rebuildLoop()
	return t, nil
}

// buildLookup turns src (.mpa or .mplk) into an open Lookup. For
// artifacts it runs the offline builder into Dir under a unique name and
// returns that file's path so the swap loop can unlink the previous
// generation (the mapping keeps the old file alive until its epoch
// drains). For .mplk inputs the file is served in place ("" path: never
// unlinked).
func (t *QueryTier) buildLookup(src string) (*lookup.Lookup, string, error) {
	if strings.HasSuffix(src, ".mplk") {
		lk, err := lookup.Open(src)
		return lk, "", err
	}
	ar, err := artifact.Open(src)
	if err != nil {
		return nil, "", err
	}
	defer ar.Close()
	base := strings.TrimSuffix(filepath.Base(src), ".mpa")
	out := filepath.Join(t.opts.Dir, fmt.Sprintf("%s.%d.mplk", base, t.buildSeq.Add(1)))
	if _, err := lookup.Build(ar, out, lookup.BuildOptions{Shards: t.opts.Shards}); err != nil {
		return nil, "", err
	}
	lk, err := lookup.Open(out)
	if err != nil {
		os.Remove(out)
		return nil, "", err
	}
	return lk, out, nil
}

// ArtifactCommitted is the jobs.Options.OnArtifactCommit hook: when the
// committed name matches the followed key (or adopts it under "auto"), the
// artifact is queued for an asynchronous rebuild + hot swap. Queueing
// coalesces — only the newest pending artifact is built.
func (t *QueryTier) ArtifactCommitted(name, path string) {
	t.keyMu.Lock()
	key := t.key
	if key == "auto" && strings.HasPrefix(name, "p-") {
		t.key = name
		key = name
		if t.lg != nil {
			t.lg.Info("query tier adopted artifact key", "key", name)
		}
	}
	t.keyMu.Unlock()
	if key == "" || name != key {
		return
	}
	select {
	case <-t.rebuildC: // drop a stale pending build
	default:
	}
	select {
	case t.rebuildC <- path:
	default:
	}
}

// FollowedKey returns the store key the tier currently follows.
func (t *QueryTier) FollowedKey() string {
	t.keyMu.Lock()
	defer t.keyMu.Unlock()
	return t.key
}

// Swaps returns how many times a lookup has been (re)published.
func (t *QueryTier) Swaps() uint64 { return t.swaps.Load() }

func (t *QueryTier) rebuildLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case p := <-t.rebuildC:
			start := time.Now()
			lk, file, err := t.buildLookup(p)
			if err != nil {
				if t.lg != nil {
					t.lg.Warn("query tier rebuild failed", "artifact", p, "err", err)
				}
				continue
			}
			t.swap.Swap(lk)
			t.swaps.Add(1)
			if t.prevFile != "" && t.prevFile != file {
				// Safe while the old epoch still maps it: the mapping pins
				// the inode until the last in-flight query drains.
				os.Remove(t.prevFile)
			}
			t.prevFile = file
			if t.lg != nil {
				t.lg.Info("query tier swapped", "source", lk.Meta().Source,
					"keys", lk.Keys(), "build", time.Since(start))
			}
		}
	}
}

// Close stops the rebuild loop and unpublishes the served lookup (closing
// it once in-flight queries drain).
func (t *QueryTier) Close() {
	close(t.quit)
	t.wg.Wait()
	t.swap.Stop()
}

// QueryRequest is the POST /query body: a batch of exact k-mers (length
// must equal the served k) and/or raw sequences (each scanned into its
// canonical k-mers). Siblings additionally reports, per found k-mer, how
// many other distinct k-mers share its multiplicity (from the artifact's
// frequency histogram).
type QueryRequest struct {
	Kmers     []string `json:"kmers,omitempty"`
	Sequences []string `json:"sequences,omitempty"`
	Siblings  bool     `json:"siblings,omitempty"`
}

// KmerAnswer is one k-mer's result.
type KmerAnswer struct {
	Label    uint32 `json:"label"`
	Count    uint32 `json:"count"`
	Found    bool   `json:"found"`
	Siblings uint64 `json:"siblings,omitempty"`
}

// SequenceAnswer aggregates one sequence: the majority component label
// over its found k-mers, how many k-mers were scanned and how many hit.
type SequenceAnswer struct {
	Label uint32 `json:"label"`
	Found bool   `json:"found"`
	Kmers int    `json:"kmers"`
	Hits  int    `json:"hits"`
}

// QueryResponse answers POST /query.
type QueryResponse struct {
	// Source is the artifact the served lookup was built from; Epoch the
	// hot-swap generation that answered (monotonic per process).
	Source    string           `json:"source"`
	Epoch     uint64           `json:"epoch"`
	K         int              `json:"k"`
	Keys      uint64           `json:"keys"`
	Kmers     []KmerAnswer     `json:"kmers,omitempty"`
	Sequences []SequenceAnswer `json:"sequences,omitempty"`
}

// Execute runs one query batch against the pinned current epoch, on the
// caller's goroutine: it gathers the canonical keys of every k-mer and of
// every sequence window, probes them in one pass, then slices the results
// per sequence for the majority vote. It returns the HTTP status to use on
// error.
func (t *QueryTier) Execute(req QueryRequest) (*QueryResponse, int, error) {
	if len(req.Kmers)+len(req.Sequences) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("empty query: provide kmers or sequences")
	}
	ep, ok := t.swap.Acquire()
	if !ok {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("no artifact is being served")
	}
	defer ep.Release()
	lk := ep.Lookup()
	m := lk.Meta()

	// Bound the probe work before any scratch grows: a sequence of length
	// L scans at most L−k+1 windows.
	n := len(req.Kmers)
	for _, seq := range req.Sequences {
		n += max(0, len(seq)-m.K+1)
	}
	if n > t.opts.MaxBatch {
		return nil, http.StatusBadRequest,
			fmt.Errorf("batch of %d k-mers (sequences count len-k+1 windows) exceeds max_batch %d", n, t.opts.MaxBatch)
	}

	sc := t.scratch.Get().(*queryScratch)
	defer t.scratch.Put(sc)
	sc.grow(n)
	for i, ks := range req.Kmers {
		if len(ks) != m.K {
			return nil, http.StatusBadRequest,
				fmt.Errorf("kmers[%d]: length %d, want k=%d", i, len(ks), m.K)
		}
		if !encodeCanonical(ks, m.K, m.Wide, &sc.hi[i], &sc.lo[i]) {
			return nil, http.StatusBadRequest,
				fmt.Errorf("kmers[%d]: invalid base (ACGT only)", i)
		}
	}
	n = len(req.Kmers)
	sc.ends = sc.ends[:0]
	for _, seq := range req.Sequences {
		if m.Wide {
			kmer.ForEach128([]byte(seq), m.K, func(_ int, km kmer.Kmer128) {
				sc.hi[n], sc.lo[n] = km.Hi, km.Lo
				n++
			})
		} else {
			kmer.ForEach64([]byte(seq), m.K, func(_ int, km kmer.Kmer64) {
				sc.hi[n], sc.lo[n] = 0, uint64(km)
				n++
			})
		}
		sc.ends = append(sc.ends, n)
	}
	var hi []uint64
	if m.Wide {
		hi = sc.hi[:n]
	}
	res := sc.res[:n]
	lk.GetBatch(hi, sc.lo[:n], res)

	resp := &QueryResponse{Source: m.Source, Epoch: ep.Seq(), K: m.K, Keys: m.Keys}
	var misses uint64
	if len(req.Kmers) > 0 {
		resp.Kmers = make([]KmerAnswer, len(req.Kmers))
		for i, r := range res[:len(req.Kmers)] {
			a := KmerAnswer{Label: r.Label, Count: r.Count, Found: r.Found}
			if req.Siblings && r.Found {
				a.Siblings = siblings(lk.Hist(), r.Count)
			}
			if !r.Found {
				misses++
			}
			resp.Kmers[i] = a
		}
	}
	if len(req.Sequences) > 0 {
		resp.Sequences = make([]SequenceAnswer, len(req.Sequences))
		start := len(req.Kmers)
		for si, end := range sc.ends {
			ans := SequenceAnswer{Kmers: end - start}
			sc.labs = sc.labs[:0]
			for _, r := range res[start:end] {
				if r.Found {
					sc.labs = append(sc.labs, r.Label)
				} else {
					misses++
				}
			}
			ans.Hits = len(sc.labs)
			if ans.Hits > 0 {
				ans.Found = true
				ans.Label = majorityLabel(sc.labs)
			}
			resp.Sequences[si] = ans
			start = end
		}
	}

	t.kmers.Add(uint64(n))
	t.misses.Add(misses)
	return resp, 0, nil
}

// grow sizes the key and result scratch to n entries.
func (sc *queryScratch) grow(n int) {
	if cap(sc.lo) < n {
		sc.hi = make([]uint64, n)
		sc.lo = make([]uint64, n)
		sc.res = make([]lookup.Result, n)
	}
	sc.hi = sc.hi[:n]
	sc.lo = sc.lo[:n]
	sc.res = sc.res[:n]
}

// encodeCanonical parses one k-mer string into its canonical key.
func encodeCanonical(s string, k int, wide bool, hi, lo *uint64) bool {
	if wide {
		km, ok := kmer.Encode128([]byte(s))
		if !ok {
			return false
		}
		c := kmer.Canonical128(km, k)
		*hi, *lo = c.Hi, c.Lo
		return true
	}
	km, ok := kmer.Encode64([]byte(s))
	if !ok {
		return false
	}
	*hi, *lo = 0, uint64(kmer.Canonical64(km, k))
	return true
}

// siblings reports how many other distinct k-mers share this multiplicity
// (frequency-spectrum bin population minus the k-mer itself; the last bin
// aggregates everything at or beyond it, matching the artifact histogram).
func siblings(hist []uint64, count uint32) uint64 {
	if len(hist) == 0 {
		return 0
	}
	bin := int(count)
	if bin >= len(hist) {
		bin = len(hist) - 1
	}
	if hist[bin] == 0 {
		return 0
	}
	return hist[bin] - 1
}

// majorityLabel returns the most frequent label (ties break low). labs is
// sorted in place.
func majorityLabel(labs []uint32) uint32 {
	slices.Sort(labs)
	best, bestN := labs[0], 0
	cur, curN := labs[0], 0
	for _, l := range labs {
		if l != cur {
			cur, curN = l, 0
		}
		curN++
		if curN > bestN {
			best, bestN = cur, curN
		}
	}
	return best
}

// maxQueryBody bounds the POST /query body (16 MiB comfortably covers a
// MaxBatch of long reads).
const maxQueryBody = 16 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t := s.opts.Query
	start := time.Now()
	// Admission: bounded concurrency, rejected with the same 429 +
	// Retry-After contract job submission uses.
	select {
	case t.sem <- struct{}{}:
		defer func() { <-t.sem }()
	default:
		t.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("query admission: %w", jobs.ErrQueueFull))
		return
	}
	t0 := time.Now()
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	t1 := time.Now()
	resp, code, err := t.Execute(req)
	if err != nil {
		writeErr(w, code, err)
		return
	}
	t2 := time.Now()
	writeJSON(w, http.StatusOK, resp)
	t3 := time.Now()
	t.queries.Add(1)
	t.decodeHist.Observe(t1.Sub(t0))
	t.executeHist.Observe(t2.Sub(t1))
	t.encodeHist.Observe(t3.Sub(t2))
	t.hist.Observe(t3.Sub(start))
}
