// Package jobs is the partition-as-a-service job manager behind the
// metaprepd daemon: a bounded submission queue with admission control, a
// worker pool sized to the configured concurrency, a per-job lifecycle
// (pending → running → done/failed/cancelled), retries for transient I/O
// failures, and a content-addressed result cache keyed by
// (index digest, canonical config hash).
//
// The manager is deliberately independent of HTTP: internal/server maps its
// typed errors (ErrQueueFull → 429 + Retry-After, core.ErrInvalidConfig →
// 400, ErrDraining → 503) onto the wire, and any other front end (a CLI, a
// message queue) could drive the same Manager.
//
// Identical work is never executed twice concurrently: a submission whose
// cache key matches a pending or running job coalesces onto that job, and a
// key whose result is cached completes immediately as a cache hit.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/core"
	"metaprep/internal/model"
	"metaprep/internal/obsv"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: Pending (queued, not yet picked up) → Running →
// exactly one of Done, Failed, Cancelled.
const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Typed admission errors, mapped by the HTTP layer onto status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (the server answers 429 with Retry-After).
	ErrQueueFull = errors.New("jobs: submission queue is full")
	// ErrDraining rejects submissions after Drain has begun (503).
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrNotFound reports an unknown job ID (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone reports a result request for a job that has not finished
	// successfully (409).
	ErrNotDone = errors.New("jobs: job has no result")
)

// Runner executes one partition job. The default is core.RunContext; tests
// inject fakes.
type Runner func(ctx context.Context, cfg core.Config) (*core.Result, error)

// Options configures a Manager. Zero values take the documented defaults.
type Options struct {
	// Workers is the worker-pool size — the number of pipeline runs the
	// manager executes concurrently (default 1; each run already
	// parallelizes internally over Tasks×Threads goroutines).
	Workers int
	// QueueCap bounds the submission queue; a submission beyond it is
	// rejected with ErrQueueFull (default 16).
	QueueCap int
	// CacheCap bounds the result cache in entries, evicted LRU (default 64;
	// 0 uses the default, negative disables caching).
	CacheCap int
	// CacheBytes bounds the result cache's resident bytes — the label
	// arrays dominate, so an entry bound alone would let memory scale with
	// dataset size. Entries are evicted LRU once the estimate exceeds the
	// budget (default 256 MiB; negative = no byte bound).
	CacheBytes int64
	// ArtifactDir, when set, roots the daemon's content-addressed partition
	// artifact store: every fresh partition job writes its artifact there
	// (keyed by index digest + filter), later jobs over the same key reload
	// it instead of recomputing, and the store is evicted
	// least-recently-used to stay under ArtifactBudgetBytes. Empty disables
	// the store.
	ArtifactDir string
	// ArtifactBudgetBytes bounds the artifact store's disk footprint
	// (default 4 GiB; negative = unbounded).
	ArtifactBudgetBytes int64
	// Retries is how many times a job is re-run after a transient failure
	// (default 2). Non-transient failures never retry.
	Retries int
	// Transient classifies retryable errors; nil uses IsTransient.
	Transient func(error) bool
	// Runner executes jobs; nil uses core.RunContext.
	Runner Runner
	// SpillDir, when set, roots the out-of-core scratch space: every job
	// submitted with SpillBudgetBytes > 0 (and no explicit SpillDir of its
	// own) runs with a private job-<ID> directory beneath it, removed when
	// the job reaches any terminal state — done, failed and cancelled alike.
	// Pair with SweepSpillDir at startup to reclaim scratch a previous
	// daemon process left behind. Empty leaves spill placement to the
	// job's Config (the OS temp dir by default).
	SpillDir string
	// RingEvents sizes each job's flight recorder: the per-job collector
	// keeps the most recent RingEvents spans in a bounded ring, cheap enough
	// to leave on for every job (default obsv.DefaultRingEvents; negative
	// selects an unbounded collector for offline-trace use).
	RingEvents int
	// TraceDir, when set, receives an automatic Perfetto trace dump
	// (job-<ID>.trace.json) whenever a job fails, is cancelled, or breaches
	// TraceSLO — the flight recorder's "what was it doing" answer without
	// anyone having asked for a trace in advance.
	TraceDir string
	// TraceSLO is the run-time latency SLO: a successful job whose run time
	// exceeds it dumps its trace to TraceDir like a failure would. 0
	// disables the SLO trigger.
	TraceSLO time.Duration
	// Trajectory, when set, is the JSONL perf-trajectory file every
	// successful job appends its record (shape, wall time, drift report) to.
	Trajectory string
	// DriftCal is the default model calibration for jobs that do not set
	// Config.DriftCal themselves ("" keeps core's default, edison).
	DriftCal string
	// OnArtifactCommit, when set, is invoked (off the manager lock, on the
	// worker goroutine) every time the artifact store admits a newly
	// committed artifact, with its store name and final path. The query
	// tier uses it to hot-swap the served lookup when a newer artifact
	// lands for the served key. The callback must not block for long — it
	// runs before the job is finalized.
	OnArtifactCommit func(name, path string)
	// Logger receives structured job-lifecycle records, each stamped with
	// the job correlation ID; it is also threaded into every run's
	// Config.Log so pipeline records carry the same ID. Nil logs nothing.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueCap < 1 {
		o.QueueCap = 16
	}
	if o.CacheCap == 0 {
		o.CacheCap = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.ArtifactBudgetBytes == 0 {
		o.ArtifactBudgetBytes = 4 << 30
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Transient == nil {
		o.Transient = IsTransient
	}
	if o.Runner == nil {
		o.Runner = core.RunContext
	}
	return o
}

// Job is one submitted partition run. All mutable state is guarded by the
// owning Manager's mutex; read a consistent view with Status.
type Job struct {
	// ID is the manager-assigned identifier ("j1", "j2", …).
	ID string
	// Key is the content-addressed cache key: indexDigest + ":" + configHash.
	Key string
	// Config is the run's configuration with Obs set to this job's private
	// collector.
	Config core.Config

	obs *obsv.Collector
	// done closes when the job reaches a terminal state.
	done chan struct{}

	state           State
	cacheHit        bool
	artifactReload  bool   // satisfied by reloading a stored artifact
	artifact        string // path of this job's artifact in the store
	submitted       time.Time
	started         time.Time
	finished        time.Time
	attempts        int
	err             error
	result          *core.Result
	cancelRequested bool
	cancel          context.CancelFunc
}

// Status is a point-in-time snapshot of a job, JSON-shaped for the API.
type Status struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// CacheHit marks a job satisfied from the result cache without running.
	CacheHit bool `json:"cache_hit"`
	// ArtifactReload marks a job satisfied by reloading a stored partition
	// artifact (the pipeline's compute steps were skipped).
	ArtifactReload bool `json:"artifact_reload,omitempty"`
	// Artifact is set when the job's partition artifact is retrievable from
	// the daemon's store.
	Artifact  bool      `json:"artifact,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Attempts counts runner invocations (> 1 after transient retries).
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Counters is the job's live obsv counter snapshot — the per-step
	// progress signal (bytes/chunks/k-mers so far, tuples exchanged, …).
	Counters []obsv.CounterValue `json:"counters,omitempty"`
}

// Done reports completion; the returned channel closes when the job reaches
// a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Manager owns the queue, the workers, the job table and the result cache.
type Manager struct {
	opts Options

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // IDs in submission order, for listing
	inflight map[string]*Job // live (pending/running) job per cache key
	cache    *resultCache
	// artifacts is the on-disk partition artifact store (nil when
	// Options.ArtifactDir is empty). It has its own lock — never taken
	// under mu.
	artifacts *artifactStore
	seq       int
	draining  bool
	hits      uint64 // cache + coalesced-submit hits

	// pool recycles the pipeline's two per-task tuple buffers across jobs:
	// back-to-back daemon runs reuse multi-GB slices instead of
	// reallocating them. Buffers only return to the pool after a run has
	// fully joined its ranks, so jobs running concurrently on the worker
	// pool never share a live buffer.
	pool *core.TuplePool

	// Jobs-layer latency histograms (queue wait, run time, end-to-end) and
	// the per-step histograms merged out of each finished job's collector —
	// the /metrics p50/p99 substrate. Histograms are internally atomic;
	// stepHists' map shape is guarded by hmu.
	queueHist, runHist, totalHist *obsv.Histogram
	hmu                           sync.Mutex
	stepHists                     map[string]*obsv.Histogram
	// lastDrift is the most recent completed job's model reconciliation
	// (guarded by mu); tracesDumped counts automatic flight-recorder dumps.
	lastDrift    *model.DriftReport
	tracesDumped uint64

	queue chan *Job
	wg    sync.WaitGroup
	// stopCtx cancels every running job on Stop (the hard counterpart to
	// the graceful Drain).
	stopCtx  context.Context
	stopAll  context.CancelFunc
	stopOnce sync.Once
}

// NewManager starts a manager with its worker pool.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts:      opts,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		cache:     newResultCache(opts.CacheCap, opts.CacheBytes),
		pool:      core.NewTuplePool(),
		queue:     make(chan *Job, opts.QueueCap),
		queueHist: obsv.NewHistogram(),
		runHist:   obsv.NewHistogram(),
		totalHist: obsv.NewHistogram(),
		stepHists: make(map[string]*obsv.Histogram),
	}
	if opts.ArtifactDir != "" {
		st, err := newArtifactStore(opts.ArtifactDir, opts.ArtifactBudgetBytes)
		if err != nil {
			if lg := opts.Logger; lg != nil {
				lg.Error("artifact store disabled", "dir", opts.ArtifactDir, "err", err)
			}
		} else {
			m.artifacts = st
		}
	}
	m.stopCtx, m.stopAll = context.WithCancel(context.Background())
	m.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go m.worker()
	}
	return m
}

// CacheKey returns the content-addressed key of a configuration:
// the index digest paired with the canonical config hash.
func CacheKey(cfg core.Config) string {
	return cfg.Index.Digest() + ":" + cfg.CanonicalHash()
}

// Submit validates cfg and admits it as a job. The three outcomes beyond
// plain admission:
//
//   - invalid config: error wrapping core.ErrInvalidConfig (HTTP 400);
//   - queue full: ErrQueueFull (HTTP 429), draining: ErrDraining (503);
//   - duplicate work: a submission whose key matches a pending/running job
//     returns that job (fresh=false, no second execution); a key with a
//     cached result returns a job born Done with CacheHit set.
func (m *Manager) Submit(cfg core.Config) (job *Job, fresh bool, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	key := CacheKey(cfg)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	if live := m.inflight[key]; live != nil {
		m.hits++
		return live, false, nil
	}
	if res := m.cache.get(key); res != nil {
		m.hits++
		j := m.newJobLocked(key, cfg)
		j.state = Done
		j.cacheHit = true
		j.result = res
		j.finished = time.Now()
		close(j.done)
		return j, false, nil
	}
	j := m.newJobLocked(key, cfg)
	select {
	case m.queue <- j:
	default:
		// Admission control: undo the registration; the caller gets a 429.
		delete(m.jobs, j.ID)
		m.order = m.order[:len(m.order)-1]
		return nil, false, ErrQueueFull
	}
	m.inflight[key] = j
	return j, true, nil
}

// newJobLocked allocates and registers a pending job. Caller holds m.mu.
func (m *Manager) newJobLocked(key string, cfg core.Config) *Job {
	m.seq++
	// Every job gets a flight recorder: tracing is always on, bounded to
	// the most recent RingEvents spans, so a failing or slow job can be
	// dumped after the fact without having been asked about in advance.
	obs := obsv.NewRing(m.opts.RingEvents)
	if m.opts.RingEvents < 0 {
		obs = obsv.New()
	}
	j := &Job{
		ID:        fmt.Sprintf("j%d", m.seq),
		Key:       key,
		state:     Pending,
		submitted: time.Now(),
		obs:       obs,
		done:      make(chan struct{}),
	}
	cfg.Obs = j.obs
	j.Config = cfg
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	return j
}

// worker drains the queue until Drain closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through running → terminal, retrying transient
// failures.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	if j.cancelRequested || j.state != Pending {
		// Cancelled while queued; finalized by Cancel already.
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.stopCtx)
	defer cancel()
	j.cancel = cancel
	j.state = Running
	j.started = time.Now()
	cfg := j.Config
	// Thread the shared buffer pool through this run only (not the stored
	// Config): recycling is an executor concern, invisible to the job's
	// identity and cache key. The logger, drift calibration and the job
	// correlation ID on the context are executor concerns the same way.
	cfg.Pool = m.pool
	if cfg.Log == nil {
		cfg.Log = m.opts.Logger
	}
	if cfg.DriftCal == "" {
		cfg.DriftCal = m.opts.DriftCal
	}
	m.mu.Unlock()
	ctx = obsv.WithJobID(ctx, j.ID)
	if lg := m.opts.Logger; lg != nil {
		lg.InfoContext(ctx, "job started",
			"queue_wait", j.started.Sub(j.submitted), "key", j.Key)
	}

	// Spill scratch is an executor concern too (SpillDir is excluded from
	// the cache key): give a spilling job a private directory under the
	// manager's spill root and remove it once the runner returns, whatever
	// the outcome, so cancelled and failed jobs cannot strand run files.
	// Removal precedes publishing the terminal state: a waiter that sees
	// the job finish also sees its scratch gone.
	var spillDir string
	if m.opts.SpillDir != "" && cfg.SpillBudgetBytes > 0 && cfg.SpillDir == "" {
		dir := filepath.Join(m.opts.SpillDir, "job-"+j.ID)
		if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
			spillDir = dir
			cfg.SpillDir = dir
		}
	}

	// Artifact-store participation is an executor concern the same way
	// (absent from the cache key). A job with its own artifact settings is
	// left alone; otherwise a stored artifact for the same (index, filter)
	// key is reloaded instead of recomputed, and a miss emits one for later
	// jobs. Incremental (delta) jobs stage their merged artifact so it can
	// be fetched via the API and chained as a further delta's base.
	var artifactIn string // store path injected as the reload source
	var commitName string // store name the staged artifact commits under
	if st := m.artifacts; st != nil {
		switch {
		case cfg.ArtifactDelta && cfg.ArtifactOut == "":
			commitName = "i-" + j.ID + ".mpa"
			cfg.ArtifactOut = st.staging(j.ID)
		case !cfg.ArtifactDelta && cfg.ArtifactIn == "" && cfg.ArtifactOut == "":
			if p, ok := st.lookup(cfg); ok {
				artifactIn = p
				cfg.ArtifactIn = p
			} else {
				commitName = artifactKey(cfg)
				cfg.ArtifactOut = st.staging(j.ID)
			}
		}
		// No-op after a successful commit (the rename moved it away).
		defer os.Remove(st.staging(j.ID))
	}

	var res *core.Result
	var err error
	for attempt := 1; ; attempt++ {
		m.mu.Lock()
		j.attempts = attempt
		m.mu.Unlock()
		res, err = m.opts.Runner(ctx, cfg)
		if err != nil && artifactIn != "" && ctx.Err() == nil &&
			(errors.Is(err, artifact.ErrBadArtifact) || errors.Is(err, artifact.ErrMismatch)) {
			// The stored artifact turned out corrupt or mismatched: drop it
			// and fall back to a full recompute (emitting a replacement).
			if lg := m.opts.Logger; lg != nil {
				lg.WarnContext(ctx, "stored artifact unusable, recomputing",
					"path", artifactIn, "err", err)
			}
			m.artifacts.drop(artifactIn)
			cfg.ArtifactIn = ""
			artifactIn = ""
			commitName = artifactKey(cfg)
			cfg.ArtifactOut = m.artifacts.staging(j.ID)
			continue
		}
		if err == nil || ctx.Err() != nil || attempt > m.opts.Retries || !m.opts.Transient(err) {
			break
		}
	}
	if spillDir != "" {
		if rmErr := os.RemoveAll(spillDir); rmErr != nil {
			if lg := m.opts.Logger; lg != nil {
				lg.WarnContext(ctx, "spill scratch removal failed", "dir", spillDir, "err", rmErr)
			}
		}
	}

	// Commit the staged artifact before touching job state (the store has
	// its own lock; never nested under m.mu).
	var committed string
	if err == nil && commitName != "" {
		if p, cErr := m.artifacts.commit(cfg.ArtifactOut, commitName); cErr == nil {
			committed = p
			if cb := m.opts.OnArtifactCommit; cb != nil {
				cb(commitName, p)
			}
		} else if lg := m.opts.Logger; lg != nil {
			lg.WarnContext(ctx, "artifact commit failed", "err", cErr)
		}
	}

	m.mu.Lock()
	j.finished = time.Now()
	delete(m.inflight, j.Key)
	switch {
	case j.cancelRequested || (err != nil && ctx.Err() != nil):
		j.state = Cancelled
		if err == nil {
			err = context.Canceled
		}
		j.err = err
	case err != nil:
		j.state = Failed
		j.err = err
	default:
		j.state = Done
		j.result = res
		if artifactIn != "" {
			j.artifactReload = true
			j.artifact = artifactIn
		} else if committed != "" {
			j.artifact = committed
		}
		m.cache.put(j.Key, res)
		if res.Drift != nil {
			m.lastDrift = res.Drift
		}
	}
	state := j.state
	queued := j.started.Sub(j.submitted)
	ran := j.finished.Sub(j.started)
	total := j.finished.Sub(j.submitted)
	close(j.done)
	m.mu.Unlock()

	m.observeTerminal(j, cfg, state, res, err, queued, ran, total)
}

// Cancel requests cancellation of a job: a pending job is finalized
// immediately; a running job's context is cancelled, aborting blocked ranks
// through the pipeline's abort propagation. Terminal jobs are unaffected
// (no error — cancel is idempotent).
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return ErrNotFound
	}
	switch j.state {
	case Pending:
		j.cancelRequested = true
		j.state = Cancelled
		j.err = context.Canceled
		j.finished = time.Now()
		delete(m.inflight, j.Key)
		close(j.done)
	case Running:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	}
	return nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return j, nil
}

// Result returns a done job's pipeline result.
func (m *Manager) Result(id string) (*core.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if j.state != Done {
		if j.err != nil {
			return nil, fmt.Errorf("%w: state %s: %v", ErrNotDone, j.state, j.err)
		}
		return nil, fmt.Errorf("%w: state %s", ErrNotDone, j.state)
	}
	return j.result, nil
}

// Status snapshots a job, including its live progress counters.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return Status{}, ErrNotFound
	}
	return m.statusOf(j, true), nil
}

// List snapshots every job in submission order, without the (potentially
// large) counter sets.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = m.statusOf(j, false)
	}
	return out
}

func (m *Manager) statusOf(j *Job, counters bool) Status {
	m.mu.Lock()
	s := Status{
		ID: j.ID, Key: j.Key, State: j.state, CacheHit: j.cacheHit,
		ArtifactReload: j.artifactReload, Artifact: j.artifact != "",
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Attempts: j.attempts,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	m.mu.Unlock()
	if counters {
		// The collector has its own lock; don't nest it under m.mu.
		s.Counters = j.obs.Counters()
	}
	return s
}

// Stats is the manager-level snapshot the /metrics endpoint renders.
type Stats struct {
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Workers       int           `json:"workers"`
	Jobs          map[State]int `json:"jobs"`
	CacheEntries  int           `json:"cache_entries"`
	CacheHits     uint64        `json:"cache_hits"`
	// CacheBytes is the estimated resident size of the cached results.
	CacheBytes int64 `json:"cache_bytes"`
	// Artifact-store figures (all zero when the store is disabled).
	ArtifactEntries int    `json:"artifact_entries,omitempty"`
	ArtifactBytes   int64  `json:"artifact_bytes,omitempty"`
	ArtifactHits    uint64 `json:"artifact_hits,omitempty"`
	ArtifactMisses  uint64 `json:"artifact_misses,omitempty"`
	// BufPoolHits/BufPoolMisses count tuple-buffer acquisitions served from
	// the cross-job pool versus freshly allocated.
	BufPoolHits   uint64 `json:"buf_pool_hits"`
	BufPoolMisses uint64 `json:"buf_pool_misses"`
	// TracesDumped counts automatic flight-recorder dumps (failure,
	// cancellation or SLO breach).
	TracesDumped uint64 `json:"traces_dumped"`
	Draining     bool   `json:"draining"`
}

// StatsSnapshot returns current queue, job-state, cache and artifact-store
// figures.
func (m *Manager) StatsSnapshot() Stats {
	// The store has its own lock; sample it outside m.mu.
	var aEntries int
	var aBytes int64
	var aHits, aMisses uint64
	if m.artifacts != nil {
		aEntries, aBytes, aHits, aMisses = m.artifacts.stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		QueueDepth:      len(m.queue),
		QueueCapacity:   m.opts.QueueCap,
		Workers:         m.opts.Workers,
		Jobs:            map[State]int{Pending: 0, Running: 0, Done: 0, Failed: 0, Cancelled: 0},
		CacheEntries:    m.cache.len(),
		CacheHits:       m.hits,
		CacheBytes:      m.cache.residentBytes(),
		ArtifactEntries: aEntries,
		ArtifactBytes:   aBytes,
		ArtifactHits:    aHits,
		ArtifactMisses:  aMisses,
		BufPoolHits:     m.pool.Hits(),
		BufPoolMisses:   m.pool.Misses(),
		TracesDumped:    m.tracesDumped,
		Draining:        m.draining,
	}
	for _, j := range m.jobs {
		s.Jobs[j.state]++
	}
	return s
}

// ArtifactPath returns the store path of a done job's partition artifact.
// ErrNotDone covers both a job that produced no artifact and one whose
// artifact the store has since evicted.
func (m *Manager) ArtifactPath(id string) (string, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return "", ErrNotFound
	}
	m.mu.Lock()
	state, path := j.state, j.artifact
	m.mu.Unlock()
	if state != Done || path == "" {
		return "", fmt.Errorf("%w: job has no stored artifact", ErrNotDone)
	}
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("%w: artifact was evicted from the store", ErrNotDone)
	}
	return path, nil
}

// Artifacts lists the artifact store's entries, newest first (nil when the
// store is disabled).
func (m *Manager) Artifacts() []ArtifactEntry {
	if m.artifacts == nil {
		return nil
	}
	return m.artifacts.list()
}

// ArtifactStoreEnabled reports whether the manager persists artifacts.
func (m *Manager) ArtifactStoreEnabled() bool { return m.artifacts != nil }

// Drain stops admission (Submit returns ErrDraining) and waits for every
// queued and running job to finish, or for ctx to expire — the graceful
// half of SIGTERM handling. On ctx expiry the remaining jobs keep running;
// call Stop to hard-cancel them.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue) // workers exit once the backlog is gone
	}
	m.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop hard-cancels every running job (their contexts are children of the
// manager's stop context) after marking the manager draining. It does not
// wait; follow with Drain for that.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	m.stopOnce.Do(m.stopAll)
}

// IsTransient is the default retry classifier: context cancellations and
// configuration errors never retry; errors that declare themselves
// transient (a Transient() bool method, as injected fault types do) or wrap
// ErrTransient do.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrInvalidConfig) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// ErrTransient marks an error as retryable when wrapped
// (fmt.Errorf("...: %w", jobs.ErrTransient)).
var ErrTransient = errors.New("jobs: transient failure")

// SweepSpillDir removes orphaned spill scratch under dir, returning the
// paths it removed: the per-job "job-*" directories this package creates
// and the "metaprep-spill-*" run directories the pipeline creates beneath
// them. Orphans can only exist if a previous daemon process died mid-job
// (every live code path removes its own scratch), so the daemon calls this
// once at startup before accepting work — and logs each returned path,
// since deleting scratch silently is how shared filesystems get haunted. A
// missing dir is not an error. Files and directories with other names are
// left untouched — the spill root may be a shared scratch filesystem.
func SweepSpillDir(dir string) (removed []string, err error) {
	ents, readErr := os.ReadDir(dir)
	if readErr != nil {
		if os.IsNotExist(readErr) {
			return nil, nil
		}
		return nil, readErr
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() ||
			(!strings.HasPrefix(name, "job-") && !strings.HasPrefix(name, "metaprep-spill-")) {
			continue
		}
		path := filepath.Join(dir, name)
		if rmErr := os.RemoveAll(path); rmErr != nil {
			if err == nil {
				err = rmErr
			}
			continue
		}
		removed = append(removed, path)
	}
	return removed, err
}
