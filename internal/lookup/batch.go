package lookup

// Result is one key's answer in a batch run.
type Result struct {
	Label uint32
	Count uint32
	Found bool
}

// GetBatch answers out[i] for key (hi[i], lo[i]); hi may be nil for 64-bit
// lookups. len(out) must equal len(lo). It probes on the caller's
// goroutine and allocates nothing: a served request is already one
// goroutine, and concurrent requests are what keep the CPUs busy, so a
// hand-off to other goroutines would only add a park per batch.
func (l *Lookup) GetBatch(hi, lo []uint64, out []Result) {
	for i := range lo {
		var h uint64
		if hi != nil {
			h = hi[i]
		}
		lab, cnt, ok := l.Get(h, lo[i])
		out[i] = Result{Label: lab, Count: cnt, Found: ok}
	}
}

// Batcher is a stateless batch-probe handle: Run is Lookup.GetBatch on the
// caller's goroutine. NewBatcher, Run and Close keep their signatures for
// callers that time the probe layer through them, such as the repository
// benchmark; new code calls GetBatch.
type Batcher struct{}

// NewBatcher returns a Batcher; workers is ignored.
func NewBatcher(workers int) *Batcher { return &Batcher{} }

// Close is a no-op, kept for existing callers.
func (b *Batcher) Close() {}

// Run is lk.GetBatch(hi, lo, out). Safe for concurrent use.
func (b *Batcher) Run(lk *Lookup, hi, lo []uint64, out []Result) {
	lk.GetBatch(hi, lo, out)
}
