package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/durable"
)

// artifactStore is the daemon's content-addressed partition-artifact store:
// a directory of .mpa files bounded by a byte budget and evicted least-
// recently-used (mtime is the recency clock — bumped on every lookup hit,
// so a hot base artifact survives commits that push the store over budget).
//
// Two entry kinds share the budget:
//
//   - "p-<indexDigest>-min<N>-max<N>.mpa": full partition artifacts, served
//     to later jobs over the same (index, filter) key as a reload instead
//     of a recompute. Tasks/threads/passes are absent from the key on
//     purpose — labels are shape-independent, so any shape's artifact
//     satisfies any other shape's submission.
//   - "i-<jobID>.mpa": merged artifacts of incremental (delta) jobs. These
//     carry no index digest (their read space is base∪delta), so they are
//     never served by key lookup; they exist to be fetched via
//     GET /jobs/{id}/artifact and chained as the base of a further delta.
//
// Eviction unlinks files that a running job may hold open; that is safe —
// the open descriptor keeps the bytes readable until the job closes it.
type artifactStore struct {
	dir    string
	budget int64 // <= 0 means unbounded

	mu     sync.Mutex
	hits   uint64
	misses uint64
}

// newArtifactStore roots a store at dir, creating it if needed and
// sweeping stale staging files from a previous daemon process.
func newArtifactStore(dir string, budget int64) (*artifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "staging-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &artifactStore{dir: dir, budget: budget}, nil
}

// key names the store entry a configuration's partition artifact lives at.
// Only inputs that change the label map participate: the index digest
// (covering the read set, k, m and pairing) and the edge filter.
func artifactKey(cfg core.Config) string {
	return fmt.Sprintf("p-%s-min%d-max%d.mpa",
		cfg.Index.Digest(), cfg.Filter.Min, cfg.Filter.Max)
}

// lookup returns the stored artifact path for cfg's key, bumping its
// recency. The second return is false on miss.
func (s *artifactStore) lookup(cfg core.Config) (string, bool) {
	path := filepath.Join(s.dir, artifactKey(cfg))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(path); err != nil {
		s.misses++
		return "", false
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	s.hits++
	return path, true
}

// staging returns a private path a job writes its artifact to before
// commit; the file is removed by the caller on failure (and swept at
// startup if the process dies first).
func (s *artifactStore) staging(jobID string) string {
	return filepath.Join(s.dir, "staging-"+jobID+".mpa")
}

// commit renames a staged artifact into the store under name (an
// artifactKey or an "i-<jobID>.mpa" incremental name) and evicts until the
// store is back under budget. Returns the committed path.
func (s *artifactStore) commit(staged, name string) (string, error) {
	path := filepath.Join(s.dir, name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := durable.Commit(staged, path); err != nil {
		return "", err
	}
	s.evictLocked(path)
	return path, nil
}

// drop removes a store entry (a corrupt or mismatched artifact discovered
// at reload time).
func (s *artifactStore) drop(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.Remove(path)
}

// evictLocked removes oldest-first .mpa entries until total size fits the
// budget, never evicting keep (the entry just committed — a store whose
// budget is smaller than one artifact still serves that artifact).
func (s *artifactStore) evictLocked(keep string) {
	if s.budget <= 0 {
		return
	}
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var ents []ent
	var total int64
	for _, e := range s.listLocked() {
		ents = append(ents, ent{e.Path, e.Bytes, e.ModTime})
		total += e.Bytes
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	for _, e := range ents {
		if total <= s.budget {
			return
		}
		if e.path == keep {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
		}
	}
}

// ArtifactEntry describes one stored artifact for the /artifacts listing.
type ArtifactEntry struct {
	// Name is the store-relative file name (the content key for partition
	// entries, "i-<jobID>.mpa" for incremental ones).
	Name  string `json:"name"`
	Path  string `json:"-"`
	Bytes int64  `json:"bytes"`
	// ModTime is the LRU recency clock (bumped on every cache hit);
	// LastAccess is the file's access time — the same clock where the
	// filesystem records atime, ModTime where it does not (noatime).
	ModTime    time.Time `json:"mtime"`
	LastAccess time.Time `json:"last_access"`
}

func (s *artifactStore) listLocked() []ArtifactEntry {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []ArtifactEntry
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".mpa") || strings.HasPrefix(name, "staging-") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, ArtifactEntry{
			Name: name, Path: filepath.Join(s.dir, name),
			Bytes: fi.Size(), ModTime: fi.ModTime(),
			LastAccess: atime(fi),
		})
	}
	return out
}

// list snapshots the store, newest first; equal timestamps break on name
// so the listing is deterministic.
func (s *artifactStore) list() []ArtifactEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.listLocked()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.After(out[j].ModTime)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// stats returns entry count, total bytes and the hit/miss counters.
func (s *artifactStore) stats() (entries int, bytes int64, hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.listLocked() {
		entries++
		bytes += e.Bytes
	}
	return entries, bytes, s.hits, s.misses
}
