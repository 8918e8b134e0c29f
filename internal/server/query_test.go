package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/jobs"
	"metaprep/internal/kmer"
)

const queryTestK = 21

// writeQueryArtifact synthesizes a partition artifact of nkeys keys that
// come from real k-mer strings, so HTTP queries can be issued as sequence
// text and verified against the labels written here. The same seed yields
// the same k-mer set, so two artifacts with different labelBase are
// swap-detectable.
func writeQueryArtifact(t testing.TB, path string, nkeys int, labelBase uint32, seed int64) (kmers []string, labels []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type keyed struct {
		key uint64
		s   string
	}
	var ks []keyed
	seen := map[uint64]bool{}
	for len(ks) < nkeys {
		b := make([]byte, queryTestK)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		m, ok := kmer.Encode64(b)
		if !ok {
			t.Fatal("encode failed")
		}
		key := uint64(kmer.Canonical64(m, queryTestK))
		if seen[key] {
			continue
		}
		seen[key] = true
		ks = append(ks, keyed{key, string(b)})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })

	w, err := artifact.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, false, 512); err != nil {
		t.Fatal(err)
	}
	for i, e := range ks {
		if err := w.Tuple(0, e.key, uint32(i)); err != nil {
			t.Fatal(err)
		}
		kmers = append(kmers, e.s)
		labels = append(labels, labelBase+uint32(i))
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(labels); err != nil {
		t.Fatal(err)
	}
	hist := make([]uint64, 4)
	hist[1] = uint64(len(ks)) // every key has exactly one tuple
	if err := w.Hist(hist); err != nil {
		t.Fatal(err)
	}
	err = w.Finish(artifact.Meta{
		Kind: artifact.KindPartition, K: queryTestK, M: 8,
		Reads: uint32(len(ks)), FilterMin: 1, IndexDigest: "query-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return kmers, labels
}

// absentKmer finds a k-mer string whose canonical key is not in the
// artifact, so miss paths can be exercised without false hits.
func absentKmer(t testing.TB, present []string) string {
	t.Helper()
	seen := map[uint64]bool{}
	for _, s := range present {
		m, _ := kmer.Encode64([]byte(s))
		seen[uint64(kmer.Canonical64(m, queryTestK))] = true
	}
	rng := rand.New(rand.NewSource(999))
	for tries := 0; tries < 1000; tries++ {
		b := make([]byte, queryTestK)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		m, _ := kmer.Encode64(b)
		if !seen[uint64(kmer.Canonical64(m, queryTestK))] {
			return string(b)
		}
	}
	t.Fatal("could not find absent k-mer")
	return ""
}

func waitSwaps(t *testing.T, tier *QueryTier, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tier.Swaps() < want {
		if time.Now().After(deadline) {
			t.Fatalf("tier never reached %d swaps (at %d)", want, tier.Swaps())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryEndpoint is the query-tier e2e: serve an artifact, answer k-mer
// and sequence batches over HTTP with labels verified against what the
// artifact recorded, report siblings from the histogram, reject malformed
// requests, and hot-swap to a newer artifact committed under the followed
// key without dropping a query.
func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mpa")
	pathB := filepath.Join(dir, "b.mpa")
	kms, labsA := writeQueryArtifact(t, pathA, 60, 0, 7)
	_, labsB := writeQueryArtifact(t, pathB, 60, 10000, 7)

	tier, err := NewQueryTier(QueryOptions{
		Dir:      filepath.Join(dir, "serve"),
		Artifact: pathA,
		Key:      "p-test.mpa",
		MaxBatch: 16, MaxConcurrent: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	srv, _ := newTestServer(t, jobs.Options{Workers: 1}, Options{Query: tier})

	// K-mer batch with siblings: labels must match the artifact's, every
	// key has multiplicity 1, and its sibling count is nkeys-1.
	miss := absentKmer(t, kms)
	body := fmt.Sprintf(`{"kmers":[%q,%q,%q,%q],"siblings":true}`, kms[0], kms[7], kms[59], miss)
	resp, data := postJSON(t, srv.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, data)
	}
	checkFramed(t, resp, data)
	var qr QueryResponse
	mustUnmarshal(t, data, &qr)
	sib := uint64(len(kms) - 1)
	want := QueryResponse{Source: "a.mpa", Epoch: 1, K: queryTestK, Keys: uint64(len(kms)),
		Kmers: []KmerAnswer{
			{Label: labsA[0], Count: 1, Found: true, Siblings: sib},
			{Label: labsA[7], Count: 1, Found: true, Siblings: sib},
			{Label: labsA[59], Count: 1, Found: true, Siblings: sib},
			{},
		}}
	if !reflect.DeepEqual(qr, want) {
		t.Fatalf("k-mer answer = %+v, want %+v", qr, want)
	}

	// Sequence path: a sequence that IS one stored k-mer resolves to its
	// label; an unknown sequence misses on every window.
	body = fmt.Sprintf(`{"sequences":[%q,%q]}`, kms[3], miss)
	resp, data = postJSON(t, srv.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query sequences: %d %s", resp.StatusCode, data)
	}
	checkFramed(t, resp, data)
	qr = QueryResponse{}
	mustUnmarshal(t, data, &qr)
	want = QueryResponse{Source: "a.mpa", Epoch: 1, K: queryTestK, Keys: uint64(len(kms)),
		Sequences: []SequenceAnswer{
			{Label: labsA[3], Found: true, Kmers: 1, Hits: 1},
			{Kmers: 1},
		}}
	if !reflect.DeepEqual(qr, want) {
		t.Fatalf("sequence answer = %+v, want %+v", qr, want)
	}

	// Malformed requests map to 400: wrong k, invalid base, empty batch,
	// oversized batch.
	for _, bad := range []string{
		`{"kmers":["ACGT"]}`,
		fmt.Sprintf(`{"kmers":[%q]}`, strings.Repeat("N", queryTestK)),
		`{}`,
		fmt.Sprintf(`{"kmers":[%s]}`, strings.Repeat(fmt.Sprintf("%q,", kms[0]), 16)+fmt.Sprintf("%q", kms[0])),
	} {
		resp, data := postJSON(t, srv.URL+"/query", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %s: got %d %s, want 400", bad[:min(len(bad), 40)], resp.StatusCode, data)
		}
		checkFramed(t, resp, data)
	}

	// Metrics: query families present, histogram observed our requests.
	resp, data = postJSON(t, srv.URL+"/query", fmt.Sprintf(`{"kmers":[%q]}`, kms[1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d", resp.StatusCode)
	}
	mresp := getJSON(t, srv.URL+"/metrics", nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}
	mbody := getBody(t, srv.URL+"/metrics")
	validateProm(t, mbody)
	for _, want := range []string{
		"metaprepd_query_seconds_bucket", "metaprepd_queries_total 3\n",
		"metaprepd_query_lookup_keys 60", "metaprepd_query_swaps_total 1",
		`metaprepd_query_phase_seconds_count{phase="decode"} 3`,
		`metaprepd_query_phase_seconds_count{phase="execute"} 3`,
		`metaprepd_query_phase_seconds_count{phase="encode"} 3`,
		"metaprepd_query_seconds_count 3\n",
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Hot swap: committing under the followed key republishes; the same
	// query then answers with artifact B's labels and epoch 2. A commit
	// under an unrelated name must not swap.
	tier.ArtifactCommitted("p-other.mpa", pathA)
	tier.ArtifactCommitted("p-test.mpa", pathB)
	waitSwaps(t, tier, 2)
	resp, data = postJSON(t, srv.URL+"/query", fmt.Sprintf(`{"kmers":[%q]}`, kms[5]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap query: %d %s", resp.StatusCode, data)
	}
	qr = QueryResponse{}
	mustUnmarshal(t, data, &qr)
	if qr.Epoch != 2 || qr.Kmers[0].Label != labsB[5] {
		t.Fatalf("post-swap answer = %+v, want epoch 2 label %d", qr, labsB[5])
	}
}

// TestQueryTierAutoKey: with Key "auto" and no initial artifact, the tier
// answers 503 until the first committed partition artifact is adopted, then
// follows that name only.
func TestQueryTierAutoKey(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mpa")
	_, labsA := writeQueryArtifact(t, pathA, 60, 500, 7)
	kms, _ := writeQueryArtifact(t, filepath.Join(dir, "same.mpa"), 60, 0, 7)

	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "serve"), Key: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)

	if _, code, err := tier.Execute(QueryRequest{Kmers: kms[:1]}); code != http.StatusServiceUnavailable || err == nil {
		t.Fatalf("expected 503 before first artifact, got %d %v", code, err)
	}
	// Incremental artifacts never get adopted.
	tier.ArtifactCommitted("i-job1.mpa", pathA)
	if k := tier.FollowedKey(); k != "auto" {
		t.Fatalf("adopted incremental artifact: key %q", k)
	}
	tier.ArtifactCommitted("p-first.mpa", pathA)
	if k := tier.FollowedKey(); k != "p-first.mpa" {
		t.Fatalf("key = %q, want p-first.mpa", k)
	}
	waitSwaps(t, tier, 1)
	resp, code, err := tier.Execute(QueryRequest{Kmers: kms[:1]})
	if err != nil {
		t.Fatalf("execute after adoption: %d %v", code, err)
	}
	if !resp.Kmers[0].Found || resp.Kmers[0].Label != labsA[0] {
		t.Fatalf("answer = %+v, want label %d", resp.Kmers[0], labsA[0])
	}
}

// checkFramed asserts a JSON answer is one compact, length-framed body:
// Content-Length matches, and the only newline is the encoder's last byte.
func checkFramed(t *testing.T, resp *http.Response, data []byte) {
	t.Helper()
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(data)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(data))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if i := bytes.IndexByte(data, '\n'); i != len(data)-1 {
		t.Fatalf("body is not one compact JSON line: %q", data)
	}
}

// TestQueryMaxBatchWindows: MaxBatch counts every sequence window, so a
// sequence of exactly MaxBatch windows is answered and one window more is
// rejected before the request's probe scratch grows.
func TestQueryMaxBatchWindows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.mpa")
	kms, _ := writeQueryArtifact(t, path, 60, 0, 7)
	const maxBatch = 64
	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "serve"), Artifact: path, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)

	seq := strings.Repeat(kms[0], 5)[:maxBatch+queryTestK-1]
	resp, code, err := tier.Execute(QueryRequest{Sequences: []string{seq}})
	if err != nil {
		t.Fatalf("%d windows: %d %v", maxBatch, code, err)
	}
	if resp.Sequences[0].Kmers != maxBatch {
		t.Fatalf("scanned %d windows, want %d", resp.Sequences[0].Kmers, maxBatch)
	}
	if _, code, err := tier.Execute(QueryRequest{Kmers: kms[:1], Sequences: []string{seq}}); code != http.StatusBadRequest || err == nil {
		t.Fatalf("%d windows + 1 k-mer: got %d %v, want 400", maxBatch, code, err)
	}
	if _, code, err := tier.Execute(QueryRequest{Sequences: []string{seq + "A"}}); code != http.StatusBadRequest || err == nil {
		t.Fatalf("%d windows: got %d %v, want 400", maxBatch+1, code, err)
	}

	// A long read is rejected without growing scratch: one 4 MiB sequence
	// would otherwise need ~16 bytes of keys and 12 of results per window.
	long := strings.Repeat("ACGT", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, code, _ := tier.Execute(QueryRequest{Sequences: []string{long}}); code != http.StatusBadRequest {
		t.Fatalf("4 MiB sequence: got %d, want 400", code)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejected request allocated %d bytes", grew)
	}
	sc := tier.scratch.Get().(*queryScratch)
	if cap(sc.lo) > maxBatch || cap(sc.res) > maxBatch {
		t.Fatalf("scratch grew past max_batch: %d keys, %d results", cap(sc.lo), cap(sc.res))
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
