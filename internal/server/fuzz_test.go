package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"metaprep/internal/jobs"
)

// FuzzQueryHandler drives arbitrary bodies through POST /query: the
// handler must not panic, every answer must be length-framed, a non-200
// must be a JSON {"error": …}, and a 200 must decode into a QueryResponse
// with one answer per requested k-mer and per sequence.
func FuzzQueryHandler(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "a.mpa")
	kms, _ := writeQueryArtifact(f, path, 60, 0, 7)
	tier, err := NewQueryTier(QueryOptions{
		Dir: filepath.Join(dir, "serve"), Artifact: path, MaxBatch: 16, MaxConcurrent: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tier.Close)
	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	f.Cleanup(mgr.Stop)
	srv := New(mgr, Options{Query: tier})

	// TestQueryEndpoint's bodies, then malformed JSON.
	miss := absentKmer(f, kms)
	for _, body := range []string{
		fmt.Sprintf(`{"kmers":[%q,%q,%q,%q],"siblings":true}`, kms[0], kms[7], kms[59], miss),
		fmt.Sprintf(`{"sequences":[%q,%q]}`, kms[3], miss),
		`{"kmers":["ACGT"]}`,
		fmt.Sprintf(`{"kmers":[%q]}`, strings.Repeat("N", queryTestK)),
		`{}`,
		fmt.Sprintf(`{"kmers":[%s]}`, strings.Repeat(fmt.Sprintf("%q,", kms[0]), 16)+fmt.Sprintf("%q", kms[0])),
		fmt.Sprintf(`{"kmers":[%q]}`, kms[1]),
		`{"kmers":`,
		`{"kmers":[1]}`,
		`{"unknown":true}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(out)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(out))
		}
		if rec.Code != http.StatusOK {
			var eb errorBody
			dec := json.NewDecoder(bytes.NewReader(out))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("%d answer is not a JSON error: %q (%v)", rec.Code, out, err)
			}
			return
		}
		var req QueryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body the handler's decoder rejects: %v", err)
		}
		var resp QueryResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("200 answer does not decode: %v\n%s", err, out)
		}
		if len(resp.Kmers) != len(req.Kmers) || len(resp.Sequences) != len(req.Sequences) {
			t.Fatalf("%d k-mers, %d sequences answered for %d, %d asked",
				len(resp.Kmers), len(resp.Sequences), len(req.Kmers), len(req.Sequences))
		}
		for i, s := range resp.Sequences {
			if s.Hits > s.Kmers || s.Found != (s.Hits > 0) {
				t.Fatalf("sequences[%d] = %+v is inconsistent", i, s)
			}
		}
	})
}
