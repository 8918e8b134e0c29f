package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"metaprep/internal/jobs"
)

// queryBenchCase is one request shape, mirroring the repo benchmark's mix:
// 64 k-mers with one in ten absent, or 8 reads of 147 bases.
type queryBenchCase struct {
	name string
	req  QueryRequest
	body []byte
}

// newQueryBench serves a 10⁵-key artifact and returns the tier with the
// request shapes to time against it.
func newQueryBench(b *testing.B) (*QueryTier, []queryBenchCase) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.mpa")
	kms, _ := writeQueryArtifact(b, path, 100_000, 0, 11)
	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "serve"), Artifact: path})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tier.Close)

	miss := absentKmer(b, kms[:1000])
	var kmerReq QueryRequest
	for i := range 64 {
		if i%10 == 9 {
			kmerReq.Kmers = append(kmerReq.Kmers, miss)
		} else {
			kmerReq.Kmers = append(kmerReq.Kmers, kms[i*1543%len(kms)])
		}
	}
	// A read is 7 stored k-mers end to end: the aligned windows hit, the
	// ones straddling a junction almost always miss.
	var readReq QueryRequest
	for r := range 8 {
		var sb strings.Builder
		for j := range 7 {
			sb.WriteString(kms[(r*7+j)*977%len(kms)])
		}
		readReq.Sequences = append(readReq.Sequences, sb.String())
	}
	cases := []queryBenchCase{{name: "kmers64", req: kmerReq}, {name: "reads8", req: readReq}}
	for i := range cases {
		if cases[i].body, err = json.Marshal(cases[i].req); err != nil {
			b.Fatal(err)
		}
	}
	return tier, cases
}

// BenchmarkQueryExecute times QueryTier.Execute alone: k-mer encode,
// canonicalize, probe and answer assembly.
func BenchmarkQueryExecute(b *testing.B) {
	tier, cases := newQueryBench(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, code, err := tier.Execute(c.req); err != nil {
					b.Fatalf("execute: %d %v", code, err)
				}
			}
		})
	}
}

// BenchmarkQueryHandler times POST /query through the server's handler
// without a network: body decode, execute and response encode.
func BenchmarkQueryHandler(b *testing.B) {
	tier, cases := newQueryBench(b)
	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	b.Cleanup(mgr.Stop)
	srv := New(mgr, Options{Query: tier})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(c.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("POST /query: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
