package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/retrieval"
	"repro/retrieval/httpapi"
)

// TestEndToEndServe builds a demo index, starts the daemon on a random
// port, and round-trips searches over real HTTP — the full lsiserve path
// minus only signal handling.
func TestEndToEndServe(t *testing.T) {
	cfg, err := parseFlags([]string{"-k", "3"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() {
		api := httpapi.NewHandler(ret, httpapi.Options{})
		served <- serve(ctx, ln, api, api, 5*time.Second, &out)
	}()
	base := fmt.Sprintf("http://%s", ln.Addr())

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Text search round trip: the synonymy effect over the wire.
	body := strings.NewReader(`{"query":"car engine","topN":4}`)
	resp, err = http.Post(base+"/v1/search", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var sr retrieval.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(sr.Results) != 4 {
		t.Fatalf("search status %d results %+v", resp.StatusCode, sr.Results)
	}
	seen := map[string]bool{}
	for _, r := range sr.Results {
		seen[r.ID] = true
	}
	if !seen["demo-01"] || !seen["demo-02"] {
		t.Fatalf("synonym documents missing over HTTP: %+v", sr.Results)
	}

	// Batch endpoint.
	resp, err = http.Post(base+"/v1/search:batch", "application/json",
		strings.NewReader(`{"queries":["galaxy","pasta"],"topN":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var br httpapi.BatchSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(br.Results) != 2 {
		t.Fatalf("batch status %d results %+v", resp.StatusCode, br.Results)
	}

	// Stats.
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats retrieval.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.NumDocs != 12 || stats.Backend != "lsi" || stats.Rank != 3 {
		t.Fatalf("stats = %+v", stats)
	}

	// Graceful shutdown: cancel drains and serve returns cleanly.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "listening on http://") {
		t.Fatalf("missing listen line in output: %q", out.String())
	}
}

// TestServeSavedIndex proves the persistence path end to end: save a
// self-contained index, reload it via -index, and serve text queries
// from it without the corpus.
func TestServeSavedIndex(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-index", path}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ret.Search(context.Background(), "automobile mechanic", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || !strings.HasPrefix(res[0].ID, "demo-") {
		t.Fatalf("loaded index results: %+v", res)
	}
}

// TestRunWarnsOnVocabularylessIndex boots the full run() path against
// the golden v1 index file: the daemon must come up (vector queries
// still work) but announce at startup that text queries will fail.
func TestRunWarnsOnVocabularylessIndex(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-index", "../../retrieval/testdata/index_v1.gob", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	deadline := time.After(10 * time.Second)
	for !strings.Contains(stdout.String(), "listening on") {
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v (stderr: %s)", err, stderr.String())
		case <-deadline:
			t.Fatalf("daemon never came up; stdout: %s", stdout.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "WARNING: index has no vocabulary") {
		t.Fatalf("missing startup warning; stderr: %q", stderr.String())
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run() writes from the
// daemon goroutine while the test polls String().
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestParseFlagErrors(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseFlags([]string{"-backend", "nope"}, &stderr)
	if err != nil {
		t.Fatal(err) // flag parsing succeeds; the backend is validated at build
	}
	if _, err := newRetriever(cfg); err == nil {
		t.Fatal("unknown backend should fail")
	}
	cfg, err = parseFlags([]string{"-weighting", "nope"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRetriever(cfg); err == nil {
		t.Fatal("unknown weighting should fail")
	}
	if _, err := parseFlags([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag should fail")
	}
	// -index fixes backend/rank/weighting at build time; combining it
	// with build flags or corpus files must be rejected, not ignored.
	if _, err := parseFlags([]string{"-index", "x.idx", "-backend", "vsm"}, &stderr); err == nil {
		t.Fatal("-index with -backend should fail")
	}
	if _, err := parseFlags([]string{"-index", "x.idx", "doc.txt"}, &stderr); err == nil {
		t.Fatal("-index with file arguments should fail")
	}
	if _, err := parseFlags([]string{"-index", "x.idx", "-addr", ":0"}, &stderr); err != nil {
		t.Fatalf("-index with serving flags should be fine: %v", err)
	}
}

// TestEndToEndServeSharded boots the daemon with -shards, appends a
// document over HTTP, searches for it, and checks /readyz — the full
// sharded live-serving path.
func TestEndToEndServeSharded(t *testing.T) {
	cfg, err := parseFlags([]string{"-k", "3", "-shards", "2"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ret.Close()
	if !ret.Sharded() {
		t.Fatal("-shards did not produce a sharded index")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() {
		api := httpapi.NewHandler(ret, httpapi.Options{})
		served <- serve(ctx, ln, api, api, 5*time.Second, &out)
	}()
	base := fmt.Sprintf("http://%s", ln.Addr())

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d", code)
	}

	body := strings.NewReader(`{"id":"live-1","text":"a turbocharged car engine"}`)
	resp, err := http.Post(base+"/v1/docs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var added httpapi.AddDocsResponse
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || added.Count != 1 {
		t.Fatalf("append: %d %+v", resp.StatusCode, added)
	}

	resp, err = http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"query":"turbocharged engine","topN":20}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr retrieval.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, r := range sr.Results {
		if r.ID == "live-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended doc missing from search results: %+v", sr.Results)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestServeSavedShardedDir saves a sharded index directory and serves it
// via -index, exercising retrieval.Open's directory path end to end.
func TestServeSavedShardedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded-idx")
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2), retrieval.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-index", dir}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ret.Close()
	if !ret.Sharded() || ret.NumDocs() != ix.NumDocs() {
		t.Fatalf("served index: sharded=%v docs=%d", ret.Sharded(), ret.NumDocs())
	}
	res, err := ret.Search(context.Background(), "car", 3)
	if err != nil || len(res) == 0 {
		t.Fatalf("search on served dir index: %v, %d results", err, len(res))
	}
}
