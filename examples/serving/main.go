// Serving: the production-shaped lifecycle of the public retrieval API —
// build an index, save it to disk as a self-contained file, load it back
// with no access to the corpus, and serve it over HTTP/JSON, querying it
// like a client of cmd/lsiserve would.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/retrieval"
	"repro/retrieval/httpapi"
)

func main() {
	// 1. Build a rank-3 LSI index over the demo corpus.
	index, err := retrieval.Build(retrieval.DemoCorpus(), retrieval.WithRank(3))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Save it: wire format v2 bundles the vocabulary, weighting, and
	// document IDs, so the file is all a server needs.
	dir, err := os.MkdirTemp("", "lsi-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.idx")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := index.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("Saved self-contained index: %s (%d bytes)\n", filepath.Base(path), fi.Size())

	// 3. Load it back — text queries work without the corpus.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := retrieval.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	stats := loaded.Stats()
	fmt.Printf("Loaded: backend=%s docs=%d terms=%d rank=%d textQueries=%v\n",
		stats.Backend, stats.NumDocs, stats.NumTerms, stats.Rank, stats.TextQueries)

	// 4. Serve it over HTTP on a random port (what lsiserve does).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.NewHandler(loaded, httpapi.Options{})}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := fmt.Sprintf("http://%s", ln.Addr())

	// 5. Query it like a client: the synonymy effect over the wire.
	resp, err := http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"query":"car engine","topN":4}`))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var sr retrieval.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /v1/search {\"query\":\"car engine\"} → %s\n", resp.Status)
	for _, r := range sr.Results {
		fmt.Printf("  %-8s score=%.3f\n", r.ID, r.Score)
	}
	fmt.Println("\ndemo-01 and demo-02 never contain \"car\" — the LSI space")
	fmt.Println("retrieves them anyway, served from a file via plain HTTP.")
}
