package retrieval

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// largerCorpus recycles the demo corpus with suffix variation so shard
// tests have enough documents to spread across shards.
func largerCorpus(n int) []Document {
	demo := DemoCorpus()
	docs := make([]Document, n)
	for i := range docs {
		d := demo[i%len(demo)]
		docs[i] = Document{
			ID:   fmt.Sprintf("%s-v%d", d.ID, i/len(demo)),
			Text: d.Text,
		}
	}
	return docs
}

func sameResults(t *testing.T, got, want []Result, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v (bitwise)", context, i, got[i], want[i])
		}
	}
}

func TestShardedOneShardMatchesUnsharded(t *testing.T) {
	docs := largerCorpus(24)
	opts := []Option{WithRank(3), WithEngine(EngineRandomized), WithSeed(7)}
	plain, err := Build(docs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(docs, append(opts, WithShards(1), WithAutoCompact(false))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if !sharded.Sharded() || plain.Sharded() {
		t.Fatal("Sharded() flags wrong")
	}
	ctx := context.Background()
	for _, q := range []string{"car", "galaxy of stars", "cooking recipes", "automobile engine"} {
		for _, topN := range []int{1, 5, 0} {
			want, err1 := plain.Search(ctx, q, topN)
			got, err2 := sharded.Search(ctx, q, topN)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error mismatch: %v vs %v", err1, err2)
			}
			sameResults(t, got, want, q)
		}
	}
	// Batch path too.
	qs := []string{"car", "zzzznotaword", "galaxy"}
	want, err := plain.SearchBatch(ctx, qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.SearchBatch(ctx, qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		sameResults(t, got[i], want[i], qs[i])
	}
}

func TestShardedLiveAdd(t *testing.T) {
	docs := largerCorpus(20)
	ix, err := Build(docs, WithRank(3), WithShards(3), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()

	first, err := ix.Add(ctx, []Document{
		{ID: "new-car", Text: "a shiny new car with a powerful engine"},
		{Text: "stars and galaxies in deep space"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 20 {
		t.Fatalf("first = %d, want 20", first)
	}
	if ix.NumDocs() != 22 {
		t.Fatalf("NumDocs %d, want 22", ix.NumDocs())
	}
	if got := ix.DocID(20); got != "new-car" {
		t.Fatalf("DocID(20) = %q", got)
	}
	if got := ix.DocID(21); got != "doc-21" {
		t.Fatalf("DocID(21) = %q, want generated default", got)
	}

	// The added car document must be retrievable by a car query.
	res, err := ix.Search(ctx, "car engine", 22)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Doc == 20 {
			if r.ID != "new-car" {
				t.Fatalf("result carries ID %q", r.ID)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("added document missing from results")
	}

	// Unsharded indexes refuse live updates.
	plain, err := Build(docs, WithRank(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Add(ctx, []Document{{Text: "x"}}); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("plain Add = %v, want ErrImmutableIndex", err)
	}
}

func TestShardedStats(t *testing.T) {
	docs := largerCorpus(30)
	ix, err := Build(docs, WithRank(3), WithShards(2), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	st := ix.Stats()
	if !st.Sharded || st.Shards != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Backend != "lsi" || st.Rank != 3 {
		t.Fatalf("backend/rank: %+v", st)
	}
	if st.VocabSize == 0 || st.VocabSize != st.NumTerms {
		t.Fatalf("vocab size %d vs terms %d", st.VocabSize, st.NumTerms)
	}
	if st.MemoryBytes <= 0 {
		t.Fatalf("memory estimate %d", st.MemoryBytes)
	}
	if st.Segments != 2 || !st.Ready {
		t.Fatalf("segments/ready: %+v", st)
	}

	// Ingest past the seal threshold: sealed segments appear and the
	// index stops reporting ready until compacted.
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := ix.Add(ctx, []Document{{Text: "car engine repair manual"}}); err != nil {
			t.Fatal(err)
		}
	}
	st = ix.Stats()
	if st.SealedPending == 0 || st.Ready {
		t.Fatalf("after ingest: %+v", st)
	}
	if st.NumDocs != 40 || st.FoldedDocs != 10 {
		t.Fatalf("doc counts: %+v", st)
	}
	if n, err := ix.Compact(); err != nil || n == 0 {
		t.Fatalf("compact: %d, %v", n, err)
	}
	st = ix.Stats()
	if !st.Ready || st.SealedPending != 0 || st.Compactions == 0 {
		t.Fatalf("after compact: %+v", st)
	}
}

func TestUnshardedStatsMemoryAndVocab(t *testing.T) {
	for _, backend := range []Backend{BackendLSI, BackendVSM} {
		ix, err := Build(DemoCorpus(), WithBackend(backend), WithRank(3))
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		if st.VocabSize == 0 {
			t.Fatalf("%s: vocab size 0 with a text layer attached", backend)
		}
		if st.MemoryBytes <= 0 {
			t.Fatalf("%s: memory estimate %d", backend, st.MemoryBytes)
		}
		if !st.Ready {
			t.Fatalf("%s: unsharded index not ready", backend)
		}
	}
}

// TestUnshardedIndexContract pins what an unsharded LSI index is, built
// or opened: immutable (Add, SaveDir and the WAL refuse it), never
// Sharded, no topology in Stats, and both tiers trained onto its one
// segment at any corpus size, reporting the post-clamp cell count.
func TestUnshardedIndexContract(t *testing.T) {
	ctx := context.Background()
	docs := DemoCorpus()
	tiers := []Option{WithANN(64, 4), WithQuantized(2)}
	built, err := Build(docs, append([]Option{WithRank(3), WithEngine(EngineDense)}, tiers...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "demo.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, tiers...)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for name, ix := range map[string]*Index{"built": built, "opened": opened} {
		st := ix.Stats()
		topology := Stats{Backend: st.Backend, NumDocs: st.NumDocs, NumTerms: st.NumTerms, Rank: st.Rank,
			Weighting: st.Weighting, TextQueries: st.TextQueries, VocabSize: st.VocabSize,
			MemoryBytes: st.MemoryBytes, Ready: true, Cache: st.Cache, ANN: st.ANN, Quant: st.Quant}
		if ix.Sharded() || st != topology {
			t.Fatalf("%s: Sharded() %v, stats carry live-index fields: %+v", name, ix.Sharded(), st)
		}
		if a := st.ANN; a == nil || a.NList != len(docs) || a.NProbe != 4 || a.Segments != 1 || a.Docs != len(docs) {
			t.Fatalf("%s: ANN stats %+v, want nlist clamped to %d on one segment", name, a, len(docs))
		}
		if q := st.Quant; q == nil || q.Beta != 2 || q.Segments != 1 || q.Docs != len(docs) {
			t.Fatalf("%s: quant stats %+v, want one int8 segment over %d docs", name, q, len(docs))
		}
		if _, err := ix.Add(ctx, []Document{{Text: "car engine"}}); !errors.Is(err, ErrImmutableIndex) {
			t.Fatalf("%s: Add = %v, want ErrImmutableIndex", name, err)
		}
		if err := ix.SaveDir(t.TempDir()); !errors.Is(err, ErrNotSharded) {
			t.Fatalf("%s: SaveDir = %v, want ErrNotSharded", name, err)
		}
		if _, err := ix.AttachWAL(t.TempDir()); !errors.Is(err, ErrNotSharded) {
			t.Fatalf("%s: AttachWAL = %v, want ErrNotSharded", name, err)
		}
		if _, ok := ix.LiveStats(); ok {
			t.Fatalf("%s: LiveStats reported for an immutable index", name)
		}
	}
}

// TestOneShardMemoryMatchesUnsharded: a 1-shard live index holds what
// the unsharded index holds, so the two memory estimates agree.
func TestOneShardMemoryMatchesUnsharded(t *testing.T) {
	opts := []Option{WithRank(3), WithEngine(EngineDense)}
	plain, err := Build(DemoCorpus(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Build(DemoCorpus(), append(opts, WithShards(1), WithAutoCompact(false))...)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if got, want := one.Stats().MemoryBytes, plain.Stats().MemoryBytes; got != want {
		t.Fatalf("WithShards(1) estimates %d bytes, unsharded %d", got, want)
	}
}

func TestShardedSaveDirOpenRoundTrip(t *testing.T) {
	docs := largerCorpus(26)
	ix, err := Build(docs, WithRank(3), WithShards(3), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	if _, err := ix.Add(ctx, []Document{{ID: "late", Text: "spiral galaxy telescope"}}); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "sharded-idx")
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Save to a stream must refuse.
	if err := ix.Save(discardWriter{}); err == nil {
		t.Fatal("stream Save of a sharded index did not fail")
	}

	re, err := Open(dir, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Sharded() {
		t.Fatal("reloaded index not sharded")
	}
	if re.NumDocs() != ix.NumDocs() {
		t.Fatalf("reloaded NumDocs %d, want %d", re.NumDocs(), ix.NumDocs())
	}
	for _, q := range []string{"car", "galaxy telescope", "cooking"} {
		want, err := ix.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, q)
	}
	if re.DocID(26) != "late" {
		t.Fatalf("reloaded DocID(26) = %q", re.DocID(26))
	}
	// The reloaded index stays live.
	if _, err := re.Add(ctx, []Document{{Text: "fresh pasta recipe"}}); err != nil {
		t.Fatal(err)
	}
	if re.NumDocs() != ix.NumDocs()+1 {
		t.Fatalf("reloaded NumDocs %d after add", re.NumDocs())
	}

	// Opening a plain file through Open still works.
	plain, err := Build(docs[:8], WithRank(3))
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "plain.idx")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(file)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Sharded() || reloaded.NumDocs() != 8 {
		t.Fatalf("plain Open: sharded=%v docs=%d", reloaded.Sharded(), reloaded.NumDocs())
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
