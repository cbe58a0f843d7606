package retrieval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/par"
)

// The one search path: Search, SearchVector, SearchBatch and SearchProbe
// all rank through Index.search, so they agree bitwise on every backend
// and tier configuration.

func TestSearchBatchParallelMatchesSearch(t *testing.T) {
	prev := par.SetMaxProcs(4)
	defer par.SetMaxProcs(prev)
	ctx := context.Background()
	queries := make([]string, 130) // more than two batch chunks
	words := []string{"car", "engine", "telescope", "nebula", "yeast", "dough", "zzzunknownzzz", "mechanic comet"}
	for i := range queries {
		queries[i] = words[i%len(words)] + " " + words[(i*3+1)%len(words)]
	}
	for _, tc := range []struct {
		name string
		docs int
		opts []Option
	}{
		// Corpus sizes put several queries' worth of scan work under one
		// par grain, so the batch fans out across workers.
		{"lsi", 600, []Option{WithRank(8), WithEngine(EngineDense)}},
		{"vsm", 5000, []Option{WithBackend(BackendVSM)}},
		{"tiered", 600, []Option{WithRank(8), WithEngine(EngineDense), WithANN(8, 2), WithQuantized(2)}},
		{"sharded", 600, []Option{WithRank(8), WithShards(3), WithAutoCompact(false)}},
		{"cached", 600, []Option{WithRank(8), WithEngine(EngineDense), WithQueryCache(1 << 20)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(topicDocs(tc.docs), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			batch, err := ix.SearchBatch(ctx, queries, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				single, err := ix.Search(ctx, q, 10)
				if err != nil {
					if len(batch[i]) != 0 || batch[i] == nil {
						t.Fatalf("query %q: batch %#v for a query Search rejects (%v)", q, batch[i], err)
					}
					continue
				}
				sameResults(t, batch[i], single, fmt.Sprintf("query %d %q", i, q))
			}
		})
	}
}

func TestZeroVectorQuery(t *testing.T) {
	// An all-zero query folds to the zero vector: every LSI document
	// scores 0 and ranks by position; VSM matches nothing.
	ctx := context.Background()
	for _, backend := range []Backend{BackendLSI, BackendVSM} {
		ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]float64, ix.NumTerms())
		for _, topN := range []int{0, 3} {
			want := []Result{}
			if backend == BackendLSI {
				n := topN
				if n <= 0 {
					n = ix.NumDocs()
				}
				for d := 0; d < n; d++ {
					want = append(want, Result{Doc: d, ID: ix.DocID(d)})
				}
			}
			got, err := ix.SearchVector(ctx, zero, topN)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatalf("%v topN=%d: nil results, want a non-nil slice", backend, topN)
			}
			sameResults(t, got, want, fmt.Sprintf("%v topN=%d", backend, topN))
			exact, err := ix.SearchVectorProbe(ctx, zero, topN, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, exact, want, fmt.Sprintf("%v topN=%d exact", backend, topN))
		}
	}
}
