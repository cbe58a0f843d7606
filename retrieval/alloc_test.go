package retrieval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/race"
)

// Allocation regression for the text hot path. A text query necessarily
// allocates a little O(len(query)) state — token strings from the
// pipeline, the term-count map, the sparse term/weight slices, and the
// returned results — but the backend scan itself must contribute
// nothing: allocations may not grow with the corpus. That is the
// observable difference between the pooled sparse hot path and the old
// one, which allocated a vocabulary-length query vector plus a
// corpus-length match slice (and, for VSM, a score map) per query.

// synthTexts generates n documents over a shared vocabulary so the big
// and small corpora exercise identical query prep.
func synthTexts(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{
		"engine", "carburetor", "gearbox", "piston", "clutch", "galaxy",
		"nebula", "telescope", "quasar", "orbit", "garlic", "basil",
		"risotto", "saffron", "gnocchi", "violin", "sonata", "tempo",
	}
	texts := make([]string, n)
	for i := range texts {
		var s string
		for j := 0; j < 12; j++ {
			s += vocab[rng.Intn(len(vocab))] + " "
		}
		texts[i] = s
	}
	return texts
}

func TestTextSearchAllocsIndependentOfCorpusSize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	prev := par.SetMaxProcs(1)
	t.Cleanup(func() { par.SetMaxProcs(prev) })
	ctx := context.Background()
	const query = "galaxy telescope engine"
	for _, backend := range []Backend{BackendLSI, BackendVSM} {
		t.Run(backend.String(), func(t *testing.T) {
			measure := func(numDocs int) float64 {
				ix, err := BuildTexts(synthTexts(numDocs, 7331),
					WithBackend(backend), WithRank(3), WithEngine(EngineDense))
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(200, func() {
					if _, err := ix.Search(ctx, query, 10); err != nil {
						t.Fatal(err)
					}
				})
			}
			small := measure(20)
			large := measure(600)
			if large > small {
				t.Fatalf("allocs grew with the corpus: %v/op at 600 docs vs %v/op at 20 (backend scan must be allocation-free)", large, small)
			}
			// Absolute ceiling so query-prep allocations cannot creep
			// either: tokenization + counts map + sparse slices + results.
			if small > 24 {
				t.Fatalf("%v allocs/op for a 3-token query, want <= 24", small)
			}
		})
	}
}

// TestOneShardSearchAllocsMatchUnsharded: a 1-shard live index searches
// through the same container as an unsharded one, and its published
// segment list is handed to the scan without a per-query copy.
func TestOneShardSearchAllocsMatchUnsharded(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	prev := par.SetMaxProcs(1)
	t.Cleanup(func() { par.SetMaxProcs(prev) })
	ctx := context.Background()
	measure := func(opts ...Option) float64 {
		ix, err := Build(DemoCorpus(), append([]Option{WithRank(3), WithEngine(EngineDense)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		return testing.AllocsPerRun(200, func() {
			if _, err := ix.Search(ctx, "car engine", 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, plain := measure(WithShards(1), WithAutoCompact(false)), measure(); one != plain {
		t.Fatalf("WithShards(1) search: %v allocs/op, unsharded %v", one, plain)
	}
}

func TestSearchVectorMatchesSparseTextPath(t *testing.T) {
	// The dense vector request and the sparse text path must agree
	// bitwise — same ranking, same scores — for both backends.
	ctx := context.Background()
	for _, backend := range []Backend{BackendLSI, BackendVSM} {
		t.Run(backend.String(), func(t *testing.T) {
			ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			for _, query := range []string{"car engine repair", "galaxy stars telescope", "pasta garlic pasta"} {
				fromText, err := ix.Search(ctx, query, 5)
				if err != nil {
					t.Fatal(err)
				}
				terms, weights, known := ix.querySparse(query)
				if known == 0 {
					t.Fatalf("query %q missed the vocabulary", query)
				}
				dense := make([]float64, ix.NumTerms())
				for i, term := range terms {
					dense[term] = weights[i]
				}
				resp, err := ix.Query(ctx, SearchRequest{Vector: dense, TopN: 5})
				if err != nil {
					t.Fatal(err)
				}
				fromVec := resp.Results
				if len(fromText) != len(fromVec) {
					t.Fatalf("%q: %d vs %d results", query, len(fromText), len(fromVec))
				}
				for i := range fromText {
					if fromText[i] != fromVec[i] {
						t.Fatalf("%q result %d: text %+v != vector %+v", query, i, fromText[i], fromVec[i])
					}
				}
			}
		})
	}
}
