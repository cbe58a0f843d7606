package retrieval

import (
	"context"
	"errors"
	"testing"
)

func demoLSI(t *testing.T, opts ...Option) *Index {
	t.Helper()
	ix, err := Build(DemoCorpus(), append([]Option{WithRank(3), WithEngine(EngineDense)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildEmptyCorpus(t *testing.T) {
	if _, err := Build(nil); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("Build(nil) = %v, want ErrEmptyCorpus", err)
	}
	// Every token is a stopword: preprocessing empties the vocabulary.
	if _, err := BuildTexts([]string{"the and of", "a an it"}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("all-stopword corpus = %v, want ErrEmptyCorpus", err)
	}
}

func TestLSISynonymyRetrieval(t *testing.T) {
	ix := demoLSI(t)
	res, err := ix.Search(context.Background(), "car", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	// The paper's synonymy effect: LSI must surface the "automobile"
	// documents (1 and 2) for a "car" query even though they never use
	// the word.
	got := map[int]bool{}
	for _, r := range res {
		got[r.Doc] = true
		if r.ID != DemoCorpus()[r.Doc].ID {
			t.Fatalf("doc %d carries ID %q, want %q", r.Doc, r.ID, DemoCorpus()[r.Doc].ID)
		}
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !got[want] {
			t.Fatalf("LSI top-4 for \"car\" = %+v, missing vehicle doc %d", res, want)
		}
	}
}

func TestVSMBaselineMissesSynonyms(t *testing.T) {
	ix, err := Build(DemoCorpus(), WithBackend(BackendVSM))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rank() != 0 {
		t.Fatalf("VSM rank = %d, want 0", ix.Rank())
	}
	res, err := ix.Search(context.Background(), "car", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Literal matching retrieves only the documents containing "car".
	for _, r := range res {
		if r.Doc == 1 || r.Doc == 2 {
			t.Fatalf("VSM retrieved synonym-only doc %d for \"car\": %+v", r.Doc, res)
		}
	}
}

func TestSearchErrorContracts(t *testing.T) {
	ix := demoLSI(t)
	ctx := context.Background()

	if _, err := ix.Search(ctx, "zzzunknownzzz", 3); !errors.Is(err, ErrNoQueryTerms) {
		t.Fatalf("unknown-vocabulary query = %v, want ErrNoQueryTerms", err)
	}
	if _, err := ix.Query(ctx, SearchRequest{Vector: []float64{1, 2, 3}, TopN: 3}); !errors.Is(err, ErrVectorLength) {
		t.Fatalf("short vector = %v, want ErrVectorLength", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ix.Search(canceled, "car", 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Search = %v, want context.Canceled", err)
	}
	if _, err := ix.SearchBatch(canceled, []string{"car"}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SearchBatch = %v, want context.Canceled", err)
	}
}

func TestSearchVectorMatchesTextSearch(t *testing.T) {
	ix := demoLSI(t)
	ctx := context.Background()
	fromText, err := ix.Search(ctx, "galaxy stars", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Densify the sparse query the text path uses: the dense vector
	// request must agree with the sparse hot path bitwise.
	terms, weights, known := ix.querySparse("galaxy stars")
	if known == 0 {
		t.Fatal("demo query missed the vocabulary")
	}
	q := make([]float64, ix.NumTerms())
	for i, term := range terms {
		q[term] = weights[i]
	}
	resp, err := ix.Query(ctx, SearchRequest{Vector: q, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	fromVec := resp.Results
	for i := range fromText {
		if fromText[i] != fromVec[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, fromText[i], fromVec[i])
		}
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	for _, backend := range []Backend{BackendLSI, BackendVSM} {
		ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		queries := []string{"car engine", "zzzunknownzzz", "pasta garlic", "telescope galaxy"}
		batch, err := ix.SearchBatch(ctx, queries, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("%v: %d batch results for %d queries", backend, len(batch), len(queries))
		}
		if len(batch[1]) != 0 || batch[1] == nil {
			t.Fatalf("%v: unknown-vocabulary query should give empty non-nil results, got %#v", backend, batch[1])
		}
		for i, q := range queries {
			if i == 1 {
				continue
			}
			single, err := ix.Search(ctx, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != len(batch[i]) {
				t.Fatalf("%v query %d: batch %d results, single %d", backend, i, len(batch[i]), len(single))
			}
			for j := range single {
				if single[j] != batch[i][j] {
					t.Fatalf("%v query %d result %d: %+v vs %+v", backend, i, j, batch[i][j], single[j])
				}
			}
		}
	}
}

func TestStats(t *testing.T) {
	ix := demoLSI(t)
	s := ix.Stats()
	if s.Backend != "lsi" || s.NumDocs != 12 || s.Rank != 3 || s.Weighting != "log" || !s.TextQueries {
		t.Fatalf("stats = %+v", s)
	}
	if s.NumTerms != ix.NumTerms() || s.NumTerms == 0 {
		t.Fatalf("stats terms = %d, index %d", s.NumTerms, ix.NumTerms())
	}
}

func TestAutoRank(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{10, 12, 2},      // tiny corpus floors at 2
		{69, 12, 3},      // demo-corpus shape
		{2000, 900, 100}, // large corpora cap at 100
	}
	for _, c := range cases {
		if got := autoRank(c.n, c.m); got != c.want {
			t.Fatalf("autoRank(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, w := range []Weighting{WeightingCount, WeightingBinary, WeightingLog, WeightingTFIDF} {
		got, err := ParseWeighting(w.String())
		if err != nil || got != w {
			t.Fatalf("ParseWeighting(%q) = %v, %v", w.String(), got, err)
		}
	}
	if _, err := ParseWeighting("nope"); err == nil {
		t.Fatal("ParseWeighting should reject unknown names")
	}
	for _, b := range []Backend{BackendLSI, BackendVSM} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBackend("nope"); err == nil {
		t.Fatal("ParseBackend should reject unknown names")
	}
}

func TestWeightingOptionsBuild(t *testing.T) {
	// Every weighting (including TF-IDF, whose queries fall back to raw
	// counts) must build and answer queries on both backends.
	for _, w := range []Weighting{WeightingCount, WeightingBinary, WeightingLog, WeightingTFIDF} {
		for _, b := range []Backend{BackendLSI, BackendVSM} {
			ix, err := Build(DemoCorpus(), WithRank(3), WithWeighting(w), WithBackend(b))
			if err != nil {
				t.Fatalf("%v/%v: %v", w, b, err)
			}
			res, err := ix.Search(context.Background(), "garlic pasta", 2)
			if err != nil {
				t.Fatalf("%v/%v: %v", w, b, err)
			}
			if len(res) == 0 || res[0].Doc < 8 {
				t.Fatalf("%v/%v: cooking query returned %+v", w, b, res)
			}
		}
	}
}
