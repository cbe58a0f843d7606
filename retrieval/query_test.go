package retrieval

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"repro/retrieval/cache"
)

// TestQueryContracts pins Index.Query's error contract: the shape rules
// of SearchRequest.Validate, the vector length, the vocabulary of a
// text query, and cancellation.
func TestQueryContracts(t *testing.T) {
	ix := demoLSI(t)
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	vec := make([]float64, ix.NumTerms())
	vec[0] = 1
	neg, zero := -1, 0
	for _, tc := range []struct {
		name string
		ix   *Index
		ctx  context.Context
		req  SearchRequest
		want error
	}{
		{"both query and vector", ix, nil, SearchRequest{Query: "car", Vector: vec}, ErrInvalidRequest},
		{"neither query nor vector", ix, nil, SearchRequest{TopN: 3}, ErrInvalidRequest},
		{"negative nprobe", ix, nil, SearchRequest{Query: "car", NProbe: &neg}, ErrInvalidRequest},
		{"negative nprobe on a vector", ix, nil, SearchRequest{Vector: vec, NProbe: &neg}, ErrInvalidRequest},
		{"short vector", ix, nil, SearchRequest{Vector: []float64{1, 2, 3}}, ErrVectorLength},
		{"text without a vocabulary", v1, nil, SearchRequest{Query: "car"}, ErrNoVocabulary},
		{"unknown terms", ix, nil, SearchRequest{Query: "zzzunknownzzz", NProbe: &zero}, ErrNoQueryTerms},
		{"canceled text", ix, canceled, SearchRequest{Query: "car"}, context.Canceled},
		{"canceled vector", ix, canceled, SearchRequest{Vector: vec}, context.Canceled},
	} {
		ctx := tc.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		resp, err := tc.ix.Query(ctx, tc.req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if resp.Results != nil {
			t.Errorf("%s: %d results alongside the error", tc.name, len(resp.Results))
		}
	}
	// A vector query needs no vocabulary.
	if _, err := v1.Query(context.Background(), SearchRequest{Vector: make([]float64, v1.NumTerms())}); err != nil {
		t.Fatalf("vector query on a v1 index: %v", err)
	}
}

// TestQueryCacheOnlyOnDefaultTextPath: the query cache serves text
// requests at the default budget and reports its disposition; vector
// and per-request-budget requests bypass it with identical results.
func TestQueryCacheOnlyOnDefaultTextPath(t *testing.T) {
	ix := demoLSI(t, WithQueryCache(1<<20))
	ctx := context.Background()
	text := SearchRequest{Query: "car engine", TopN: 5}
	first, err := ix.Query(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ix.Query(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != cache.StatusMiss || second.Cache != cache.StatusHit {
		t.Fatalf("default text path: statuses %v, %v, want miss, hit", first.Cache, second.Cache)
	}

	terms, weights, _ := ix.querySparse(text.Query)
	vec := make([]float64, ix.NumTerms())
	for i, term := range terms {
		vec[term] = weights[i]
	}
	exact := 0
	before, _ := ix.CacheStats()
	for name, req := range map[string]SearchRequest{
		"vector":          {Vector: vec, TopN: 5},
		"text nprobe 0":   {Query: text.Query, TopN: 5, NProbe: &exact},
		"vector nprobe 0": {Vector: vec, TopN: 5, NProbe: &exact},
	} {
		resp, err := ix.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != cache.StatusBypass {
			t.Errorf("%s: cache status %v, want bypass", name, resp.Cache)
		}
		sameResults(t, resp.Results, first.Results, name)
	}
	after, _ := ix.CacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("bypassing requests touched the cache: %+v -> %+v", before.Stats, after.Stats)
	}
}
