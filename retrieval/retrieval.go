// Package retrieval is the public face of the repository: one stable API
// for building, querying, persisting, and serving the retrieval systems
// the paper compares — rank-k latent semantic indexing (LSI) and the
// conventional vector-space model (VSM) baseline.
//
// The paper's argument is comparative (LSI rankings versus plain
// vector-space rankings over the same corpus), so both systems implement
// the same Retriever interface behind a single constructor:
//
//	ret, err := retrieval.BuildTexts(texts, retrieval.WithRank(3))
//	results, err := ret.Search(ctx, "car engine repair", 10)
//
// Indexes are text-in/text-out: Build bundles the tokenize → stopword →
// stem pipeline, the vocabulary, and the term weighting into the index,
// so queries are plain strings and results carry stable document IDs.
// Save writes a self-contained index (wire format v2) that answers text
// queries after Load without the corpus that built it; v1 files written
// before the format bump still load (see Load for the migration path).
//
// Every query path returns errors — malformed input never panics through
// the public API, and batch calls honor context cancellation. The
// internal packages keep their panic fast-paths; this package validates
// at the boundary.
//
// cmd/lsiserve exposes the same API over HTTP/JSON via the
// retrieval/httpapi handler; cmd/lsiquery drives it from the terminal.
package retrieval

import (
	"context"
	"errors"
	"fmt"

	"repro/retrieval/cache"
)

// Retriever is the query contract shared by every backend, the cluster
// router and its replicas. Query text is preprocessed by the same
// pipeline the index was built with; both search methods honor ctx
// cancellation and return ranked results best-first with ties broken by
// document position for determinism.
type Retriever interface {
	// Query runs one search request — a text query or a raw term-space
	// vector, at the configured or a per-request probe budget — and
	// returns the topN best documents (all documents if TopN <= 0). A
	// text query with no known term fails with ErrNoQueryTerms.
	Query(ctx context.Context, req SearchRequest) (SearchResponse, error)
	// SearchBatch runs many text queries, fanning work across CPUs.
	// Unlike Query, a query with no in-vocabulary terms yields an empty
	// result slice rather than failing the whole batch.
	SearchBatch(ctx context.Context, queries []string, topN int) ([][]Result, error)
	// NumDocs returns the number of indexed documents.
	NumDocs() int
	// Stats describes the index (backend, dimensions, rank, weighting).
	Stats() Stats
}

// SearchRequest is one search, and the JSON body of POST /v1/search.
// Exactly one of Query and Vector must be set (see Validate).
type SearchRequest struct {
	// Query is raw query text, preprocessed by the index's pipeline.
	Query string `json:"query,omitempty"`
	// Vector is a raw term-space query; its length must equal the
	// index's vocabulary size.
	Vector []float64 `json:"vector,omitempty"`
	// TopN is the result count (<= 0 means every document).
	TopN int `json:"topN,omitempty"`
	// NProbe overrides the probe budget for this request: nil is the
	// configured default (see WithANN), 0 forces the fully exact scan
	// (float64 kernels over every document, bypassing both tiers), and
	// n > 0 scores n cells per quantizer (clamped to nlist) while keeping
	// the configured quantized rerank. Indexes without an ANN tier serve
	// every budget through the tiers they do have.
	NProbe *int `json:"nprobe,omitempty"`
}

// Validate checks the request's shape: exactly one of Query and Vector,
// and a non-negative NProbe. Failures wrap ErrInvalidRequest.
func (r SearchRequest) Validate() error {
	if (r.Query != "") == (len(r.Vector) > 0) {
		return fmt.Errorf("%w: exactly one of \"query\" and \"vector\" must be set", ErrInvalidRequest)
	}
	if r.NProbe != nil && *r.NProbe < 0 {
		return fmt.Errorf("%w: nprobe must be >= 0, got %d", ErrInvalidRequest, *r.NProbe)
	}
	return nil
}

// SearchResponse is the answer to one SearchRequest, and the JSON body
// of a successful POST /v1/search.
type SearchResponse struct {
	// Results are the ranked hits, best first.
	Results []Result `json:"results"`
	// Cache is the query cache's disposition of the lookup (StatusBypass
	// when no cache was consulted: an uncached index, a vector query, or
	// a per-request budget). The HTTP layer sends it as Cache-Status.
	Cache cache.Status `json:"-"`
	// Partial reports a fan-out answered from a degraded quorum: the
	// results are a correct merge of the shards that answered. The HTTP
	// layer sends it as X-Partial-Results.
	Partial bool `json:"-"`
}

// Result is one ranked retrieval hit.
type Result struct {
	// Doc is the document's position in build order.
	Doc int `json:"doc"`
	// ID is the document's external identifier (from Document.ID, or a
	// generated "doc-<n>" default).
	ID string `json:"id"`
	// Score is the cosine similarity between query and document — in the
	// rank-k latent space for the LSI backend, in raw term space for VSM.
	//
	// The text, vector and batch paths are one path, so they return
	// identical scores and rankings (including the document-ID
	// tie-break). Across releases scores are stable to within 1e-12:
	// hot-path kernel changes may move the last ulps.
	Score float64 `json:"score"`
}

// Document is one input to Build: an external identifier and raw text.
type Document struct {
	// ID is the stable identifier returned in Results; empty means a
	// generated "doc-<n>" default.
	ID string
	// Text is the document's raw text, preprocessed by the index's
	// pipeline (tokenize, optional stopword removal, optional stemming).
	Text string
}

// Stats describes an index.
type Stats struct {
	// Backend is "lsi" or "vsm".
	Backend string `json:"backend"`
	// Sharded reports the sharded live index (WithShards); the Shard*
	// fields below are only populated when it is set.
	Sharded bool `json:"sharded,omitempty"`
	// NumDocs and NumTerms are the index dimensions.
	NumDocs  int `json:"numDocs"`
	NumTerms int `json:"numTerms"`
	// Rank is the retained LSI rank k (0 for the VSM backend, which has
	// no latent space; the per-shard rank for sharded indexes).
	Rank int `json:"rank,omitempty"`
	// Weighting names the term-weighting function of the term-document
	// matrix.
	Weighting string `json:"weighting"`
	// TextQueries reports whether the index carries a vocabulary and can
	// answer text queries (false only for v1-format files loaded without
	// WithTextConfig).
	TextQueries bool `json:"textQueries"`
	// VocabSize is the number of terms in the bundled vocabulary (0 when
	// the index has none; otherwise equal to NumTerms).
	VocabSize int `json:"vocabSize"`
	// MemoryBytes estimates the index's heap footprint: the backend's
	// numeric payload (latent matrices for LSI, postings + retained
	// matrix for VSM, every segment for sharded indexes) plus the text
	// layer (vocabulary and document ID strings).
	MemoryBytes int64 `json:"memoryBytes"`

	// Epoch is the index-wide mutation epoch of a sharded live index
	// (advances after every published Add batch and compaction swap);
	// permanently 0 for immutable indexes. Local to this process — see
	// Index.Epoch.
	Epoch uint64 `json:"epoch"`
	// Generation is the manifest generation of the newest durable
	// checkpoint of a sharded live index (0 for immutable indexes and
	// for sharded indexes never saved); comparable across a primary and
	// its replicas — see Index.Generation.
	Generation uint64 `json:"generation"`

	// Sharded-index topology (zero unless Sharded).
	Shards            int   `json:"shards,omitempty"`
	Segments          int   `json:"segments,omitempty"`
	LiveSegments      int   `json:"liveSegments,omitempty"`
	SealedPending     int   `json:"sealedPending,omitempty"`
	CompactedSegments int   `json:"compactedSegments,omitempty"`
	FoldedDocs        int   `json:"foldedDocs,omitempty"`
	Compactions       int64 `json:"compactions,omitempty"`
	// Ready is false while the index owes compaction work (see
	// Index.Ready); always true for unsharded indexes.
	Ready bool `json:"ready"`

	// Cache reports the query result cache (WithQueryCache); nil when
	// the index is uncached.
	Cache *QueryCacheStats `json:"cache,omitempty"`

	// ANN reports the IVF ANN tier (WithANN); nil when the index has
	// none.
	ANN *ANNStats `json:"ann,omitempty"`

	// Quant reports the quantized scoring tier (WithQuantized); nil when
	// the index has none.
	Quant *QuantStats `json:"quant,omitempty"`
}

// QueryCacheStats describes the query result cache of an index built
// with WithQueryCache: the hit/miss/coalesce/evict counters and working
// set of the underlying cache, plus the index epoch its keys currently
// embed (0 forever on immutable indexes; advancing with every Add batch
// and compaction on sharded live indexes).
type QueryCacheStats struct {
	cache.Stats
	Epoch uint64 `json:"epoch"`
}

// Sentinel errors returned by the query and build paths; test with
// errors.Is — returned errors may wrap them with context.
var (
	// ErrEmptyCorpus reports a Build over no documents, or documents
	// whose every token is removed by preprocessing.
	ErrEmptyCorpus = errors.New("retrieval: corpus is empty after preprocessing")
	// ErrNoQueryTerms reports a text query with no token in the index
	// vocabulary (after the same preprocessing the corpus went through).
	ErrNoQueryTerms = errors.New("retrieval: no query terms in the index vocabulary")
	// ErrNoVocabulary reports a text query against an index without a
	// bundled vocabulary (a v1-format file loaded without WithTextConfig).
	ErrNoVocabulary = errors.New("retrieval: index has no vocabulary; text queries unavailable (load v1 indexes with WithTextConfig, or re-save as v2)")
	// ErrInvalidRequest reports a malformed SearchRequest: both or
	// neither of Query and Vector set, or a negative NProbe.
	ErrInvalidRequest = errors.New("retrieval: invalid search request")
	// ErrVectorLength reports a raw query vector whose length differs
	// from the index vocabulary size.
	ErrVectorLength = errors.New("retrieval: query vector length does not match the index vocabulary")
)
