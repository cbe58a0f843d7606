package retrieval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
	"repro/internal/topk"
	"repro/internal/vsm"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// Index is the concrete Retriever produced by Build and Load. It bundles
// the backend (LSI latent space or VSM inverted index) with the text
// layer — vocabulary, weighting, pipeline flags, document IDs — so text
// queries work end to end, including on indexes loaded from disk.
type Index struct {
	backend Backend

	// sx holds every LSI index: the sharded live index of WithShards, or
	// — built without it, or loaded from a stream — a one-shard index of
	// one compacted segment (shard.New), so every LSI query, counter and
	// estimate goes through one container. live tells the two apart: only
	// a live index accepts Add, persists to a directory and attaches a
	// WAL; only an immutable one saves to a single stream. nil for VSM.
	sx   *shard.Index
	live bool
	// The VSM backend: the inverted index, the term-document matrix
	// (retained for persistence) and the document IDs (an LSI index's
	// live in its shard directory).
	vsmIndex *vsm.Index
	matrix   *sparse.CSR
	docIDs   []string

	vocab           *ir.Vocabulary // nil only for v1 files loaded without text config
	weighting       Weighting
	removeStopwords bool
	stemming        bool

	// The approximate tiers (WithANN, WithQuantized): annList is the cell
	// count, annProbe and quantBeta the default budget of Search (0 =
	// exhaustive, resp. float scoring).
	annList, annProbe, quantBeta int

	qc *queryCache // non-nil iff built/opened with WithQueryCache

	// wlog is the attached write-ahead log (AttachWAL); nil means Adds
	// are not logged. walMu serializes logged Adds and checkpoints so
	// logged positions mirror apply order exactly.
	wlog  *wal.Log
	walMu sync.Mutex
}

var _ Retriever = (*Index)(nil)

// Build indexes a corpus of documents and returns the Retriever for it.
// The zero-option call builds a log-weighted LSI index at an
// automatically chosen rank with stopword removal and stemming on; see
// the With* options for every knob. It returns ErrEmptyCorpus when no
// documents are given or preprocessing leaves an empty vocabulary.
func Build(docs []Document, opts ...Option) (*Index, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%w: no documents", ErrEmptyCorpus)
	}
	if cfg.annList > 0 && cfg.backend != BackendLSI {
		return nil, fmt.Errorf("retrieval: WithANN requires the LSI backend (got %s)", cfg.backend)
	}
	if cfg.quantBeta > 0 && cfg.backend != BackendLSI {
		return nil, errQuantBackend(cfg.backend)
	}
	cw, err := cfg.weighting.toCorpus()
	if err != nil {
		return nil, err
	}

	texts := make([]string, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
		ids[i] = d.ID
		if ids[i] == "" {
			ids[i] = fmt.Sprintf("doc-%d", i)
		}
	}
	pipe := &ir.Pipeline{
		RemoveStopwords: cfg.removeStopwords,
		Stemming:        cfg.stemming,
		Vocab:           ir.NewVocabulary(),
	}
	c := pipe.ProcessAll(texts)
	if c.NumTerms == 0 {
		return nil, fmt.Errorf("%w: every token was removed by preprocessing", ErrEmptyCorpus)
	}
	a := corpus.TermDocMatrix(c, cw)

	ix := &Index{
		backend:         cfg.backend,
		vocab:           pipe.Vocab,
		weighting:       cfg.weighting,
		removeStopwords: cfg.removeStopwords,
		stemming:        cfg.stemming,
	}
	switch {
	case cfg.shards > 0 && cfg.backend != BackendLSI:
		return nil, fmt.Errorf("retrieval: WithShards requires the LSI backend (got %s)", cfg.backend)
	case cfg.backend == BackendLSI:
		engine, err := cfg.engine.toLSI()
		if err != nil {
			return nil, err
		}
		rank := cfg.rank
		if rank <= 0 {
			rank = autoRank(c.NumTerms, len(c.Docs))
		}
		if cfg.shards > 0 {
			err = ix.buildSharded(a, ids, rank, engine, cfg)
		} else {
			err = ix.buildLSI(a, ids, rank, engine, cfg)
		}
		if err != nil {
			return nil, err
		}
	case cfg.backend == BackendVSM:
		ix.vsmIndex, ix.matrix, ix.docIDs = vsm.NewFromMatrix(a), a, ids
	default:
		return nil, fmt.Errorf("retrieval: unknown backend %d", int(cfg.backend))
	}
	ix.initCache(cfg.cacheBytes)
	return ix, nil
}

// buildLSI finishes an unsharded LSI Build: one decomposition of the
// whole matrix, wrapped as a one-shard index.
func (ix *Index) buildLSI(a *sparse.CSR, ids []string, rank int, engine lsi.Engine, cfg config) error {
	lx, err := lsi.Build(a, rank, lsi.Options{Engine: engine, Seed: cfg.seed})
	if err != nil {
		return fmt.Errorf("retrieval: building LSI index: %w", err)
	}
	return ix.setSingle(lx, ids, cfg)
}

// setSingle makes lx — built, or loaded from a stream — the index's
// one-shard LSI container, retaining ids. The configured tiers are
// trained onto its one segment at any corpus size (the sharded
// thresholds are for the segments ingest and compaction churn out),
// seeded exactly as shard 0 of a sharded build, so a rebuild or a
// reopen reproduces them.
func (ix *Index) setSingle(lx *lsi.Index, ids []string, cfg config) error {
	sx, err := shard.New(lx, ids, shard.Config{
		Seed:         cfg.seed,
		ANNList:      cfg.annList,
		ANNMinDocs:   1,
		Quantize:     cfg.quantBeta > 0,
		QuantMinDocs: 1,
	})
	if err != nil {
		return fmt.Errorf("retrieval: %w", err)
	}
	ix.sx = sx
	// ivf.Train clamps the cell count to the document count: report the
	// post-clamp truth.
	ix.annList, ix.annProbe, ix.quantBeta = min(cfg.annList, lx.NumDocs()), cfg.annProbe, cfg.quantBeta
	return nil
}

// BuildTexts is Build for bare strings; document IDs default to "doc-<n>".
func BuildTexts(texts []string, opts ...Option) (*Index, error) {
	docs := make([]Document, len(texts))
	for i, t := range texts {
		docs[i] = Document{Text: t}
	}
	return Build(docs, opts...)
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	if ix.sx != nil {
		return ix.sx.NumDocs()
	}
	return ix.vsmIndex.NumDocs()
}

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int {
	if ix.sx != nil {
		return ix.sx.NumTerms()
	}
	return ix.vsmIndex.NumTerms()
}

// Rank returns the retained LSI rank (0 for the VSM backend; the
// per-shard rank for sharded indexes).
func (ix *Index) Rank() int {
	if ix.sx != nil {
		return ix.sx.Rank()
	}
	return 0
}

// Stats describes the index, including a per-backend memory estimate
// that covers both the numeric payload and the text layer.
func (ix *Index) Stats() Stats {
	st := Stats{
		Backend:     ix.backend.String(),
		NumDocs:     ix.NumDocs(),
		NumTerms:    ix.NumTerms(),
		Rank:        ix.Rank(),
		Weighting:   ix.weighting.String(),
		TextQueries: ix.vocab != nil,
		Epoch:       ix.Epoch(),
		Generation:  ix.Generation(),
		Ready:       ix.Ready(),
	}
	if ix.vocab != nil {
		st.VocabSize = ix.vocab.Size()
		for _, term := range ix.vocab.Terms() {
			st.MemoryBytes += int64(len(term)) + 16
		}
	}
	if ix.sx != nil {
		ss := ix.sx.Stats()
		st.MemoryBytes += ss.MemoryBytes
		if ix.live {
			st.Sharded = true
			st.Shards = ss.Shards
			st.Segments = ss.Segments
			st.LiveSegments = ss.Live
			st.SealedPending = ss.SealedPending
			st.CompactedSegments = ss.Compacted
			st.FoldedDocs = ss.FoldedDocs
			st.Compactions = ss.Compactions
		}
	} else {
		// Postings (doc, weight) pairs mirror the matrix nonzeros; the
		// matrix itself is retained for persistence.
		nnz := int64(ix.matrix.NNZ())
		n, m := ix.matrix.Dims()
		st.MemoryBytes += nnz*16 + int64(m)*8   // postings + norms
		st.MemoryBytes += nnz*16 + int64(n+1)*8 // retained CSR
		for _, id := range ix.docIDs {
			st.MemoryBytes += int64(len(id)) + 16
		}
	}
	if cs, ok := ix.CacheStats(); ok {
		st.Cache = &cs
		st.MemoryBytes += cs.Bytes
	}
	if as, ok := ix.ANNStats(); ok {
		st.ANN = &as
	}
	if qs, ok := ix.QuantStats(); ok {
		st.Quant = &qs
	}
	return st
}

// DocID returns the external identifier of document doc (build order).
func (ix *Index) DocID(doc int) string {
	if ix.sx != nil {
		if id := ix.sx.ExternalID(doc); id != "" {
			return id
		}
	} else if doc >= 0 && doc < len(ix.docIDs) {
		return ix.docIDs[doc]
	}
	return fmt.Sprintf("doc-%d", doc)
}

// querySparse turns query text into a sparse term-space vector — weights
// over the distinct in-vocabulary term IDs, sorted ascending — using the
// index's own pipeline, vocabulary, and weighting. It reports how many
// query tokens hit the vocabulary. The sparse form is what both backend
// hot paths consume: a text query never materializes a vocabulary-length
// vector, and the sorted order makes the backends' accumulation match
// the dense reference bitwise.
func (ix *Index) querySparse(query string) (terms []int, weights []float64, known int) {
	pipe := &ir.Pipeline{RemoveStopwords: ix.removeStopwords, Stemming: ix.stemming}
	counts := make(map[int]float64)
	for _, term := range pipe.Terms(query) {
		if id, ok := ix.vocab.Lookup(term); ok {
			counts[id]++
			known++
		}
	}
	if known == 0 {
		return nil, nil, 0
	}
	terms = make([]int, 0, len(counts))
	for id := range counts {
		terms = append(terms, id)
	}
	sort.Ints(terms)
	weights = make([]float64, len(terms))
	for i, id := range terms {
		switch ix.weighting {
		case WeightingBinary:
			weights[i] = 1
		case WeightingLog:
			weights[i] = 1 + math.Log(counts[id])
		default: // count; tf-idf queries use raw counts (df is a corpus statistic)
			weights[i] = counts[id]
		}
	}
	return terms, weights, known
}

// search is the one search path: every query — text or vector, default
// or per-request budget, unsharded or sharded — ranks here. LSI queries
// run through the shard container's segment.SearchSparseOpts (an
// unsharded index is one shard of one segment), so the tier decision is
// made in one place; VSM keeps its inverted-file kernel and ignores the
// tier options.
func (ix *Index) search(terms []int, weights []float64, topN int, opts segment.ProbeOptions) []Result {
	var ms []topk.Match
	if ix.sx != nil {
		ms, _ = ix.sx.SearchSparseOpts(terms, weights, topN, opts)
	} else {
		ms = ix.vsmIndex.SearchSparse(terms, weights, topN)
	}
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{Doc: m.Doc, ID: ix.DocID(m.Doc), Score: m.Score}
	}
	return out
}

// searchSparse is search at the configured default budget: the path of
// SearchBatch and the query cache.
func (ix *Index) searchSparse(terms []int, weights []float64, topN int) []Result {
	return ix.search(terms, weights, topN, ix.budget(nil))
}

// budget maps a request's probe budget to the tier options of one
// search: nil is the configured default, 0 the fully exact scan, and
// n > 0 probes n cells per quantizer, keeping the configured quantized
// rerank.
func (ix *Index) budget(nprobe *int) segment.ProbeOptions {
	switch {
	case nprobe == nil:
		return segment.ProbeOptions{NProbe: ix.annProbe, Beta: ix.quantBeta}
	case *nprobe == 0:
		return segment.ProbeOptions{}
	}
	return segment.ProbeOptions{NProbe: *nprobe, Beta: ix.quantBeta}
}

// Query implements Retriever and is the one implementation of a single
// search; Search, SearchStatus and SearchProbe wrap it. A text query is
// preprocessed with the index's pipeline (ErrNoVocabulary without a
// vocabulary, ErrNoQueryTerms when no term is known); a vector must
// have NumTerms entries (ErrVectorLength). The query cache (see
// WithQueryCache) serves only text queries at the default budget — its
// keys assume that budget — and resp.Cache reports its disposition.
//
// Cancellation is honored at query boundaries: ctx is checked before the
// search and again after it, so work that outlives its deadline reports
// the deadline error rather than stale results — but an in-flight
// backend scan is not interrupted mid-kernel.
func (ix *Index) Query(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	if err := req.Validate(); err != nil {
		return SearchResponse{}, err
	}
	text := len(req.Vector) == 0
	var terms []int
	var weights []float64
	if text {
		if ix.vocab == nil {
			return SearchResponse{}, ErrNoVocabulary
		}
		var known int
		if terms, weights, known = ix.querySparse(req.Query); known == 0 {
			return SearchResponse{}, fmt.Errorf("%w: %q", ErrNoQueryTerms, req.Query)
		}
	} else {
		if len(req.Vector) != ix.NumTerms() {
			return SearchResponse{}, fmt.Errorf("%w: got %d, want %d", ErrVectorLength, len(req.Vector), ix.NumTerms())
		}
		terms, weights = sparseVector(req.Vector)
	}
	var resp SearchResponse
	if text && req.NProbe == nil && ix.qc != nil {
		resp.Results, resp.Cache = ix.qc.search(terms, weights, req.TopN, ix.searchSparse)
	} else {
		resp.Results = ix.search(terms, weights, req.TopN, ix.budget(req.NProbe))
	}
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	return resp, nil
}

// Search is Query for a text query at the configured default budget: it
// returns the topN documents by cosine similarity (all documents if
// topN <= 0). With WithQueryCache, repeated queries are answered from the
// epoch-keyed result cache; results are identical either way.
func (ix *Index) Search(ctx context.Context, query string, topN int) ([]Result, error) {
	resp, err := ix.Query(ctx, SearchRequest{Query: query, TopN: topN})
	return resp.Results, err
}

// sparseVector converts a dense term-space query to the sparse form every
// search consumes: its nonzero entries, terms ascending — bitwise the
// same scores, since both backends' dense kernels skip zero entries and
// accumulate in ascending term order.
func sparseVector(q []float64) (terms []int, weights []float64) {
	for t, w := range q {
		if w != 0 {
			terms = append(terms, t)
			weights = append(weights, w)
		}
	}
	return terms, weights
}

// batchChunk bounds how many queries run between context checks in
// SearchBatch: small enough that cancellation is honored promptly, large
// enough that the workers stay saturated.
const batchChunk = 64

// SearchBatch implements Retriever: it runs every query through the
// same path as Search — the query cache included, so a query repeated in
// the batch is computed once — fanning whole queries across CPUs and
// checking ctx between chunks of batchChunk queries. Queries with no
// in-vocabulary terms yield empty (non-nil) result slices; result order
// matches query order.
func (ix *Index) SearchBatch(ctx context.Context, queries []string, topN int) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix.vocab == nil {
		return nil, ErrNoVocabulary
	}
	out := make([][]Result, len(queries))
	grain := par.GrainFor((1 + ix.NumDocs()) * max(ix.Rank(), 1))
	for lo := 0; lo < len(queries); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := out[lo:min(lo+batchChunk, len(queries))]
		par.For(len(chunk), grain, func(a, b int) {
			for i := a; i < b; i++ {
				chunk[i] = ix.batchQuery(queries[lo+i], topN)
			}
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// batchQuery answers one SearchBatch query at the default budget: an
// empty slice when no term is known, else through the query cache when
// there is one.
func (ix *Index) batchQuery(query string, topN int) []Result {
	terms, weights, known := ix.querySparse(query)
	switch {
	case known == 0:
		return []Result{}
	case ix.qc != nil:
		res, _ := ix.qc.search(terms, weights, topN, ix.searchSparse)
		return res
	}
	return ix.searchSparse(terms, weights, topN)
}
