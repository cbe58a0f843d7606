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
	"repro/retrieval/cache"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// Index is the concrete Retriever produced by Build and Load. It bundles
// the backend (LSI latent space or VSM inverted index) with the text
// layer — vocabulary, weighting, pipeline flags, document IDs — so text
// queries work end to end, including on indexes loaded from disk.
type Index struct {
	backend Backend

	// segs holds an unsharded LSI index as one immutable segment with the
	// identity Global mapping and, when configured, its IVF quantizer and
	// int8 shadow — so unsharded and sharded LSI indexes share
	// segment.SearchSparseOpts. nil for VSM and sharded indexes.
	segs     []*segment.Segment
	vsmIndex *vsm.Index
	matrix   *sparse.CSR  // term-document matrix, retained for VSM persistence
	sharded  *shard.Index // non-nil iff built with WithShards

	vocab           *ir.Vocabulary // nil only for v1 files loaded without text config
	weighting       Weighting
	removeStopwords bool
	stemming        bool
	docIDs          []string

	// The approximate tiers (WithANN, WithQuantized): annList is the cell
	// count, annProbe and quantBeta the default budget of Search (0 =
	// exhaustive, resp. float scoring). tiers counts the unsharded
	// index's tier work; sharded indexes count in retrieval/shard.
	annList, annProbe, quantBeta int
	tiers                        segment.Counters

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
	if cfg.workers > 0 {
		par.SetMaxProcs(cfg.workers)
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
		docIDs:          ids,
	}
	if cfg.shards > 0 {
		sx, err := buildSharded(ix, a, ids, c.NumTerms, len(c.Docs), cfg)
		if err != nil {
			return nil, err
		}
		sx.initCache(cfg.cacheBytes)
		return sx, nil
	}
	switch cfg.backend {
	case BackendLSI:
		engine, err := cfg.engine.toLSI()
		if err != nil {
			return nil, err
		}
		rank := cfg.rank
		if rank <= 0 {
			rank = autoRank(c.NumTerms, len(c.Docs))
		}
		lx, err := lsi.Build(a, rank, lsi.Options{Engine: engine, Seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("retrieval: building LSI index: %w", err)
		}
		ix.segs = []*segment.Segment{identitySegment(lx)}
		if err := ix.attachTiers(cfg); err != nil {
			return nil, err
		}
	case BackendVSM:
		ix.vsmIndex = vsm.NewFromMatrix(a)
		ix.matrix = a
	default:
		return nil, fmt.Errorf("retrieval: unknown backend %d", int(cfg.backend))
	}
	ix.initCache(cfg.cacheBytes)
	return ix, nil
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
	switch {
	case ix.sharded != nil:
		return ix.sharded.NumDocs()
	case ix.backend == BackendVSM:
		return ix.vsmIndex.NumDocs()
	}
	return ix.segs[0].Len()
}

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int {
	switch {
	case ix.sharded != nil:
		return ix.sharded.NumTerms()
	case ix.backend == BackendVSM:
		return ix.vsmIndex.NumTerms()
	}
	return ix.segs[0].Ix.NumTerms()
}

// Rank returns the retained LSI rank (0 for the VSM backend; the
// per-shard rank for sharded indexes).
func (ix *Index) Rank() int {
	switch {
	case ix.sharded != nil:
		return ix.sharded.Rank()
	case ix.backend == BackendVSM:
		return 0
	}
	return ix.segs[0].Ix.K()
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
		Ready:       true,
	}
	if ix.vocab != nil {
		st.VocabSize = ix.vocab.Size()
		for _, term := range ix.vocab.Terms() {
			st.MemoryBytes += int64(len(term)) + 16
		}
	}
	for _, id := range ix.docIDs {
		st.MemoryBytes += int64(len(id)) + 16
	}
	switch {
	case ix.sharded != nil:
		ss := ix.sharded.Stats()
		st.Sharded = true
		st.Epoch = ix.sharded.Epoch()
		st.Generation = ss.Generation
		st.Shards = ss.Shards
		st.Segments = ss.Segments
		st.LiveSegments = ss.Live
		st.SealedPending = ss.SealedPending
		st.CompactedSegments = ss.Compacted
		st.FoldedDocs = ss.FoldedDocs
		st.Compactions = ss.Compactions
		st.MemoryBytes += ss.MemoryBytes
		st.Ready = ix.sharded.Ready()
	case ix.backend == BackendVSM:
		// Postings (doc, weight) pairs mirror the matrix nonzeros; the
		// matrix itself is retained for persistence.
		nnz := int64(ix.matrix.NNZ())
		n, m := ix.matrix.Dims()
		st.MemoryBytes += nnz*16 + int64(m)*8   // postings + norms
		st.MemoryBytes += nnz*16 + int64(n+1)*8 // retained CSR
	default:
		seg := ix.segs[0]
		n := int64(seg.Ix.NumTerms())
		m := int64(seg.Len())
		k := int64(seg.Ix.K())
		st.MemoryBytes += 8 * (n*k + m*k + k + 2*m) // basis + doc rows + sigma + norms + Global
		if ann := seg.Ann; ann != nil {
			nlist := int64(ann.NList())
			st.MemoryBytes += 8*nlist*int64(ann.Dim()) + 8*nlist + 8*(nlist+1) + 4*int64(ann.NumDocs())
		}
		if qm := seg.Quant; qm != nil {
			st.MemoryBytes += qm.Bytes()
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
	if ix.sharded != nil {
		if id := ix.sharded.ExternalID(doc); id != "" {
			return id
		}
		return fmt.Sprintf("doc-%d", doc)
	}
	if doc >= 0 && doc < len(ix.docIDs) {
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
// run through segment.SearchSparseOpts (an unsharded index is one
// segment), so the tier decision is made in one place; VSM keeps its
// inverted-file kernel and ignores the tier options.
func (ix *Index) search(terms []int, weights []float64, topN int, opts segment.ProbeOptions) []Result {
	var ms []topk.Match
	switch {
	case ix.sharded != nil:
		ms, _ = ix.sharded.SearchSparseOpts(terms, weights, topN, opts)
	case ix.backend == BackendVSM:
		ms = ix.vsmIndex.SearchSparse(terms, weights, topN)
	default:
		var st segment.ProbeStats
		ms, st = segment.SearchSparseOpts(ix.segs, terms, weights, topN, opts)
		ix.tiers.Record(st)
	}
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{Doc: m.Doc, ID: ix.DocID(m.Doc), Score: m.Score}
	}
	return out
}

// searchSparse is search at the configured default budget: the path of
// Search, SearchVector, SearchBatch and the query cache.
func (ix *Index) searchSparse(terms []int, weights []float64, topN int) []Result {
	return ix.search(terms, weights, topN, segment.ProbeOptions{NProbe: ix.annProbe, Beta: ix.quantBeta})
}

// Search implements Retriever: it preprocesses the query with the
// index's pipeline, folds it into the backend's space, and returns the
// topN documents by cosine similarity (all documents if topN <= 0).
// With WithQueryCache, repeated queries are answered from the epoch-
// keyed result cache (see SearchStatus for the per-lookup disposition);
// results are identical either way.
//
// Cancellation is honored at query boundaries: ctx is checked before the
// search and again after it, so work that outlives its deadline reports
// the deadline error rather than stale results — but an in-flight
// backend scan is not interrupted mid-kernel.
func (ix *Index) Search(ctx context.Context, query string, topN int) ([]Result, error) {
	res, _, err := ix.SearchStatus(ctx, query, topN)
	return res, err
}

// SearchVector ranks documents against a raw term-space query vector (for
// callers that build vectors themselves, e.g. from corpus-model
// documents). The vector length must equal NumTerms; a mismatch returns
// an error wrapping ErrVectorLength instead of panicking like the
// internal fast-paths.
func (ix *Index) SearchVector(ctx context.Context, q []float64, topN int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q) != ix.NumTerms() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVectorLength, len(q), ix.NumTerms())
	}
	terms, weights := sparseVector(q)
	res := ix.searchSparse(terms, weights, topN)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
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

// SearchBatch implements Retriever: it answers what it can from the query
// cache, then runs the misses through the same path as Search, fanning
// whole queries across CPUs and checking ctx between chunks of batchChunk
// queries. Queries with no in-vocabulary terms yield empty (non-nil)
// result slices; result order matches query order.
func (ix *Index) SearchBatch(ctx context.Context, queries []string, topN int) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix.vocab == nil {
		return nil, ErrNoVocabulary
	}
	type miss struct {
		i       int
		terms   []int
		weights []float64
		key     []byte
	}
	// Computed misses are stored after their chunk if the epoch stayed
	// stable: the same publish-then-bump validity protocol as Search.
	var epoch uint64
	if ix.qc != nil {
		epoch = ix.qc.epoch()
	}
	out := make([][]Result, len(queries))
	misses := make([]miss, 0, len(queries))
	for i, query := range queries {
		terms, weights, known := ix.querySparse(query)
		if known == 0 {
			out[i] = []Result{}
			continue
		}
		var key []byte
		if ix.qc != nil {
			key = cache.AppendQueryKey(nil, epoch, topN, terms, weights)
			if v, ok := ix.qc.c.Get(key); ok {
				out[i] = copyResults(v)
				continue
			}
		}
		misses = append(misses, miss{i, terms, weights, key})
	}
	grain := par.GrainFor((1 + ix.NumDocs()) * max(ix.Rank(), 1))
	for lo := 0; lo < len(misses); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := misses[lo:min(lo+batchChunk, len(misses))]
		par.For(len(chunk), grain, func(a, b int) {
			for _, m := range chunk[a:b] {
				out[m.i] = ix.searchSparse(m.terms, m.weights, topN)
			}
		})
		if ix.qc != nil && ix.qc.epoch() == epoch {
			for _, m := range chunk {
				// The caller owns out[m.i]; cache a private copy.
				ix.qc.c.Put(m.key, copyResults(out[m.i]))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// identitySegment wraps an unsharded LSI index as one compacted segment
// whose Global mapping is the identity.
func identitySegment(lx *lsi.Index) *segment.Segment {
	global := make([]int, lx.NumDocs())
	for i := range global {
		global[i] = i
	}
	return &segment.Segment{Ix: lx, Global: global, Compacted: true}
}
