package retrieval

import (
	"context"
	"sync"

	"repro/retrieval/cache"
)

// Query result caching (WithQueryCache). The cache decorates the
// backend search: queries are keyed by their *normalized sparse form*
// (so any two texts that preprocess to the same term vector share an
// entry), the requested topN, and the index epoch. The epoch is the
// invalidation story:
//
//   - Unsharded indexes are immutable after Build, so they use the
//     constant epoch 0 and cached results stay valid forever.
//   - Sharded live indexes expose shard.Index.Epoch, which advances
//     after every published Add batch and every compaction swap. The
//     bump retires the whole cached working set in O(1) — new lookups
//     encode the new epoch into their keys and miss — with no locks on
//     the read path and no scan; stale entries age out of the LRU.
//
// Freshness proof sketch (the stress tests pin this): a mutation
// publishes its state pointers *before* bumping the epoch, and a cached
// compute re-reads the epoch after searching, storing only if it was
// stable. So an entry keyed with epoch E was computed entirely inside
// epoch E, i.e. after every mutation numbered <= E was fully visible;
// a lookup at epoch E can therefore never observe pre-Add or
// pre-Compact results. (An entry may contain *newer* data than its
// epoch if a mutation raced the compute's snapshot without finishing
// before validation — the same benign race an uncached wait-free search
// has.)
//
// Cached values are shared between the cache and every hit, so the
// decorator copies the result slice before returning it; a steady-state
// hit costs exactly that one allocation.

// queryCache decorates the backend sparse-search path of an Index with
// an epoch-keyed result cache plus request coalescing.
type queryCache struct {
	c     *cache.Cache[[]Result]
	epoch func() uint64
}

// keyBufPool recycles key-encoding scratch so the hit path allocates
// nothing beyond the returned copy.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// resultsCost estimates the bytes a cached result slice retains: slice
// header plus, per result, the struct and the external-ID string bytes.
func resultsCost(rs []Result) int64 {
	cost := int64(24)
	for i := range rs {
		cost += 32 + int64(len(rs[i].ID))
	}
	return cost
}

// copyResults returns a caller-owned copy of a shared result slice.
func copyResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// initCache attaches a query cache bounded at maxBytes (<= 0 leaves the
// index uncached). Called once from the constructors (Build, Open,
// OpenDir) before the index is shared, never concurrently with queries.
func (ix *Index) initCache(maxBytes int64) {
	c := cache.New[[]Result](cache.Config{MaxBytes: maxBytes}, resultsCost)
	if c == nil {
		return
	}
	ix.qc = &queryCache{c: c, epoch: ix.epoch}
}

// epoch returns the index's current mutation epoch: the shard
// subsystem's global epoch for live indexes, the constant 0 for
// immutable ones.
func (ix *Index) epoch() uint64 {
	if ix.sharded != nil {
		return ix.sharded.Epoch()
	}
	return 0
}

// search ranks a validated sparse query through the cache: hit and
// coalesced lookups share a previously computed slice (copied before
// returning), misses run raw and store the result if the epoch was
// stable around the computation.
func (q *queryCache) search(terms []int, weights []float64, topN int, raw func([]int, []float64, int) []Result) ([]Result, cache.Status) {
	e := q.epoch()
	bufp := keyBufPool.Get().(*[]byte)
	key := cache.AppendQueryKey((*bufp)[:0], e, topN, terms, weights)
	res, st := q.c.Do(key, func() ([]Result, bool) {
		r := raw(terms, weights, topN)
		// Store only if no mutation published while we searched; the
		// value is correct to return either way (it is exactly what an
		// uncached search would have produced).
		return r, q.epoch() == e
	})
	*bufp = key[:0]
	keyBufPool.Put(bufp)
	// The slice is shared with the cache (hit, coalesced) or with
	// waiters that coalesced on our flight (miss) — hand out a copy.
	return copyResults(res), st
}

// SearchStatus is Search plus the cache disposition of the lookup:
// StatusHit or StatusCoalesced when the result came from (or was shared
// with) the query cache, StatusMiss when it was computed and considered
// for storage, StatusBypass when the index has no cache (the
// httpapi layer surfaces this as the Cache-Status response header).
// Results are identical to Search's for every status — the cache is
// keyed by normalized query, topN, and index epoch, so a hit can never
// serve results from before a live index's last Add or Compact.
func (ix *Index) SearchStatus(ctx context.Context, query string, topN int) ([]Result, cache.Status, error) {
	resp, err := ix.Query(ctx, SearchRequest{Query: query, TopN: topN})
	return resp.Results, resp.Cache, err
}

// CacheStats reports the query cache's counters; ok is false when the
// index was built without WithQueryCache.
func (ix *Index) CacheStats() (QueryCacheStats, bool) {
	if ix.qc == nil {
		return QueryCacheStats{}, false
	}
	return QueryCacheStats{Stats: ix.qc.c.Stats(), Epoch: ix.epoch()}, true
}
