package retrieval

import (
	"context"

	"repro/internal/segment"
)

// The ANN tier at the retrieval layer (see WithANN). Every LSI index
// is a shard.Index, and its compacted segments carry the IVF quantizers:
// an unsharded index trains one onto its single segment at Build (and at
// Open, when the opening options ask for the tier — the quantizer is
// derived state, cheap to rebuild and deterministic for a fixed seed, so
// single-stream index files stay format-stable); a sharded index
// persists one per segment as an ann-*.ivf sidecar next to its seg-*.idx
// file (see retrieval/shard). Either way segment.SearchSparseOpts
// decides, per segment, whether a search probes.

// SearchProbe is Search with a per-request probe budget overriding the
// configured default (see SearchRequest.NProbe); nprobe <= 0 forces the
// fully exact scan. It bypasses the query cache: cache keys assume the
// configured default budget, and a per-request override must not poison
// them.
func (ix *Index) SearchProbe(ctx context.Context, query string, topN, nprobe int) ([]Result, error) {
	nprobe = max(nprobe, 0)
	resp, err := ix.Query(ctx, SearchRequest{Query: query, TopN: topN, NProbe: &nprobe})
	return resp.Results, err
}

// ANNStats describes the IVF ANN tier of an index built or opened with
// WithANN (surfaced as the "ann" block of /v1/stats).
type ANNStats struct {
	// NList is the configured cell count; NProbe the default probe
	// budget (0 = the default search scans exhaustively).
	NList  int `json:"nlist"`
	NProbe int `json:"nprobe"`
	// Segments counts quantizers serving (1 for an unsharded index; one
	// per quantized segment for sharded indexes) and Docs the documents
	// they cover — Docs/NumDocs is the corpus fraction served
	// sublinearly.
	Segments int `json:"segments"`
	Docs     int `json:"docs"`
	// Lifetime probe counters: searches that used the tier, cells
	// probed, and candidates scored in them.
	Searches    int64 `json:"searches"`
	CellsProbed int64 `json:"cellsProbed"`
	DocsScored  int64 `json:"docsScored"`
}

// ANNStats reports the ANN tier's configuration and probe counters; ok
// is false when the index has no tier (not configured, or a backend
// without one).
func (ix *Index) ANNStats() (ANNStats, bool) {
	ts := ix.tierStats()
	if ix.annList <= 0 && ts.ANNSegments == 0 {
		return ANNStats{}, false
	}
	return ANNStats{
		NList:       ix.annList,
		NProbe:      ix.annProbe,
		Segments:    ts.ANNSegments,
		Docs:        ts.ANNDocs,
		Searches:    ts.ANNSearches,
		CellsProbed: ts.ANNCellsProbed,
		DocsScored:  ts.ANNDocsScored,
	}, true
}

// tierStats summarizes the LSI segment set's tier sidecars and counters
// (zero for VSM).
func (ix *Index) tierStats() segment.TierStats {
	if ix.sx == nil {
		return segment.TierStats{}
	}
	return ix.sx.TierStats()
}
