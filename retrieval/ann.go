package retrieval

import (
	"context"
	"fmt"

	"repro/internal/ivf"
	"repro/internal/quant"
	"repro/internal/segment"
)

// The ANN tier at the retrieval layer (see WithANN). An unsharded LSI
// index attaches one IVF quantizer to its single segment, trained at
// Build (and at Open, when the opening options ask for the tier — the
// quantizer is derived state, cheap to rebuild and deterministic for a
// fixed seed, so single-stream index files stay format-stable). In a
// sharded index every compacted segment owns a quantizer persisted as an
// ann-*.ivf sidecar next to its seg-*.idx file (see retrieval/shard).
// Either way segment.SearchSparseOpts decides, per segment, whether a
// search probes.

// annSeedOffset separates the quantizer-training random stream from the
// decomposition seeds derived from the same configured seed.
const annSeedOffset = 500009

// attachTiers trains the configured tiers onto the unsharded LSI
// segment — the IVF quantizer (seeded from the configured seed, so a
// rebuild reproduces it) and the int8 shadow — and records the tier
// configuration. Build and Open call it once the LSI index exists.
func (ix *Index) attachTiers(cfg config) error {
	ix.annList, ix.annProbe, ix.quantBeta = cfg.annList, cfg.annProbe, cfg.quantBeta
	seg := ix.segs[0]
	if cfg.annList > 0 {
		ann, err := ivf.Train(seg.Ix.DocVectors(), seg.Ix.Norms(), ivf.TrainOptions{
			NList: cfg.annList,
			Seed:  cfg.seed + annSeedOffset,
		})
		if err != nil {
			return fmt.Errorf("retrieval: training quantizer: %w", err)
		}
		ix.annList = ann.NList() // post-clamp truth beats the config
		if seg, err = seg.WithAnn(ann); err != nil {
			return err
		}
	}
	if cfg.quantBeta > 0 {
		qseg, err := seg.WithQuant(quant.Quantize(seg.Ix.DocVectors()))
		if err != nil {
			return err
		}
		seg = qseg
	}
	ix.segs[0] = seg
	return nil
}

// probeOptions is the tier routing of a per-request probe budget:
// nprobe > 0 probes that many cells per quantizer, composing with the
// configured quantized tier; nprobe <= 0 is the fully exact scan.
func (ix *Index) probeOptions(nprobe int) segment.ProbeOptions {
	if nprobe <= 0 {
		return segment.ProbeOptions{}
	}
	return segment.ProbeOptions{NProbe: nprobe, Beta: ix.quantBeta}
}

// SearchProbe is Search with a per-request probe budget overriding the
// configured default: nprobe > 0 scores only that many cells per
// quantizer (clamped to nlist; nprobe >= nlist probes every cell) while
// keeping the configured quantized rerank, and nprobe <= 0 forces the
// fully exact scan — float64 kernels over every document, the
// per-request escape hatch for both tiers. Indexes without an ANN tier
// serve every budget through whatever tiers they do have. SearchProbe
// bypasses the query cache: cache keys assume the configured default
// budget, and a per-request override must not poison them.
func (ix *Index) SearchProbe(ctx context.Context, query string, topN, nprobe int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix.vocab == nil {
		return nil, ErrNoVocabulary
	}
	terms, weights, known := ix.querySparse(query)
	if known == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoQueryTerms, query)
	}
	res := ix.search(terms, weights, topN, ix.probeOptions(nprobe))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// SearchVectorProbe is SearchVector with a per-request probe budget; the
// budget semantics are those of SearchProbe. The vector length must
// equal NumTerms.
func (ix *Index) SearchVectorProbe(ctx context.Context, q []float64, topN, nprobe int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q) != ix.NumTerms() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVectorLength, len(q), ix.NumTerms())
	}
	terms, weights := sparseVector(q)
	res := ix.search(terms, weights, topN, ix.probeOptions(nprobe))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
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

// tierStats summarizes the LSI segment set's tier sidecars and counters.
func (ix *Index) tierStats() segment.TierStats {
	if ix.sharded != nil {
		return ix.sharded.Stats().TierStats
	}
	return ix.tiers.Stats(ix.segs)
}
