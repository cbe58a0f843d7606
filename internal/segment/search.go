package segment

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ivf"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/topk"
)

// Cross-segment search: the segments of every shard are flattened into
// one scored range [0, Σ len(seg)) and scanned with the same fused
// kernels as the single-index hot path — one sparse fold per segment
// basis, one DotNorm per document against the segment's precomputed
// norms — so a one-segment set with the identity Global mapping returns
// bitwise-identical scores to lsi's SearchSparse over the same index.
//
// Selection is bounded top-k under the strict (score desc, global doc
// asc) total order. The parallel path chunks the flattened range with
// par's deterministic layout, keeps one bounded heap per chunk, and
// merges partials in chunk order; selection under a strict total order
// is offer-order-insensitive, so results are identical for every worker
// count and every segment layout that holds the same documents in the
// same latent representations.

// projected is a query folded into the latent space of every segment of
// a flattened range. Instances are pooled; proj slices share buf.
type projected struct {
	segs    []*Segment
	proj    [][]float64 // per-segment Uₖᵀ·q
	qn      []float64   // per-segment ‖proj‖
	offsets []int       // flattened start of each segment
	total   int
	buf     []float64
}

// scratch is the pooled per-query state of SearchSparseOpts: the
// flattened exact range, the tiered segments with their projections, the
// tier candidate buffers, and the final selection heap.
type scratch struct {
	exact  projected
	tiered projected
	cands  []topk.Match
	docs   []int32
	heap   topk.Heap
}

var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	heapPool    = sync.Pool{New: func() any { return new(topk.Heap) }}
)

// release drops the scratch's segment references and returns it to the
// pool.
func (sc *scratch) release() {
	sc.exact.reset()
	sc.tiered.reset()
	scratchPool.Put(sc)
}

func (p *projected) reset() {
	clear(p.segs)
	p.segs, p.proj, p.qn, p.offsets, p.buf = p.segs[:0], p.proj[:0], p.qn[:0], p.offsets[:0], p.buf[:0]
	p.total = 0
}

// add folds the sparse query into s's basis and appends s to the range.
// Earlier projections stay valid when buf grows: they keep the old array.
func (p *projected) add(s *Segment, terms []int, weights []float64) {
	k := s.Ix.K()
	if cap(p.buf)-len(p.buf) < k {
		p.buf = make([]float64, 0, max(2*cap(p.buf), 4*k))
	}
	pq := p.buf[len(p.buf) : len(p.buf)+k : len(p.buf)+k]
	p.buf = p.buf[:len(p.buf)+k]
	mat.MulTVecSparse(s.Ix.Basis(), terms, weights, pq)
	p.segs = append(p.segs, s)
	p.proj = append(p.proj, pq)
	p.qn = append(p.qn, mat.Norm(pq))
	p.offsets = append(p.offsets, p.total)
	p.total += s.Len()
}

// scoreRange offers every flattened document in [lo, hi) to h. The
// per-segment rows, norms, Global mapping and projection are hoisted out
// of the per-document loop.
func (p *projected) scoreRange(h *topk.Heap, lo, hi int) {
	i := sort.Search(len(p.offsets), func(i int) bool { return p.offsets[i] > lo }) - 1
	for f := lo; f < hi; i++ {
		s, start := p.segs[i], p.offsets[i]
		docs, norms, global := s.Ix.DocVectors(), s.Ix.Norms(), s.Global
		pq, qn := p.proj[i], p.qn[i]
		end := min(start+len(global), hi)
		for j := f - start; j < end-start; j++ {
			h.Offer(topk.Match{Doc: global[j], Score: mat.DotNorm(pq, docs.Row(j), qn, norms[j])})
		}
		f = end
	}
}

// selectTop appends the keep best documents of the flattened range to
// dst, best-first under the (score desc, global doc asc) order, using h
// for the serial selection.
func (p *projected) selectTop(dst []topk.Match, h *topk.Heap, keep int) []topk.Match {
	maxK := 1
	for _, s := range p.segs {
		maxK = max(maxK, s.Ix.K())
	}
	grain := par.GrainFor(2*maxK + 1)
	h.Reset(keep)
	if par.MaxProcs() == 1 || p.total <= grain {
		p.scoreRange(h, 0, p.total)
		return h.AppendSorted(dst)
	}
	partials := par.MapChunks(p.total, grain, func(lo, hi int) *topk.Heap {
		ch := heapPool.Get().(*topk.Heap)
		ch.Reset(keep)
		p.scoreRange(ch, lo, hi)
		return ch
	})
	for _, ch := range partials {
		h.Merge(ch)
		heapPool.Put(ch)
	}
	return h.AppendSorted(dst)
}

// ProbeOptions selects the approximate tiers a search may use. The zero
// value is the escape hatch: with both knobs off the scan is fully exact
// — the truth baseline the fidelity harness and smoke gates compare
// against.
type ProbeOptions struct {
	// NProbe is the IVF cell budget for segments carrying a coarse
	// quantizer; <= 0 scans every segment exhaustively instead of probing.
	NProbe int
	// Beta is the quantized over-fetch factor for segments carrying an
	// int8 shadow: the scan keeps topN·Beta candidates for the exact
	// rerank. <= 0 scores in float64 directly, skipping the int8 tier.
	Beta int
}

// ProbeStats aggregates the work a probe-aware search performed across
// the segment set; the serving layer turns it into /metrics counters.
type ProbeStats struct {
	// Probed counts segments answered through their IVF quantizer; Cells
	// and Docs total the cells probed and candidates scored in them.
	Probed int
	Cells  int
	Docs   int
	// QuantSegs counts segments whose candidates were scored through the
	// int8 tier; QuantDocs totals the documents those scans touched, and
	// Reranked the stage-2 candidates rescored with exact float kernels.
	QuantSegs int
	QuantDocs int
	Reranked  int
	// ExactDocs counts documents scored purely in float64 — segments with
	// no sidecars (live fold-ins, tiny or reloaded segments) plus every
	// segment when the options disable both tiers.
	ExactDocs int
}

// SearchSparseOpts ranks every document held by segs against a sparse
// query (terms strictly ascending) and returns the topN best (all if
// topN <= 0) with Doc fields carrying GLOBAL document numbers. Per
// segment the options pick the cheapest configured path: IVF cell-probe
// feeding the int8 scan (both sidecars), cell-probe scoring in float
// (Ann only, or Beta off), full int8 scan with exact rerank (Quant only,
// or NProbe off), or the flattened exhaustive float scan (no sidecars,
// or both knobs off). All candidates merge under the (score desc, global
// doc asc) order, so results are deterministic for any worker count and
// segment layout. The approximate tiers only narrow CANDIDATE SELECTION
// — every returned score is an exact float64 cosine — so probing every
// cell with the int8 tier off is bitwise-identical to the exhaustive
// scan, and the zero ProbeOptions IS the exhaustive scan.
func SearchSparseOpts(segs []*Segment, terms []int, weights []float64, topN int, opts ProbeOptions) ([]topk.Match, ProbeStats) {
	total := NumDocs(segs)
	if total == 0 {
		return []topk.Match{}, ProbeStats{}
	}
	keep := topN
	if keep <= 0 || keep > total {
		keep = total
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	for _, s := range segs {
		if s.Ann != nil && opts.NProbe > 0 || s.Quant != nil && opts.Beta > 0 {
			sc.tiered.add(s, terms, weights)
		} else {
			sc.exact.add(s, terms, weights)
		}
	}
	st := ProbeStats{ExactDocs: sc.exact.total}
	out := make([]topk.Match, 0, keep)
	h := &sc.heap
	if len(sc.tiered.segs) == 0 {
		return sc.exact.selectTop(out, h, keep), st
	}

	// The exact range's top keep and the tiered segments' candidates
	// merge through one heap; Global is ascending, so remapping local
	// rows is monotone and the strict order survives the renumbering.
	sc.cands = sc.exact.selectTop(sc.cands[:0], h, keep)
	h.Reset(keep)
	for _, m := range sc.cands {
		h.Offer(m)
	}
	for i, s := range sc.tiered.segs {
		pq, qn := sc.tiered.proj[i], sc.tiered.qn[i]
		vecs, norms := s.Ix.DocVectors(), s.Ix.Norms()
		useAnn := s.Ann != nil && opts.NProbe > 0
		useQuant := s.Quant != nil && opts.Beta > 0
		var ps ivf.ProbeStats
		var qs quant.ScanStats
		switch {
		case useAnn && useQuant:
			// Composed: the coarse quantizer narrows to the probed cells'
			// documents, the int8 tier scans exactly those and reranks the
			// over-fetch in float.
			sc.docs, ps = s.Ann.AppendProbeDocs(sc.docs[:0], pq, qn, opts.NProbe)
			sc.cands, qs = s.Quant.AppendSearchDocs(sc.cands[:0], sc.docs, vecs, norms, pq, qn, keep, opts.Beta)
		case useAnn:
			sc.cands, ps = s.Ann.AppendSearch(sc.cands[:0], vecs, norms, pq, qn, keep, opts.NProbe)
		default:
			sc.cands, qs = s.Quant.AppendSearch(sc.cands[:0], vecs, norms, pq, qn, keep, opts.Beta)
		}
		if useAnn {
			st.Probed++
			st.Cells += ps.Cells
			st.Docs += ps.Docs
		}
		if useQuant {
			st.QuantSegs++
			st.QuantDocs += qs.Scanned
			st.Reranked += qs.Reranked
		}
		for _, m := range sc.cands {
			h.Offer(topk.Match{Doc: s.Global[m.Doc], Score: m.Score})
		}
	}
	return h.AppendSorted(out), st
}

// NumDocs returns the total number of documents across segs.
func NumDocs(segs []*Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Len()
	}
	return n
}

// Counters accumulates the tier work of searches over a segment set —
// the lifetime figures behind the "ann"/"quant" stats blocks and the
// lsi_ann_*/lsi_quant_* metrics. The zero value is ready to use and safe
// for concurrent Record calls.
type Counters struct {
	annSearches, annCells, annDocs          atomic.Int64
	quantSearches, quantDocs, quantReranked atomic.Int64
}

// Record folds one search's tier stats into the counters: a search
// counts toward a tier when at least one segment answered through it.
func (c *Counters) Record(st ProbeStats) {
	if st.Probed > 0 {
		c.annSearches.Add(1)
		c.annCells.Add(int64(st.Cells))
		c.annDocs.Add(int64(st.Docs))
	}
	if st.QuantSegs > 0 {
		c.quantSearches.Add(1)
		c.quantDocs.Add(int64(st.QuantDocs))
		c.quantReranked.Add(int64(st.Reranked))
	}
}

// TierStats describes the tier sidecars of a segment set and the
// lifetime work the tiers performed.
type TierStats struct {
	// ANNSegments counts segments carrying an IVF quantizer and ANNDocs
	// the documents they cover (ANNDocs/Docs is the corpus fraction
	// served sublinearly); ANNSearches, ANNCellsProbed and ANNDocsScored
	// are the lifetime probe counters.
	ANNSegments    int   `json:"annSegments"`
	ANNDocs        int   `json:"annDocs"`
	ANNSearches    int64 `json:"annSearches"`
	ANNCellsProbed int64 `json:"annCellsProbed"`
	ANNDocsScored  int64 `json:"annDocsScored"`
	// QuantSegments counts segments carrying an int8 shadow, QuantDocs
	// the documents they cover, QuantBytes the shadows' footprint
	// (compare against ~8·QuantDocs·rank for the float rows they stand in
	// for); QuantSearches, QuantDocsScanned and QuantDocsReranked are the
	// lifetime scan counters.
	QuantSegments     int   `json:"quantSegments"`
	QuantDocs         int   `json:"quantDocs"`
	QuantBytes        int64 `json:"quantBytes"`
	QuantSearches     int64 `json:"quantSearches"`
	QuantDocsScanned  int64 `json:"quantDocsScanned"`
	QuantDocsReranked int64 `json:"quantDocsReranked"`
}

// Stats summarizes the sidecars of segs together with the counters.
func (c *Counters) Stats(segs []*Segment) TierStats {
	st := TierStats{
		ANNSearches:       c.annSearches.Load(),
		ANNCellsProbed:    c.annCells.Load(),
		ANNDocsScored:     c.annDocs.Load(),
		QuantSearches:     c.quantSearches.Load(),
		QuantDocsScanned:  c.quantDocs.Load(),
		QuantDocsReranked: c.quantReranked.Load(),
	}
	for _, s := range segs {
		if s.Ann != nil {
			st.ANNSegments++
			st.ANNDocs += s.Len()
		}
		if s.Quant != nil {
			st.QuantSegments++
			st.QuantDocs += s.Len()
			st.QuantBytes += s.Quant.Bytes()
		}
	}
	return st
}
