package segment

import "repro/internal/topk"

// SearchSparse is the exhaustive search the tests compare against: the
// zero-option SearchSparseOpts.
func SearchSparse(segs []*Segment, terms []int, weights []float64, topN int) []topk.Match {
	ms, _ := SearchSparseOpts(segs, terms, weights, topN, ProbeOptions{})
	return ms
}

// SearchVec searches with a dense query the way the retrieval layer
// does: its nonzero entries, terms ascending, through the sparse path.
func SearchVec(segs []*Segment, q []float64, topN int) []topk.Match {
	terms, weights := sparseOf(q)
	return SearchSparse(segs, terms, weights, topN)
}

// sparseOf returns the nonzero entries of q with terms ascending.
func sparseOf(q []float64) (terms []int, weights []float64) {
	for t, w := range q {
		if w != 0 {
			terms = append(terms, t)
			weights = append(weights, w)
		}
	}
	return terms, weights
}
