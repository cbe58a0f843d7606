package shard

import "repro/internal/topk"

// SearchVec searches with a dense query the way the retrieval layer
// does: its nonzero entries, terms ascending, through SearchSparse.
func (x *Index) SearchVec(q []float64, topN int) []topk.Match {
	var terms []int
	var weights []float64
	for t, w := range q {
		if w != 0 {
			terms = append(terms, t)
			weights = append(weights, w)
		}
	}
	return x.SearchSparse(terms, weights, topN)
}
