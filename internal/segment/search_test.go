package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/topk"
)

// randomSegments builds a segment set over numDocs documents from random
// lsi.NewIndexFromParts data: segment count nsegs, every segment its own
// rank-k basis over numTerms terms, and global numbers dealt to segments
// at random so each segment's Global is ascending but the segments
// interleave. With coarse set, basis entries and document rows are small
// integers and rows repeat across documents, forcing exact score ties.
func randomSegments(tb testing.TB, rng *rand.Rand, nsegs, numDocs, numTerms, k int, coarse bool) []*Segment {
	tb.Helper()
	value := func() float64 {
		if coarse {
			return float64(rng.Intn(4) - 1)
		}
		return rng.NormFloat64()
	}
	globals := make([][]int, nsegs)
	for g := 0; g < numDocs; g++ {
		s := rng.Intn(nsegs)
		globals[s] = append(globals[s], g)
	}
	segs := make([]*Segment, nsegs)
	for s := range segs {
		m := len(globals[s])
		basis := make([]float64, numTerms*k)
		for i := range basis {
			basis[i] = value()
		}
		patterns := make([][]float64, 6)
		for p := range patterns {
			patterns[p] = make([]float64, k)
			for i := range patterns[p] {
				patterns[p][i] = value()
			}
		}
		docs := make([]float64, 0, m*k)
		for j := 0; j < m; j++ {
			if coarse {
				docs = append(docs, patterns[rng.Intn(len(patterns))]...)
				continue
			}
			for i := 0; i < k; i++ {
				docs = append(docs, value())
			}
		}
		ix, err := lsi.NewIndexFromParts(lsi.IndexParts{
			K: k, NumTerms: numTerms, Sigma: make([]float64, k),
			UkRows: numTerms, UkData: basis, DocRows: m, DocData: docs,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if segs[s], err = New(ix, globals[s], nil, true); err != nil {
			tb.Fatal(err)
		}
	}
	return segs
}

// randomQuery draws a sparse query: nnz distinct terms, ascending.
func randomQuery(rng *rand.Rand, numTerms, nnz int) ([]int, []float64) {
	var terms []int
	var weights []float64
	for t := 0; t < numTerms && len(terms) < nnz; t++ {
		if rng.Intn(numTerms-t) < nnz-len(terms) {
			terms = append(terms, t)
			weights = append(weights, float64(1+rng.Intn(3)))
		}
	}
	return terms, weights
}

// bruteForce scores every document of segs with mat.DotNorm and sorts by
// (score desc, global doc asc): the reference the flattened scan must
// reproduce bit for bit.
func bruteForce(segs []*Segment, terms []int, weights []float64, topN int) []topk.Match {
	var all []topk.Match
	for _, s := range segs {
		pq := s.Ix.ProjectSparse(terms, weights)
		qn := mat.Norm(pq)
		for j, g := range s.Global {
			all = append(all, topk.Match{Doc: g, Score: mat.DotNorm(pq, s.Ix.DocVector(j), qn, s.Ix.Norms()[j])})
		}
	}
	topk.SortMatches(all)
	if topN > 0 && topN < len(all) {
		all = all[:topN]
	}
	return all
}

func TestSearchMatchesBruteForce(t *testing.T) {
	const numTerms, k = 60, 48 // rank 48 makes a few thousand docs span several par chunks
	prev := par.SetMaxProcs(1)
	defer par.SetMaxProcs(prev)
	rng := rand.New(rand.NewSource(401))
	for layout := 0; layout < 8; layout++ {
		nsegs := 1 + layout%6
		coarse := layout%2 == 1
		segs := randomSegments(t, rng, nsegs, 6000+rng.Intn(4000), numTerms, k, coarse)
		for q := 0; q < 3; q++ {
			terms, weights := randomQuery(rng, numTerms, 1+rng.Intn(6))
			for _, topN := range []int{1, 10, 100, 0} {
				want := bruteForce(segs, terms, weights, topN)
				for _, workers := range []int{1, 2, 7} {
					par.SetMaxProcs(workers)
					got, st := SearchSparseOpts(segs, terms, weights, topN, ProbeOptions{})
					sameMatches(t, got, want, fmt.Sprintf("layout %d (%d segs, coarse=%v) query %d topN=%d workers=%d",
						layout, nsegs, coarse, q, topN, workers))
					if st.ExactDocs != NumDocs(segs) {
						t.Fatalf("ExactDocs = %d, want %d", st.ExactDocs, NumDocs(segs))
					}
				}
			}
		}
	}
}

// BenchmarkSearchSegments measures the exhaustive flattened scan on the
// two shapes it serves: one large segment (an unsharded index) and many
// small ones (a sharded live index).
func BenchmarkSearchSegments(b *testing.B) {
	const numTerms, k = 2000, 32
	for _, shape := range []struct{ segs, docs int }{{1, 51200}, {16, 1536}} {
		b.Run(fmt.Sprintf("segments=%d/docs=%d", shape.segs, shape.docs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(402))
			segs := randomSegments(b, rng, shape.segs, shape.docs, numTerms, k, false)
			terms, weights := randomQuery(rng, numTerms, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SearchSparseOpts(segs, terms, weights, 10, ProbeOptions{})
			}
		})
	}
}
