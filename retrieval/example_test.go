package retrieval_test

import (
	"context"
	"fmt"
	"log"

	"repro/retrieval"
)

// ExampleBuild indexes a few documents with the default LSI backend and
// inspects the result.
func ExampleBuild() {
	ix, err := retrieval.Build([]retrieval.Document{
		{ID: "pasta", Text: "Cooking pasta with garlic, olive oil and fresh basil."},
		{ID: "sauce", Text: "A good tomato sauce starts with garlic and olive oil."},
		{ID: "stars", Text: "The telescope charted stars and planets across the galaxy."},
		{ID: "comet", Text: "Astronomers tracked the comet past distant planets and stars."},
	}, retrieval.WithRank(2), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		log.Fatal(err)
	}
	stats := ix.Stats()
	fmt.Printf("backend=%s docs=%d rank=%d weighting=%s\n",
		stats.Backend, stats.NumDocs, stats.Rank, stats.Weighting)
	// Output:
	// backend=lsi docs=4 rank=2 weighting=log
}

// ExampleRetriever_Query shows the synonymy effect that motivates the
// paper: the "automobile" documents never contain the word "car", yet the
// LSI ranking surfaces them, while the literal vector-space baseline
// cannot.
func ExampleRetriever_Query() {
	corpus := retrieval.DemoCorpus()
	ctx := context.Background()

	lsi, err := retrieval.Build(corpus,
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		log.Fatal(err)
	}
	vsm, err := retrieval.Build(corpus, retrieval.WithBackend(retrieval.BackendVSM))
	if err != nil {
		log.Fatal(err)
	}

	for _, ret := range []retrieval.Retriever{lsi, vsm} {
		resp, err := ret.Query(ctx, retrieval.SearchRequest{Query: "automobile", TopN: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:", ret.Stats().Backend)
		for _, r := range resp.Results {
			fmt.Printf(" %s", r.ID)
		}
		fmt.Println()
	}
	// Output:
	// lsi: demo-00 demo-01 demo-02 demo-03
	// vsm: demo-01 demo-02
}
