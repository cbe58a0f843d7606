// Command fidelity gates an approximate search tier against the exact
// scan on the paper's corpus model, end to end: it reads a corpusgen
// JSON-lines corpus, builds an LSI index with the chosen tier — the IVF
// ANN tier (-tier ann, WithANN) or the int8 quantized scoring tier
// (-tier int8, WithQuantized) — and measures recall@topN and latency of
// the tier's default search against the same index's exact escape hatch
// (SearchProbe with nprobe=0). The comparison isolates the tier: same
// decomposition, vocabulary and weighting; only the candidate selection
// differs. It exits non-zero when recall falls below -min-recall or the
// exact-to-tier latency ratio falls below -min-speedup, so CI can use it
// as a pass/fail smoke (scripts/fidelity_smoke.sh drives it via
// `make ann-smoke` and `make quant-smoke`).
//
// Usage:
//
//	corpusgen -topics 128 -docs-per-topic 800 -eps 0.1 -o corpus.jsonl
//	fidelity -tier ann -corpus corpus.jsonl -rank 32 -nlist 128 -nprobe 8 \
//	         -min-recall 0.95 -min-speedup 1.0 -o ann-smoke.json
//	fidelity -tier int8 -corpus corpus.jsonl -rank 64 -beta 64 \
//	         -min-recall 0.99 -min-speedup 1.0 -o quant-smoke.json
//
// Queries are documents sampled from the corpus itself (the model's own
// distribution), so fidelity is measured exactly where the paper's
// topic-clustering guarantees apply. Corpus term IDs are rendered as
// letter-only tokens so the text pipeline preserves them one-to-one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/retrieval"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fidelity: %v\n", err)
		os.Exit(1)
	}
}

// Summary is the machine-readable result of one run: the corpus and tier
// shape, the measured recall, and the per-query latency of both paths.
// It is written as JSON to -o (CI archives ann-smoke.json and
// quant-smoke.json).
type Summary struct {
	Tier     string `json:"tier"`
	Docs     int    `json:"docs"`
	NumTerms int    `json:"numTerms"`
	Rank     int    `json:"rank"`
	NList    int    `json:"nlist,omitempty"`
	NProbe   int    `json:"nprobe,omitempty"`
	Beta     int    `json:"beta,omitempty"`
	TopN     int    `json:"topN"`
	Queries  int    `json:"queries"`
	// Recall is recall@topN of the tier's ranking against the exact one,
	// averaged over the query set (internal/eval.TopKOverlap: the top-N
	// overlap).
	Recall float64 `json:"recall"`
	// ExactNsPerQuery and TierNsPerQuery are wall-clock means over the
	// query set (best of two interleaved passes); Speedup is their ratio.
	ExactNsPerQuery float64 `json:"exact_ns_per_query"`
	TierNsPerQuery  float64 `json:"tier_ns_per_query"`
	Speedup         float64 `json:"speedup"`
	// DocsPerQuery is the mean work the tier did per query, from its
	// lifetime counters: candidates scored by the IVF probe (ann), or
	// candidates rescored in float after the int8 scan (int8).
	DocsPerQuery float64 `json:"docs_per_query"`
	// QuantBytes and FloatBytes compare the int8 shadow's footprint to
	// the float64 document matrix it shadows (int8 only).
	QuantBytes int64 `json:"quant_bytes,omitempty"`
	FloatBytes int64 `json:"float_bytes,omitempty"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fidelity", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tier := fs.String("tier", "", "tier to gate: ann (IVF probe) or int8 (quantized scan) (required)")
	corpusPath := fs.String("corpus", "", "corpusgen JSON-lines corpus to index (required)")
	rank := fs.Int("rank", 32, "LSI rank")
	nlist := fs.Int("nlist", 128, "IVF cell count (ann)")
	nprobe := fs.Int("nprobe", 8, "probe budget of the measured search (ann)")
	beta := fs.Int("beta", 4, "rerank over-fetch: the int8 scan selects topn*beta candidates (int8)")
	topN := fs.Int("topn", 10, "result depth for the recall measurement")
	nq := fs.Int("queries", 200, "number of queries sampled from the corpus")
	seed := fs.Int64("seed", 1, "query-sampling seed")
	minRecall := fs.Float64("min-recall", 0, "fail when recall@topn falls below this")
	minSpeedup := fs.Float64("min-speedup", 0, "fail when the exact/tier latency ratio falls below this")
	out := fs.String("o", "-", "summary output path ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	s := Summary{Tier: *tier, Rank: *rank, TopN: *topN, Queries: *nq}
	var tierOpt retrieval.Option
	switch *tier {
	case "ann":
		s.NList, s.NProbe = *nlist, *nprobe
		tierOpt = retrieval.WithANN(*nlist, *nprobe)
	case "int8":
		if *beta <= 0 {
			return fmt.Errorf("-beta must be positive")
		}
		s.Beta = *beta
		tierOpt = retrieval.WithQuantized(*beta)
	default:
		return fmt.Errorf("-tier must be ann or int8, got %q", *tier)
	}
	if *corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	if *nq <= 0 || *topN <= 0 {
		return fmt.Errorf("-queries and -topn must be positive")
	}

	f, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	c, err := corpus.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(c.Docs) == 0 {
		return fmt.Errorf("corpus %s is empty", *corpusPath)
	}
	docs := make([]retrieval.Document, len(c.Docs))
	for i := range c.Docs {
		docs[i] = retrieval.Document{ID: fmt.Sprintf("d%06d", i), Text: docText(&c.Docs[i])}
	}
	s.Docs, s.NumTerms = len(docs), c.NumTerms
	fmt.Fprintf(stderr, "fidelity: indexing %d documents (tier=%s rank=%d)\n", len(docs), *tier, *rank)
	buildStart := time.Now()
	ix, err := retrieval.Build(docs,
		retrieval.WithRank(*rank),
		retrieval.WithEngine(retrieval.EngineRandomized),
		retrieval.WithStopwordRemoval(false),
		retrieval.WithStemming(false),
		tierOpt)
	if err != nil {
		return err
	}
	defer ix.Close()
	fmt.Fprintf(stderr, "fidelity: index built in %v\n", time.Since(buildStart).Round(time.Millisecond))

	rng := rand.New(rand.NewSource(*seed))
	queries := make([]string, *nq)
	for i := range queries {
		queries[i] = docs[rng.Intn(len(docs))].Text
	}
	// nprobe=0 is the fully exact escape hatch: float kernels over every
	// document. The default search routes through the configured tier.
	exact := func(q string) ([]retrieval.Result, error) { return ix.SearchProbe(ctx, q, *topN, 0) }
	tiered := func(q string) ([]retrieval.Result, error) { return ix.Search(ctx, q, *topN) }
	// work reads the tier's lifetime counters: searches through it and
	// the per-query work figure of the summary.
	work := func() (searches, docs int64) {
		if *tier == "ann" {
			st, _ := ix.ANNStats()
			return st.Searches, st.DocsScored
		}
		st, _ := ix.QuantStats()
		return st.Searches, st.DocsReranked
	}

	// Warm both paths so neither measurement pays first-touch costs.
	for _, search := range []func(string) ([]retrieval.Result, error){exact, tiered} {
		if _, err := search(queries[0]); err != nil {
			return err
		}
	}
	// One timed pass over the query set; ids, when non-nil, collects the
	// ranking of each query.
	pass := func(ids [][]string, search func(string) ([]retrieval.Result, error)) (float64, error) {
		start := time.Now()
		for i, q := range queries {
			res, err := search(q)
			if err != nil {
				return 0, err
			}
			if ids != nil {
				ids[i] = make([]string, len(res))
				for j, r := range res {
					ids[i][j] = r.ID
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(queries)), nil
	}
	// Interleave the paths A/B/A/B and keep each path's best pass: the
	// float scan is memory-bandwidth-bound, so a mid-run shift in the
	// machine's effective bandwidth would otherwise charge one path and
	// not the other, making the speedup gate flap.
	truth := make([][]string, len(queries))
	got := make([][]string, len(queries))
	searches0, docs0 := work()
	if s.ExactNsPerQuery, err = pass(truth, exact); err != nil {
		return err
	}
	if s.TierNsPerQuery, err = pass(got, tiered); err != nil {
		return err
	}
	searches1, docs1 := work()
	if searches1-searches0 != int64(len(queries)) {
		return fmt.Errorf("searches bypassed the %s tier: %d of %d went through it", *tier, searches1-searches0, len(queries))
	}
	for _, p := range []struct {
		ns     *float64
		search func(string) ([]retrieval.Result, error)
	}{{&s.ExactNsPerQuery, exact}, {&s.TierNsPerQuery, tiered}} {
		ns, err := pass(nil, p.search)
		if err != nil {
			return err
		}
		*p.ns = min(*p.ns, ns)
	}
	s.Recall = eval.TopKOverlap(got, truth, *topN)
	s.Speedup = s.ExactNsPerQuery / s.TierNsPerQuery
	s.DocsPerQuery = float64(docs1-docs0) / float64(len(queries))
	if qs, ok := ix.QuantStats(); ok {
		s.QuantBytes = qs.Bytes
		s.FloatBytes = int64(len(docs)) * int64(*rank) * 8
	}
	fmt.Fprintf(stderr, "fidelity: %s recall@%d=%.4f speedup=%.2fx (%.0f of %d docs per query)\n",
		s.Tier, s.TopN, s.Recall, s.Speedup, s.DocsPerQuery, s.Docs)

	var w io.Writer = stdout
	if *out != "-" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := of.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = of
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}

	if s.Recall < *minRecall {
		return fmt.Errorf("recall@%d = %.4f below the %.4f gate", s.TopN, s.Recall, *minRecall)
	}
	if s.Speedup < *minSpeedup {
		return fmt.Errorf("speedup = %.2fx below the %.2fx gate (exact %.0fns vs %s %.0fns per query)",
			s.Speedup, *minSpeedup, s.ExactNsPerQuery, s.Tier, s.TierNsPerQuery)
	}
	return nil
}

// docText renders a sampled document as text the index pipeline
// preserves verbatim: Tokenize splits on digits, so term IDs become
// letter-only tokens ("x" plus the decimal digits mapped a–j).
func docText(d *corpus.Document) string {
	var b strings.Builder
	for i, t := range d.Terms {
		tok := termToken(t)
		for n := 0; n < d.Counts[i]; n++ {
			b.WriteString(tok)
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func termToken(t int) string {
	const letters = "abcdefghij"
	s := strconv.Itoa(t)
	b := make([]byte, 1, len(s)+1)
	b[0] = 'x'
	for i := 0; i < len(s); i++ {
		b = append(b, letters[s[i]-'0'])
	}
	return string(b)
}
