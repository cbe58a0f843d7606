// Command lsiquery builds an LSI index over plain-text documents through
// the public retrieval package and answers queries, printing the LSI
// ranking side by side with the conventional vector-space ranking so the
// synonymy behaviour of the paper is visible on real text.
//
// Usage:
//
//	lsiquery [-k 3] [-top 5] [-cache-mb 0] [file1.txt file2.txt ...]
//	lsiquery -q "car engine repair"          # non-interactive, scriptable
//	lsiquery -save-index demo.idx            # write a self-contained index
//	lsiquery -stats                          # describe the index (incl. query cache) and exit
//	lsiquery -ann-nlist 16 -nprobe 2 -q ...  # sublinear IVF cell-probe search
//
// Each file is one document. With no files, a small built-in demo corpus
// (cars/space/cooking themes with synonym variation) is indexed. Without
// -q, queries are read line by line from stdin. Indexes written by
// -save-index are self-contained (wire format v2: vocabulary, weighting,
// document IDs) and can be served directly by `lsiserve -index`.
//
// -ann-nlist trains an IVF ANN tier over the LSI space (see
// retrieval.WithANN) and -nprobe sets how many cells each LSI query
// scores (0 = exhaustive; -nprobe >= -ann-nlist matches the exhaustive
// ranking exactly). -quant-beta adds the int8 quantized scoring tier
// (see retrieval.WithQuantized): the scan runs over the int8 shadow,
// the top topN*beta candidates are reranked with the exact float
// kernels, and both tiers compose. The VSM column always scans
// exhaustively — it has no latent space to quantize.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/retrieval"
)

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lsiquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 3, "LSI rank (0 = auto)")
	topN := fs.Int("top", 5, "results to show per system")
	saveIndex := fs.String("save-index", "", "write the built LSI index to this path and exit")
	query := fs.String("q", "", "answer this one query and exit instead of reading stdin")
	statsOnly := fs.Bool("stats", false, "print index statistics (backend, rank, vocabulary, memory estimate, query cache) and exit")
	cacheMB := fs.Int("cache-mb", 0, "attach a query result cache of this many MiB (0 = uncached; repeated interactive queries answer from memory)")
	annNList := fs.Int("ann-nlist", 0, "train an IVF ANN tier with this many k-means cells over the LSI space (0 = no tier)")
	nprobe := fs.Int("nprobe", 0, "ANN cells scored per LSI query (0 = exhaustive scan; needs -ann-nlist)")
	quantBeta := fs.Int("quant-beta", 0, "quantized scoring tier: int8 scan selects top*beta candidates for exact rerank (0 = float scan)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nprobe > 0 && *annNList <= 0 {
		return fmt.Errorf("-nprobe needs an ANN tier; set -ann-nlist too")
	}

	docs := retrieval.DemoCorpus()
	if fs.NArg() > 0 {
		var err error
		if docs, err = retrieval.ReadFiles(fs.Args()); err != nil {
			return err
		}
	}

	lsiIx, err := retrieval.Build(docs, retrieval.WithRank(*k),
		retrieval.WithQueryCache(int64(*cacheMB)<<20),
		retrieval.WithANN(*annNList, *nprobe),
		retrieval.WithQuantized(*quantBeta))
	if err != nil {
		return err
	}
	if *statsOnly {
		printStats(stdout, lsiIx.Stats())
		return nil
	}
	if *saveIndex != "" {
		f, err := os.Create(*saveIndex)
		if err != nil {
			return err
		}
		if err := lsiIx.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Saved self-contained rank-%d index over %d documents to %s\n",
			lsiIx.Rank(), lsiIx.NumDocs(), *saveIndex)
		return nil
	}
	vsmIx, err := retrieval.Build(docs, retrieval.WithBackend(retrieval.BackendVSM))
	if err != nil {
		return err
	}

	ctx := context.Background()
	answer := func(q string) error {
		res, err := lsiIx.Search(ctx, q, *topN)
		// An empty line is an invalid request; it has no terms either.
		if errors.Is(err, retrieval.ErrNoQueryTerms) || errors.Is(err, retrieval.ErrInvalidRequest) {
			fmt.Fprintln(stdout, "  (no query terms in the vocabulary)")
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "  LSI:")
		for _, m := range res {
			fmt.Fprintf(stdout, "    %-12s score=%.4f  %s\n", m.ID, m.Score, snippet(docs[m.Doc].Text))
		}
		fmt.Fprintln(stdout, "  VSM:")
		vres, err := vsmIx.Search(ctx, q, *topN)
		if err != nil && !errors.Is(err, retrieval.ErrNoQueryTerms) {
			return err
		}
		if len(vres) == 0 {
			fmt.Fprintln(stdout, "    (no literal term matches)")
		}
		for _, m := range vres {
			fmt.Fprintf(stdout, "    %-12s score=%.4f  %s\n", m.ID, m.Score, snippet(docs[m.Doc].Text))
		}
		return nil
	}

	if *query != "" {
		fmt.Fprintf(stdout, "query: %s\n", *query)
		return answer(*query)
	}

	fmt.Fprintf(stdout, "Indexed %d documents, %d terms, rank-%d LSI. Enter queries (Ctrl-D to quit).\n",
		lsiIx.NumDocs(), lsiIx.NumTerms(), lsiIx.Rank())
	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "query> ")
	for sc.Scan() {
		if err := answer(sc.Text()); err != nil {
			return err
		}
		fmt.Fprint(stdout, "query> ")
	}
	fmt.Fprintln(stdout)
	return sc.Err()
}

func snippet(text string) string {
	const max = 60
	if len(text) <= max {
		return text
	}
	return text[:max] + "..."
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "lsiquery: %v\n", err)
		}
		os.Exit(1)
	}
}

// printStats renders the full retrieval.Stats for -stats: the backend
// kind, dimensions, rank, vocabulary size, and the per-backend memory
// estimate.
func printStats(w io.Writer, st retrieval.Stats) {
	fmt.Fprintf(w, "backend:      %s\n", st.Backend)
	fmt.Fprintf(w, "documents:    %d\n", st.NumDocs)
	fmt.Fprintf(w, "terms:        %d\n", st.NumTerms)
	fmt.Fprintf(w, "vocabulary:   %d terms (text queries: %v)\n", st.VocabSize, st.TextQueries)
	if st.Rank > 0 {
		fmt.Fprintf(w, "rank:         %d\n", st.Rank)
	}
	fmt.Fprintf(w, "weighting:    %s\n", st.Weighting)
	fmt.Fprintf(w, "memory (est): %s\n", humanBytes(st.MemoryBytes))
	if st.Sharded {
		fmt.Fprintf(w, "shards:       %d (%d segments: %d live, %d sealed, %d compacted)\n",
			st.Shards, st.Segments, st.LiveSegments, st.SealedPending, st.CompactedSegments)
	}
	if st.ANN != nil {
		fmt.Fprintf(w, "ann tier:     nlist=%d nprobe=%d (%d quantizers over %d documents)\n",
			st.ANN.NList, st.ANN.NProbe, st.ANN.Segments, st.ANN.Docs)
	}
	if st.Quant != nil {
		fmt.Fprintf(w, "quant tier:   beta=%d (%d int8 shadows over %d documents, %s)\n",
			st.Quant.Beta, st.Quant.Segments, st.Quant.Docs, humanBytes(st.Quant.Bytes))
	}
	if st.Cache != nil {
		fmt.Fprintf(w, "query cache:  %s cap, %d entries (%s), epoch %d\n",
			humanBytes(st.Cache.CapBytes), st.Cache.Entries, humanBytes(st.Cache.Bytes), st.Cache.Epoch)
		fmt.Fprintf(w, "              %d hits / %d misses / %d coalesced / %d evictions\n",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Coalesced, st.Cache.Evictions)
	} else {
		fmt.Fprintf(w, "query cache:  off (enable with -cache-mb)\n")
	}
}

// humanBytes renders a byte count at a readable scale.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
