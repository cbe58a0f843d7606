package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/topk"
	"repro/retrieval"
	"repro/retrieval/cache"
	"repro/retrieval/httpapi"
	"repro/retrieval/shard"
)

const (
	// cacheBytes is lsiserve's default -cache-mb 64.
	cacheBytes = 64 << 20
	// annSeed is the k-means seed retrieval trains an unsharded IVF tier
	// with at its default build seed (0 plus its ANN seed offset), so the
	// replayed probe visits the cells the server visits.
	annSeed = 500009
)

// tracedIndex is the served index with a span around each call the
// HTTP handler makes into it; every other method is the index's own.
type tracedIndex struct {
	*retrieval.Index
	tr *tracer
}

func (t tracedIndex) SearchStatus(ctx context.Context, query string, n int) ([]retrieval.Result, cache.Status, error) {
	id := t.tr.begin("retrieval.search")
	defer t.tr.end(id)
	return t.Index.SearchStatus(ctx, query, n)
}

// handlerOptions are lsiserve's defaults for the handler.
func handlerOptions() httpapi.Options {
	return httpapi.Options{Timeout: 10 * time.Second, MaxTopN: 100, MaxInFlight: 256, MaxCompactionDebt: 8}
}

// serveOptions are the runtime options lsiserve opens the index with
// for workload w.
func serveOptions(w workload) []retrieval.Option {
	opts := []retrieval.Option{retrieval.WithQueryCache(cacheBytes)}
	if w.tiered() {
		opts = append(opts, retrieval.WithANN(w.annNList, w.annNProbe), retrieval.WithQuantized(w.quantBeta))
	}
	return opts
}

// sparseQuery is the text layer of a query: the index pipeline's terms
// looked up in the vocabulary, with log weights over the distinct term
// IDs in ascending order, as the retrieval layer forms them.
func sparseQuery(pipe *ir.Pipeline, vocab *ir.Vocabulary, text string) ([]int, []float64) {
	counts := map[int]float64{}
	for _, t := range pipe.Terms(text) {
		if id, ok := vocab.Lookup(t); ok {
			counts[id]++
		}
	}
	terms := make([]int, 0, len(counts))
	for id := range counts {
		terms = append(terms, id)
	}
	sort.Ints(terms)
	weights := make([]float64, len(terms))
	for i, id := range terms {
		weights[i] = 1 + math.Log(counts[id])
	}
	return terms, weights
}

// replayCounts accumulates the work counters the tier calls return.
type replayCounts struct {
	probes, cells, probed    int
	scans, scanned, reranked int
	hits, lookups            int
	agree, compared          int
}

// layers holds the layer objects the replay calls, built by the traced
// set-up from the same corpus as the served index.
type layers struct {
	pipe  *ir.Pipeline // query-time pipeline (stopwords and stemming off)
	vocab *ir.Vocabulary
	lsi   *lsi.Index
	ann   *ivf.Index
	quant *quant.Matrix
}

// search runs the scan layers of workload w on a projected query,
// recording a span around each.
func (l *layers) search(tr *tracer, w workload, pq []float64, c *replayCounts) []topk.Match {
	if !w.tiered() {
		id := tr.begin("mat.floatscan")
		ms := l.lsi.AppendSearchProjected(nil, pq, topN)
		tr.end(id)
		return ms
	}
	id := tr.begin("ivf.probe")
	qn := mat.Norm(pq)
	docs, pst := l.ann.AppendProbeDocs(nil, pq, qn, w.annNProbe)
	tr.end(id)
	id = tr.begin("quant.search")
	ms, qst := l.quant.AppendSearchDocs(nil, docs, l.lsi.DocVectors(), l.lsi.Norms(), pq, qn, topN, w.quantBeta)
	tr.end(id)
	c.probes++
	c.cells += pst.Cells
	c.probed += pst.Docs
	c.scans++
	c.scanned += qst.Scanned
	c.reranked += qst.Reranked
	return ms
}

// offPath is the other scan path: the layers the workload's server does
// not run, timed on the same queries so every layer has a figure on
// every workload.
func offPath(w workload) workload {
	if w.tiered() {
		return workload{name: w.name}
	}
	return workload{name: w.name, annNList: tierNList, annNProbe: tierNProbe, quantBeta: tierBeta}
}

// sideQueries caps the queries the traced run replays off the workload's
// own path (the other scan, the sharded index): each costs a full scan,
// and a few hundred give a steady mean.
const sideQueries = 400

// runTraced builds the index layer by layer, times lsiserve coming up
// on it and serving the workload's open loop, then replays the same
// requests in process: once through the HTTP handler with and without
// spans, and once through each layer's public functions. Last it times
// the write path on a 4-shard index of the same corpus. It reports the
// per-layer metrics and prints the ledger.
func runTraced(o options, out io.Writer) (*report, error) {
	w := o.workload
	m, err := newModel()
	if err != nil {
		return nil, err
	}
	docs, err := sampleDocs(m, numTopics*docsPerTopic, corpusSeed, "d")
	if err != nil {
		return nil, err
	}
	// The traced run sends the end-to-end run's untimed warm-up prefix,
	// then as many requests as its open loop, at the same rate: at that
	// rate requests seldom overlap, so the handler time is the
	// uncontended cost the in-process replay measures.
	openFor := time.Duration(o.seconds)*time.Second - time.Duration(o.seconds)*time.Second/4
	n := int(w.openRate * openFor.Seconds())
	tr := makeTraffic(w, m, o.seed, w.warm+n)
	bodies := tr.bodies()
	rep := &report{Correct: true}

	// Set-up, one layer at a time, as retrieval.Build runs them.
	texts := make([]string, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		texts[i], ids[i] = d.Text, d.ID
	}
	docs = nil
	l := &layers{pipe: &ir.Pipeline{}}
	build := &ir.Pipeline{Vocab: ir.NewVocabulary()}
	var c *corpus.Corpus
	dProcess := timed(func() { c = build.ProcessAll(texts) })
	l.vocab = build.Vocab
	var a *sparse.CSR
	dTermdoc := timed(func() { a = corpus.TermDocMatrix(c, corpus.LogWeighting) })
	dSVD := timed(func() { l.lsi, err = lsi.Build(a, rank, lsi.Options{Engine: lsi.EngineRandomized}) })
	if err != nil {
		return nil, err
	}
	var sx *shard.Index
	dShard := timed(func() { sx, err = shard.Build(a, ids, ingestConfig()) })
	if err != nil {
		return nil, err
	}
	defer sx.Close()
	c, a, texts = nil, nil, nil
	built := filepath.Join(o.workdir, "built.lsi")
	if err := saveLSI(l.lsi, l.vocab, ids, built); err != nil {
		return nil, err
	}
	ix0, err := retrieval.Open(built)
	if err != nil {
		return nil, err
	}
	index := filepath.Join(o.workdir, "index.lsi")
	var saveErr error
	dSave := timed(func() { saveErr = saveIndex(ix0, index) })
	ix0.Close()
	if saveErr != nil {
		return nil, saveErr
	}
	dIVF := timed(func() {
		l.ann, err = ivf.Train(l.lsi.DocVectors(), l.lsi.Norms(), ivf.TrainOptions{NList: tierNList, Seed: annSeed})
	})
	if err != nil {
		return nil, err
	}
	dQuant := timed(func() { l.quant = quant.Quantize(l.lsi.DocVectors()) })
	// Hand the set-up garbage back to the OS: the server needs the memory.
	debug.FreeOSMemory()

	start := time.Now()
	srv, err := startServer(o.lsiserve, index, w.serverFlags())
	if err != nil {
		return nil, err
	}
	dReady := time.Since(start)
	defer srv.stop()

	// Each in-process handler serves a freshly opened index, so all
	// three caches (two handlers and the layer replay) see the request
	// sequence from empty, as lsiserve's does.
	plain, err := retrieval.Open(index, serveOptions(w)...)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	served, err := retrieval.Open(index, serveOptions(w)...)
	if err != nil {
		return nil, err
	}
	defer served.Close()
	trc := newTracer(16 * (w.warm + n))
	hPlain := httpapi.NewHandler(plain, handlerOptions())
	hTraced := httpapi.NewHandler(tracedIndex{served, trc}, handlerOptions())
	var cnt replayCounts
	qc := cache.New[[]topk.Match](cache.Config{MaxBytes: cacheBytes}, func(ms []topk.Match) int64 { return int64(24 + 16*len(ms)) })
	key := make([]byte, 0, 128)

	// serve runs request i through the untraced handler, the traced
	// handler and the layer replay. It returns the untraced handler's
	// time and the traced handler's allocation count.
	serve := func(i int) (time.Duration, uint64) {
		req, rec := searchRequest(bodies[i])
		t := time.Now()
		hPlain.ServeHTTP(rec, req)
		plainTime := time.Since(t)

		req, rec = searchRequest(bodies[i])
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		trc.req = i
		id := trc.begin("httpapi")
		hTraced.ServeHTTP(rec, req)
		trc.end(id)
		runtime.ReadMemStats(&m1)
		want := responseIDs(rec)
		rep.Attempted++
		if want == nil {
			rep.Failed++
			rep.Correct = false
		}

		root := trc.begin("replay")
		id = trc.begin("ir.terms")
		terms, weights := sparseQuery(l.pipe, l.vocab, tr.queries[tr.seq[i]])
		trc.end(id)
		id = trc.begin("cache.key")
		key = cache.AppendQueryKey(key[:0], 0, topN, terms, weights)
		trc.end(id)
		id = trc.begin("cache.lookup")
		ms, st := qc.Do(key, func() ([]topk.Match, bool) {
			id := trc.begin("lsi.foldin")
			pq := l.lsi.ProjectSparse(terms, weights)
			trc.end(id)
			return l.search(trc, w, pq, &cnt), true
		})
		trc.end(id)
		cnt.lookups++
		if st == cache.StatusHit {
			cnt.hits++
		}
		id = trc.begin("retrieval.idlookup")
		got := make([]string, len(ms))
		for j := range ms {
			got[j] = served.DocID(ms[j].Doc)
		}
		trc.end(id)
		trc.end(root)
		if want != nil {
			cnt.compared++
			if slices.Equal(got, want) {
				cnt.agree++
			}
		}
		return plainTime, m1.Mallocs - m0.Mallocs
	}

	// Warm-up: the untimed prefix goes to lsiserve and down every
	// in-process path; its spans and counts are dropped.
	client := newClient(openLoopInFlight)
	url := srv.base + "/v1/search"
	warm := closedLoop(client, url, bodies[:w.warm], 0, runtime.NumCPU(), 2*time.Minute)
	for i := 0; i < w.warm; i++ {
		serve(i)
	}
	trc.reset()
	cnt = replayCounts{}

	// The measured requests go, block by block, to lsiserve, then
	// through both handlers and the layer replay. Interleaving the
	// blocks exposes every measurement to the same spells of a noisy
	// host.
	var sent []sample
	var srvSum, srvN float64
	var plainTime time.Duration
	var mallocs uint64
	const blocks = 6
	runtime.GC()
	for b := 0; b < blocks; b++ {
		lo, hi := w.warm+b*n/blocks, w.warm+(b+1)*n/blocks
		before, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		sent = append(sent, openLoop(client, url, bodies, lo, hi-lo, w.openRate)...)
		after, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		srvN += delta(before, after, `lsi_http_request_duration_seconds_count{route="search"}`)
		srvSum += delta(before, after, `lsi_http_request_duration_seconds_sum{route="search"}`)
		for i := lo; i < hi; i++ {
			d, a := serve(i)
			plainTime += d
			mallocs += a
		}
	}
	srv.stop()
	client.CloseIdleConnections()
	serverUs := srvSum / max(srvN, 1) * 1e6
	for _, s := range append(warm, sent...) {
		rep.Attempted++
		if s.status != http.StatusOK {
			rep.Failed++
			continue
		}
		if got, err := decodeResults(s.body); err != nil || checkWellFormed(got) != nil {
			rep.Failed++
			rep.Correct = false
		}
	}
	clientP50Us := percentile(millis(sent, latency), 50) * 1000
	lateP99 := percentile(millis(sent, lateness), 99)
	allocs := float64(mallocs) / float64(n)
	var tracedTime time.Duration
	for _, sp := range trc.spans {
		if sp.name == "httpapi" {
			tracedTime += sp.end - sp.start
		}
	}
	overhead := float64(tracedTime-plainTime) / float64(plainTime)
	tracedNs, plainNs := float64(tracedTime)/float64(n), float64(plainTime)/float64(n)

	// The layers off this workload's path, on the first of the same
	// queries.
	side := min(n, sideQueries)
	offTr := newTracer(4 * side)
	var offCnt replayCounts
	ow := offPath(w)
	queries := make([]string, side)
	for k := range queries {
		i := w.warm + k
		queries[k] = tr.queries[tr.seq[i]]
		terms, weights := sparseQuery(l.pipe, l.vocab, queries[k])
		pq := l.lsi.ProjectSparse(terms, weights)
		offTr.req = i
		l.search(offTr, ow, pq, &offCnt)
	}

	// The write path and the sharded read path.
	wtr := newTracer(4*ingestBatches + 2*side)
	ws, err := traceWritePath(wtr, sx, l, m, o.seed+3, o.workdir, queries)
	if err != nil {
		return nil, fmt.Errorf("write path: %w", err)
	}
	rep.Attempted += ingestBatches + ws.searched
	rep.Failed += ws.wrong
	if ws.wrong > 0 {
		rep.Correct = false
	}

	if err := writeSpans(filepath.Join(filepath.Dir(o.workdir), "spans-"+w.name+".tsv"), slices.Concat(trc.spans, offTr.spans, wtr.spans)); err != nil {
		return nil, err
	}

	on, off, wt := selfTimes(trc.spans), selfTimes(offTr.spans), selfTimes(wtr.spans)
	perReq := func(name string) float64 {
		if t, ok := on[name]; ok {
			return float64(t.self) / float64(n) / 1e3
		}
		return perCall(off, name)
	}
	counts := cnt
	if !w.tiered() {
		counts = offCnt
	}
	pathLayers := []string{"httpapi", "ir.terms", "cache.key", "cache.lookup", "lsi.foldin"}
	if w.tiered() {
		pathLayers = append(pathLayers, "ivf.probe", "quant.search")
	} else {
		pathLayers = append(pathLayers, "mat.floatscan")
	}
	pathLayers = append(pathLayers, "retrieval.idlookup")
	var sum float64
	var rows []ledgerRow
	for _, name := range pathLayers {
		v := perReq(name)
		sum += v
		rows = append(rows, ledgerRow{layer: name, selfUs: v, counts: layerCounts(name, counts, cnt)})
	}
	residual := (serverUs - sum) / serverUs
	rows = append(rows, ledgerRow{layer: "(retrieval.search)", selfUs: perReq("retrieval.search"), counts: "SearchStatus inside the handler"})
	for _, name := range []string{"mat.floatscan", "ivf.probe", "quant.search"} {
		if _, ok := off[name]; ok {
			rows = append(rows, ledgerRow{layer: "(" + name + ")", selfUs: perReq(name), counts: "off path: per query, not in the sum"})
		}
	}
	fmt.Fprintf(out, "traced %s seed %d: %d warm-up and %d measured requests; lsiserve handler %.1fus, client p50 %.1fus; in-process handler %.1fus traced, %.1fus untraced; replay agrees with the handler on %d of %d\n",
		w.name, o.seed, w.warm, n, serverUs, clientP50Us, tracedNs/1e3, plainNs/1e3, cnt.agree, cnt.compared)
	printLedger(out, w.name, rows, serverUs, residual, overhead)
	printWritePath(out, ws, wt, dShard)

	rep.set("ir.process_s", dProcess.Seconds(), "s")
	rep.set("corpus.termdoc_s", dTermdoc.Seconds(), "s")
	rep.set("svd.randomized_s", dSVD.Seconds(), "s")
	rep.set("retrieval.save_s", dSave.Seconds(), "s")
	rep.set("ivf.train_s", dIVF.Seconds(), "s")
	rep.set("quant.quantize_s", dQuant.Seconds(), "s")
	rep.set("shard.build_s", dShard.Seconds(), "s")
	rep.set("lsiserve.ready_s", dReady.Seconds(), "s")
	rep.set("httpapi.self_us", perReq("httpapi"), "us")
	rep.set("httpapi.allocs_per_req", allocs, "count")
	rep.set("ir.terms_us", perReq("ir.terms"), "us")
	rep.set("cache.key_us", perReq("cache.key"), "us")
	rep.set("cache.lookup_us", perReq("cache.lookup"), "us")
	rep.set("cache.hit_ratio", float64(cnt.hits)/float64(max(cnt.lookups, 1)), "ratio")
	rep.set("cache.evictions", float64(qc.Stats().Evictions), "count")
	rep.set("lsi.foldin_us", perReq("lsi.foldin"), "us")
	rep.set("mat.floatscan_us", perReq("mat.floatscan"), "us")
	rep.set("ivf.probe_us", perReq("ivf.probe"), "us")
	rep.set("ivf.cells_probed", float64(counts.cells)/float64(max(counts.probes, 1)), "count")
	rep.set("ivf.docs_scored", float64(counts.probed)/float64(max(counts.probes, 1)), "count")
	rep.set("quant.search_us", perReq("quant.search"), "us")
	rep.set("quant.docs_scanned", float64(counts.scanned)/float64(max(counts.scans, 1)), "count")
	rep.set("quant.docs_reranked", float64(counts.reranked)/float64(max(counts.scans, 1)), "count")
	rep.set("quant.rerank_ratio", float64(counts.reranked)/float64(max(counts.scanned, 1)), "ratio")
	rep.set("retrieval.idlookup_us", perReq("retrieval.idlookup"), "us")
	rep.set("retrieval.search_us", perReq("retrieval.search"), "us")
	rep.set("wal.append_us", perCall(wt, "wal.append"), "us")
	rep.set("shard.addbatch_us", perCall(wt, "shard.addbatch"), "us")
	rep.set("shard.compact_s", perCall(wt, "shard.compact")/1e6, "s")
	rep.set("shard.compactions", float64(ws.compactions), "count")
	rep.set("shard.debt_max", float64(ws.debtMax), "count")
	rep.set("shard.search_us", perCall(wt, "shard.search"), "us")
	rep.set("segment.search_us", perCall(wt, "segment.search"), "us")
	rep.set("segment.segments_per_query", float64(ws.segments), "count")
	rep.set("server.time_us", serverUs, "us")
	rep.set("net.residual_us", clientP50Us-serverUs, "us")
	rep.set("ledger.residual_frac", residual, "ratio")
	rep.set("ledger.replay_agree", float64(cnt.agree)/float64(max(cnt.compared, 1)), "ratio")
	rep.set("trace.overhead_frac", overhead, "ratio")
	rep.set("loadgen.late_p99_ms", lateP99, "ms")
	return rep, nil
}

// perCall is the mean self time of one call of the named layer in
// microseconds.
func perCall(totals map[string]layerTotals, name string) float64 {
	t := totals[name]
	return float64(t.self) / float64(max(t.calls, 1)) / 1e3
}

// layerCounts is the count column of a ledger row.
func layerCounts(name string, c, path replayCounts) string {
	switch name {
	case "cache.lookup":
		return fmt.Sprintf("hits %d of %d", path.hits, path.lookups)
	case "ivf.probe":
		return fmt.Sprintf("%d probes, %.1f cells, %.0f docs each", c.probes,
			float64(c.cells)/float64(max(c.probes, 1)), float64(c.probed)/float64(max(c.probes, 1)))
	case "quant.search":
		return fmt.Sprintf("%d scans, %.0f scanned, %.0f reranked each", c.scans,
			float64(c.scanned)/float64(max(c.scans, 1)), float64(c.reranked)/float64(max(c.scans, 1)))
	}
	return ""
}

// searchRequest is a POST /v1/search of body with a fresh recorder.
func searchRequest(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}

// responseIDs returns the result IDs of a recorded search response, nil
// when it failed or is malformed.
func responseIDs(rec *httptest.ResponseRecorder) []string {
	if rec.Code != http.StatusOK {
		return nil
	}
	got, err := decodeResults(rec.Body.Bytes())
	if err != nil || checkWellFormed(got) != nil {
		return nil
	}
	ids := make([]string, len(got))
	for i, g := range got {
		ids[i] = g.ID
	}
	return ids
}

// saveLSI writes the layer-built LSI index with its text layer, in the
// stream format retrieval.Open reads.
func saveLSI(ix *lsi.Index, vocab *ir.Vocabulary, ids []string, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := &lsi.Meta{Vocab: vocab.Terms(), WeightingName: "log", DocIDs: ids}
	if err := ix.SaveMeta(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveIndex writes ix to path with retrieval's own Save.
func saveIndex(ix *retrieval.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
