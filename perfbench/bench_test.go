package main

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/topk"
	"repro/retrieval/shard"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	m, err := newModel()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sampleDocs(m, 300, 7, "d")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleDocs(m, 300, 7, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed sampled different documents")
	}
	if c, _ := sampleDocs(m, 300, 8, "d"); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds sampled the same documents")
	}

	for _, w := range workloads {
		x, y := makeTraffic(w, m, 3, 500), makeTraffic(w, m, 3, 500)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: same seed drew different traffic", w.name)
		}
		if z := makeTraffic(w, m, 4, 500); reflect.DeepEqual(x.seq, z.seq) && reflect.DeepEqual(x.queries, z.queries) {
			t.Fatalf("%s: different seeds drew the same traffic", w.name)
		}
	}
}

func TestQueriesAreUniqueUpToTermOrder(t *testing.T) {
	m, err := newModel()
	if err != nil {
		t.Fatal(err)
	}
	g := newQueryGen(m, 1)
	seen := map[string]bool{}
	for _, q := range g.uniqueQueries(2000) {
		toks := strings.Fields(q)
		if len(toks) < minQueryLen || len(toks) > maxQueryLen {
			t.Fatalf("query %q has %d tokens", q, len(toks))
		}
		sorted := append([]string(nil), toks...)
		sort.Strings(sorted)
		k := strings.Join(sorted, " ")
		if seen[k] {
			t.Fatalf("query %q repeats an earlier one up to term order", q)
		}
		seen[k] = true
	}
}

func TestZipfSequence(t *testing.T) {
	a, b := zipfSequence(5, 1.1, 100, 5000), zipfSequence(5, 1.1, 100, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different sequences")
	}
	counts := make([]int, 100)
	for _, r := range a {
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d outside the pool", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("draws are not skewed toward low ranks: %d %d %d", counts[0], counts[10], counts[90])
	}
}

func TestTermTokenSurvivesTokenizer(t *testing.T) {
	for tok, want := range map[int]string{0: "xa", 9: "xj", 3199: "xdbjj"} {
		if got := termToken(tok); got != want {
			t.Errorf("termToken(%d) = %q, want %q", tok, got, want)
		}
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(600, 99); got != 6 {
		t.Errorf("beyond(600, 99) = %d, want 6", got)
	}
	for n, want := range map[int]float64{4500: 99, 1000: 99, 450: 97, 20: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("no samples must give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Completions in four windows and part of a fifth; the failure and
	// the partial window do not count.
	var done []sample
	for w, n := range []int{3, 3, 40, 3, 9} {
		for i := 0; i < n; i++ {
			done = append(done, sample{status: 200, done: time.Duration(w)*rateWindow + time.Millisecond})
		}
	}
	done = append(done, sample{status: 500, done: time.Millisecond})
	per := float64(time.Second / rateWindow)
	got := windowRates(done, 4*rateWindow+rateWindow/2)
	if want := []float64{3 * per, 3 * per, 40 * per, 3 * per}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	if m := median(got); m != 3*per {
		t.Errorf("median rate = %v, want %v", m, 3*per)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP lsi_http_request_duration_seconds Request latency by route, in seconds.
# TYPE lsi_http_request_duration_seconds histogram
lsi_http_request_duration_seconds_bucket{route="search",le="+Inf"} 12
lsi_http_request_duration_seconds_sum{route="search"} 0.0405
lsi_http_request_duration_seconds_count{route="search"} 12

lsi_cache_lookups_total{result="hit"} 3e+06
lsi_odd{msg="a b"} 1
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := promSeries{
		`lsi_http_request_duration_seconds_bucket{route="search",le="+Inf"}`: 12,
		`lsi_http_request_duration_seconds_sum{route="search"}`:              0.0405,
		`lsi_http_request_duration_seconds_count{route="search"}`:            12,
		`lsi_cache_lookups_total{result="hit"}`:                              3e6,
		`lsi_odd{msg="a b"}`:                                                 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	after := promSeries{`lsi_cache_lookups_total{result="hit"}`: 3e6 + 5}
	if d := delta(got, after, `lsi_cache_lookups_total{result="hit"}`); d != 5 {
		t.Errorf("delta = %v, want 5", d)
	}
	if _, err := parseProm(strings.NewReader("lsi_x{} notanumber\n")); err == nil {
		t.Error("a non-numeric value must fail")
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value must fail")
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "httpapi", start: 0, end: 100 * us, parent: -1},
		{name: "retrieval.search", start: 10 * us, end: 70 * us, parent: 0},
		{name: "scan", start: 20 * us, end: 50 * us, parent: 1},
		// Overlapping children count once; a child past its parent's end
		// is clipped to the parent.
		{name: "root", start: 200 * us, end: 300 * us, parent: -1},
		{name: "a", start: 210 * us, end: 250 * us, parent: 3},
		{name: "a", start: 240 * us, end: 260 * us, parent: 3},
		{name: "b", start: 290 * us, end: 320 * us, parent: 3},
	}
	got := selfTimes(spans)
	want := map[string]layerTotals{
		"httpapi":          {self: 40 * us, calls: 1},
		"retrieval.search": {self: 30 * us, calls: 1},
		"scan":             {self: 30 * us, calls: 1},
		"root":             {self: 40 * us, calls: 1},
		"a":                {self: 60 * us, calls: 2},
		"b":                {self: 30 * us, calls: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(4)
	tr.req = 7
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sib := tr.begin("sibling")
	tr.end(sib)
	tr.end(outer)
	if tr.open != -1 {
		t.Fatalf("open span %d after closing all", tr.open)
	}
	for i, wantParent := range []int{-1, 0, 0} {
		s := tr.spans[i]
		if s.parent != wantParent || s.req != 7 || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d, request 7", i, s, wantParent)
		}
	}
	self := selfTimes(tr.spans)
	total := tr.spans[0].end - tr.spans[0].start
	if sum := self["outer"].self + self["inner"].self + self["sibling"].self; sum != total {
		t.Errorf("self times sum to %v, outer span is %v", sum, total)
	}

	// A reset in the middle of a span drops everything recorded.
	tr.begin("warm-up")
	tr.reset()
	if len(tr.spans) != 0 || tr.open != -1 {
		t.Errorf("after reset: %d spans, open %d", len(tr.spans), tr.open)
	}
}

func ref10() []result {
	rs := make([]result, topN)
	for i := range rs {
		rs[i] = result{Doc: i, ID: termToken(i), Score: 1 - float64(i)/100}
	}
	return rs
}

func TestCheckerCatchesWrongResults(t *testing.T) {
	ref := ref10()
	if err := checkExact(ref10(), ref); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}

	swapped := ref10()
	swapped[3], swapped[4] = swapped[4], swapped[3]
	nudged := ref10()
	nudged[5].Score += 1e-9
	short := ref10()[:9]
	for name, got := range map[string][]result{"swapped": swapped, "nudged": nudged, "short": short} {
		if checkExact(got, ref) == nil {
			t.Errorf("checkExact accepted the %s result", name)
		}
	}
	within := ref10()
	within[5].Score += 1e-13
	if err := checkExact(within, ref); err != nil {
		t.Errorf("a score within tolerance was rejected: %v", err)
	}

	// A tiered result may hold other documents, but only ones that do
	// not outscore the reference's last hit, and it must keep true scores.
	approx := ref10()
	approx[9] = result{Doc: 99, ID: "other", Score: ref[9].Score - 0.001}
	if err := checkApprox(approx, ref); err != nil {
		t.Errorf("a valid approximate result was rejected: %v", err)
	}
	if got := overlap(approx, ref); got != 0.9 {
		t.Errorf("overlap = %v, want 0.9", got)
	}
	inflated := ref10()
	inflated[9] = result{Doc: 99, ID: "other", Score: ref[0].Score + 0.5}
	inflated[0], inflated[9] = inflated[9], inflated[0]
	wrongScore := ref10()
	wrongScore[2].Score -= 0.001
	unsorted := ref10()
	unsorted[1].Score, unsorted[2].Score = unsorted[2].Score, unsorted[1].Score
	for name, got := range map[string][]result{"inflated": inflated, "wrong score": wrongScore, "unsorted": unsorted} {
		if checkApprox(got, ref) == nil {
			t.Errorf("checkApprox accepted the %s result", name)
		}
	}

	// The tally counts an injected wrong response as failed and wrong,
	// a shed as neither, and a transport error as failed only.
	body := func(rs []result) []byte {
		b, _ := json.Marshal(searchResponse{Results: rs})
		return b
	}
	refs := map[int][]result{0: ref}
	var tl tally
	tl.add(sample{query: 0, status: 200, body: body(ref)}, 0, refs, true)
	tl.add(sample{query: 1, status: 200, body: body(swapped)}, 0, refs, true)
	tl.add(sample{query: 2, status: 429}, 0, refs, true)
	tl.add(sample{query: 3, status: 0}, 0, refs, true)
	tl.add(sample{query: 4, status: 500, body: []byte(`{"error":"x"}`)}, 0, refs, true)
	tl.add(sample{query: 5, status: 200, body: []byte(`not json`)}, 0, refs, true)
	want := tally{attempted: 6, ok: 1, shed: 1, failed: 4, wrong: 2, checked: 2, overlaps: map[int]float64{0: 1}}
	tl.firstWrong = ""
	if !reflect.DeepEqual(tl, want) {
		t.Fatalf("tally = %+v, want %+v", tl, want)
	}
}

func TestSameMatches(t *testing.T) {
	a := []topk.Match{{Doc: 3, Score: 0.9}, {Doc: 1, Score: 0.5}}
	if !sameMatches(a, []topk.Match{{Doc: 3, Score: 0.9}, {Doc: 1, Score: 0.5 + 1e-13}}) {
		t.Error("equal rankings reported different")
	}
	for name, b := range map[string][]topk.Match{
		"other doc":   {{Doc: 3, Score: 0.9}, {Doc: 2, Score: 0.5}},
		"other score": {{Doc: 3, Score: 0.9}, {Doc: 1, Score: 0.4}},
		"short":       {{Doc: 3, Score: 0.9}},
	} {
		if sameMatches(a, b) {
			t.Errorf("sameMatches accepted the %s ranking", name)
		}
	}
}

// TestWritePath runs the traced write path on a small sharded index:
// every batch is logged and acked, seals are compacted, and the shard
// and segment searches agree.
func TestWritePath(t *testing.T) {
	m, err := newModel()
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sampleDocs(m, 512, 1, "d")
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		texts[i], ids[i] = d.Text, d.ID
	}
	pipe := &ir.Pipeline{Vocab: ir.NewVocabulary()}
	a := corpus.TermDocMatrix(pipe.ProcessAll(texts), corpus.LogWeighting)
	sx, err := shard.Build(a, ids, shard.Config{Shards: 2, Rank: 8, Engine: lsi.EngineRandomized})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	queries := newQueryGen(m, 3).uniqueQueries(20)
	tr := newTracer(0)
	ws, err := traceWritePath(tr, sx, &layers{pipe: &ir.Pipeline{}, vocab: pipe.Vocab}, m, 9, t.TempDir(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if ws.wrong != 0 {
		t.Fatalf("%d checks failed: %s", ws.wrong, ws.firstWrong)
	}
	if ws.acked != ingestBatch*ingestBatches || ws.searched != len(queries) {
		t.Errorf("acked %d documents and searched %d queries, want %d and %d", ws.acked, ws.searched, ingestBatch*ingestBatches, len(queries))
	}
	if ws.compactPasses == 0 || ws.debtMax == 0 || ws.segments < 2 {
		t.Errorf("no compaction or one segment: %+v", ws)
	}
	totals := selfTimes(tr.spans)
	for name, calls := range map[string]int{"wal.append": ingestBatches, "shard.addbatch": ingestBatches, "shard.search": len(queries), "segment.search": len(queries)} {
		if got := totals[name].calls; got != calls {
			t.Errorf("%s: %d spans, want %d", name, got, calls)
		}
	}
}
