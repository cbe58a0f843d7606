package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/retrieval"
)

// maxRequests bounds the traffic sequence a run can send; it is far
// above what a run reaches on a small host.
const maxRequests = 100000

// phaseRounds is how many times a run alternates its closed-loop and
// open-loop phases.
const phaseRounds = 4

// approxChecked is how many distinct queries of a tiered run are
// checked against the exact reference (every query of an exact run is).
const approxChecked = 1000

// buildOptions is the index build every workload serves: rank 32, the
// randomized engine, no stemming or stopwords (the corpus tokens are
// synthetic). The tiers are lsiserve runtime flags, not build options.
func buildOptions() []retrieval.Option {
	return []retrieval.Option{
		retrieval.WithRank(rank),
		retrieval.WithEngine(retrieval.EngineRandomized),
		retrieval.WithStopwordRemoval(false),
		retrieval.WithStemming(false),
	}
}

// traffic is a workload's request sequence: request i asks
// queries[seq[i]].
type traffic struct {
	queries []string
	seq     []int
}

func makeTraffic(w workload, m *corpus.Model, seed int64, n int) traffic {
	g := newQueryGen(m, seed)
	if w.zipfPool == 0 {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = i
		}
		return traffic{queries: g.uniqueQueries(n), seq: seq}
	}
	return traffic{queries: g.uniqueQueries(w.zipfPool), seq: zipfSequence(seed+1, w.zipfS, w.zipfPool, n)}
}

// bodies encodes every request of the sequence ahead of time, so the
// load generator spends its time sending.
func (t traffic) bodies() [][]byte {
	enc := make([][]byte, len(t.queries))
	for i, q := range t.queries {
		enc[i], _ = json.Marshal(struct { // strings and ints always marshal
			Query string `json:"query"`
			TopN  int    `json:"topN"`
		}{q, topN})
	}
	out := make([][]byte, len(t.seq))
	for i, q := range t.seq {
		out[i] = enc[q]
	}
	return out
}

// buildAndSave builds the served index and saves it as one file.
func buildAndSave(docs []retrieval.Document, path string) error {
	ix, err := retrieval.Build(docs, buildOptions()...)
	if err != nil {
		return err
	}
	defer ix.Close()
	return saveIndex(ix, path)
}

// references computes the exact top N of each listed query on the saved
// index in process, SearchProbe with nprobe 0 being the fully exact path.
func references(path string, queries []string, which []int) (map[int][]result, error) {
	ix, err := retrieval.Open(path)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	out := make([][]result, len(which))
	errs := make([]error, len(which))
	var next sync.Mutex
	k := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := k
				k++
				next.Unlock()
				if i >= len(which) {
					return
				}
				rs, err := ix.SearchProbe(context.Background(), queries[which[i]], topN, 0)
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = make([]result, len(rs))
				for j, r := range rs {
					out[i][j] = result{Doc: r.Doc, ID: r.ID, Score: r.Score}
				}
			}
		}()
	}
	wg.Wait()
	refs := make(map[int][]result, len(which))
	for i, q := range which {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for query %d: %w", q, errs[i])
		}
		refs[q] = out[i]
	}
	return refs, nil
}

// tally is the outcome of checking a phase's responses.
type tally struct {
	attempted, ok, shed, failed, wrong int
	checked                            int
	// overlaps holds the top-N overlap of each checked distinct query.
	// All responses to one query agree (later ones are cache hits), so a
	// popular query counts once, not once per response.
	overlaps   map[int]float64
	firstWrong string
}

func (t *tally) add(s sample, q int, refs map[int][]result, exact bool) {
	t.attempted++
	switch {
	case s.status == 0:
		t.failed++
		return
	case isShed(s.status):
		t.shed++
		return
	case s.status != 200:
		t.failed++
		return
	}
	got, err := decodeResults(s.body)
	if err == nil {
		if ref, ok := refs[q]; !ok {
			err = checkWellFormed(got)
		} else {
			if exact {
				err = checkExact(got, ref)
			} else {
				err = checkApprox(got, ref)
			}
			if t.overlaps == nil {
				t.overlaps = map[int]float64{}
			}
			t.overlaps[q] = overlap(got, ref)
			t.checked++
		}
	}
	if err != nil {
		t.failed++
		t.wrong++
		if t.firstWrong == "" {
			t.firstWrong = fmt.Sprintf("request %d: %v", s.query, err)
		}
		return
	}
	t.ok++
}

// checkedQueries picks the distinct queries whose responses are checked
// against the exact reference: all of them on an exact workload, a
// seeded sample of approxChecked on a tiered one.
func checkedQueries(w workload, tr traffic, samples []sample, seed int64) []int {
	seen := map[int]bool{}
	var qs []int
	for _, s := range samples {
		if q := tr.seq[s.query]; !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	sort.Ints(qs)
	if !w.tiered() || len(qs) <= approxChecked {
		return qs
	}
	rng := rand.New(rand.NewSource(seed + 2))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs[:approxChecked]
}

// runWorkload sets up the server, drives the closed-loop and open-loop
// phases against it, checks every response and reports the end-to-end
// metrics.
func runWorkload(o options, out io.Writer) (*report, error) {
	w := o.workload
	m, err := newModel()
	if err != nil {
		return nil, err
	}
	docs, err := sampleDocs(m, numTopics*docsPerTopic, corpusSeed, "d")
	if err != nil {
		return nil, err
	}
	tr := makeTraffic(w, m, o.seed, maxRequests)
	bodies := tr.bodies()
	index := filepath.Join(o.workdir, "index.lsi")

	// Set-up: corpus in memory -> index built and saved -> lsiserve ready.
	// The benchmark's own garbage collection between the two is not
	// the program's time and stays off the clock.
	var buildErr error
	built := timed(func() { buildErr = buildAndSave(docs, index) })
	if buildErr != nil {
		return nil, fmt.Errorf("build: %w", buildErr)
	}
	docs = nil
	// Hand the set-up garbage back to the OS: the server needs the memory.
	debug.FreeOSMemory()
	start := time.Now()
	srv, err := startServer(o.lsiserve, index, w.serverFlags())
	if err != nil {
		return nil, err
	}
	setup := built + time.Since(start)
	defer srv.stop()

	workers := runtime.NumCPU()
	closedFor := time.Duration(o.seconds) * time.Second / 4
	openFor := time.Duration(o.seconds)*time.Second - closedFor
	client := newClient(openLoopInFlight)
	url := srv.base + "/v1/search"
	warm := closedLoop(client, url, bodies[:w.warm], 0, workers, 2*time.Minute)
	if len(warm) < w.warm {
		return nil, fmt.Errorf("warm-up sent %d of %d requests", len(warm), w.warm)
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	// The phases alternate in rounds, so a slow spell of the host
	// falls on both rather than on one.
	var closed, open []sample
	var rates []float64
	var closedCPU time.Duration
	next := w.warm
	for r := 0; r < phaseRounds; r++ {
		c0, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		cl := closedLoop(client, url, bodies, next, workers, closedFor/phaseRounds)
		c1, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		closedCPU += c1 - c0
		next += len(cl)
		rates = append(rates, windowRates(cl, closedFor/phaseRounds)...)
		ol := openLoop(client, url, bodies, next, int(w.openRate*openFor.Seconds())/phaseRounds, w.openRate)
		next += len(ol)
		closed, open = append(closed, cl...), append(open, ol...)
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	client.CloseIdleConnections()

	all := append(append(warm, closed...), open...)
	refs, err := references(index, tr.queries, checkedQueries(w, tr, all, o.seed))
	if err != nil {
		return nil, err
	}
	var t tally
	for _, s := range all {
		t.add(s, tr.seq[s.query], refs, !w.tiered())
	}
	latMs, lateMs := millis(open, latency), millis(open, lateness)
	tail := tailPercentile(len(latMs))
	p50, pTail, p99 := percentile(latMs, 50), percentile(latMs, tail), percentile(latMs, 99)
	lateP99 := percentile(lateMs, 99)
	qps := median(rates)
	var ov float64
	for _, v := range t.overlaps {
		ov += v
	}
	ov /= float64(max(len(t.overlaps), 1))
	srvN := delta(before, after, `lsi_http_request_duration_seconds_count{route="search"}`)
	srvUs := delta(before, after, `lsi_http_request_duration_seconds_sum{route="search"}`) / max(srvN, 1) * 1e6
	hits := delta(before, after, `lsi_cache_lookups_total{result="hit"}`)
	lookups := hits + delta(before, after, `lsi_cache_lookups_total{result="miss"}`) +
		delta(before, after, `lsi_cache_lookups_total{result="coalesced"}`)

	fmt.Fprintf(out, "workload %s seed %d: %d docs, set-up %.2fs (build and save %.2fs), lsiserve %v; %d warm-up requests\n",
		w.name, o.seed, numTopics*docsPerTopic, setup.Seconds(), built.Seconds(), w.serverFlags(), len(warm))
	fmt.Fprintf(out, "closed loop: %d clients, %d requests in %d rounds of %v, median over %d windows of %v: %.1f qps; server CPU %.1fus per request\n",
		workers, len(closed), phaseRounds, closedFor/phaseRounds, len(rates), rateWindow, qps, float64(closedCPU.Microseconds())/float64(max(len(closed), 1)))
	fmt.Fprintf(out, "open loop: %.0f/s, %d samples: p50 %.3fms, p%.0f %.3fms (%d beyond), p99 %.3fms (%d beyond); generator late p99 %.3fms\n",
		w.openRate, len(open), p50, tail, pTail, beyond(len(latMs), tail), p99, beyond(len(latMs), 99), lateP99)
	fmt.Fprintf(out, "server: %.0f search requests, mean %.1fus in handler; cache hit ratio %.4f of %.0f lookups\n",
		srvN, srvUs, hits/max(lookups, 1), lookups)
	fmt.Fprintf(out, "checked: %d responses against the exact reference (%d distinct queries), overlap@%d %.6f\n",
		t.checked, len(refs), topN, ov)
	fmt.Fprintf(out, "attempted %d, failed %d (wrong %d), shed %d: error_rate %.6f shed_rate %.6f; peak rss %.1f MiB\n",
		t.attempted, t.failed, t.wrong, t.shed, float64(t.failed)/float64(max(t.attempted, 1)),
		float64(t.shed)/float64(max(t.attempted, 1)), rss)
	fmt.Fprintf(out, "unbounded (too unsteady between runs on a shared host to bound): qps %.1f p50_ms %.3f p99_ms %.3f\n", qps, p50, p99)
	if t.firstWrong != "" {
		fmt.Fprintf(out, "WRONG RESULT: %s\n", t.firstWrong)
	}

	rep := &report{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed}
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("overlap_at_10", ov, "ratio")
	rep.set("rss_mb", rss, "MiB")
	return rep, nil
}
