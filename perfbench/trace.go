package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Start and end are offsets
// from the tracer's epoch; parent is the index of the enclosing span, -1
// for a root; req identifies the request the call served.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer records spans in memory for one goroutine. The benchmark opens
// a span around each call it makes into a layer, so a span's children
// are the calls made while it was open.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 for none
	req   int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: t.open, req: t.req})
	t.open = len(t.spans) - 1
	return t.open
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.open = -1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.spans[id].parent
}

// layerTotals is the summed self time and the call count of one layer.
type layerTotals struct {
	self  time.Duration
	calls int
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[string]layerTotals {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]layerTotals)
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		t := out[s.name]
		t.self += s.end - s.start - covered(ivs)
		t.calls++
		out[s.name] = t
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, iv := range ivs {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as tab-separated lines: request, name,
// start and end in nanoseconds since the tracer's epoch, parent index.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tname\tstart_ns\tend_ns\tparent")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.req, s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one line of the per-layer ledger.
type ledgerRow struct {
	layer  string
	selfUs float64 // self time per request, microseconds
	counts string
}

// printLedger writes the ledger table: each layer's self time per
// request and its share of the server time, then the health line.
func printLedger(out io.Writer, workload string, rows []ledgerRow, serverUs, residual, overhead float64) {
	fmt.Fprintf(out, "ledger %s (per request; share of server time %.1fus)\n", workload, serverUs)
	fmt.Fprintf(out, "  %-22s %12s %8s  %s\n", "layer", "self_us", "share", "counts")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-22s %12.2f %7.1f%%  %s\n", r.layer, r.selfUs, 100*r.selfUs/serverUs, r.counts)
	}
	fmt.Fprintf(out, "  ledger.residual_frac %.4f  trace.overhead_frac %.4f\n", residual, overhead)
}

// printWritePath writes the write-path table: each call's self time and
// what the replay counted.
func printWritePath(out io.Writer, ws writeStats, totals map[string]layerTotals, build time.Duration) {
	fmt.Fprintf(out, "write path (%d shards built in %.2fs; %d batches of %d documents; per call)\n", ingestShards, build.Seconds(), ingestBatches, ingestBatch)
	rows := []struct{ name, counts string }{
		{"wal.append", "append and fsync of one batch record"},
		{"shard.addbatch", fmt.Sprintf("%d documents acked", ws.acked)},
		{"shard.compact", fmt.Sprintf("%d passes, %d segment rebuilds, debt max %d", ws.compactPasses, ws.compactions, ws.debtMax)},
		{"shard.search", fmt.Sprintf("%d queries", ws.searched)},
		{"segment.search", fmt.Sprintf("%d segments per query", ws.segments)},
	}
	for _, r := range rows {
		fmt.Fprintf(out, "  %-22s %12.2f us %5d calls  %s\n", r.name, perCall(totals, r.name), totals[r.name].calls, r.counts)
	}
	fmt.Fprintf(out, "  checks failed %d", ws.wrong)
	if ws.firstWrong != "" {
		fmt.Fprintf(out, ": %s", ws.firstWrong)
	}
	fmt.Fprintln(out)
}
