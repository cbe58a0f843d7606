package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the load generator saw it.
type sample struct {
	query  int           // index into the traffic sequence
	done   time.Duration // completion, from the start of the phase
	lat    time.Duration // closed loop: from send; open loop: from when it was due
	late   time.Duration // open loop: how long after its due time it was sent
	status int           // 0 on a transport error
	body   []byte
}

// newClient returns an HTTP client that keeps up to conns idle
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// closedLoop runs workers clients, each sending its next request as soon
// as the previous one completes, for dur or until the traffic sequence
// starting at first runs out.
func closedLoop(c *http.Client, url string, bodies [][]byte, first, workers int, dur time.Duration) []sample {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample, workers)
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				t := time.Now()
				st, b, err := postJSON(c, url, bodies[i])
				if err != nil {
					st = 0
				}
				now := time.Now()
				per[w] = append(per[w], sample{query: i, done: now.Sub(start), lat: now.Sub(t), status: st, body: b})
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// rateWindow is the window over which windowRates counts completions.
const rateWindow = 250 * time.Millisecond

// windowRates returns, for each whole rateWindow of a phase of length
// dur, the requests per second that completed in it with status 200.
// The median of many short windows keeps a stall of the host from
// moving the throughput figure.
func windowRates(samples []sample, dur time.Duration) []float64 {
	counts := make([]float64, int(dur/rateWindow))
	for _, s := range samples {
		if w := int(s.done / rateWindow); s.status == http.StatusOK && w < len(counts) {
			counts[w] += float64(time.Second / rateWindow)
		}
	}
	return counts
}

// openLoopInFlight caps the open loop's requests in flight. Far above
// what a stable server holds at the workload rates; it only bounds the
// goroutines when the server stalls.
const openLoopInFlight = 64

// openLoop sends n requests, queries first, first+1, ..., due at fixed
// intervals of 1/rate from now. Each request is sent at its due time
// whether or not earlier ones have returned, so a slow server faces a
// growing queue as it would with independent users. Latency is
// measured from the due time; late is how far behind schedule the
// request was sent.
func openLoop(c *http.Client, url string, bodies [][]byte, first, n int, rate float64) []sample {
	if first+n > len(bodies) {
		n = len(bodies) - first
	}
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	slots := make(chan struct{}, openLoopInFlight)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			st, b, err := postJSON(c, url, bodies[first+k])
			if err != nil {
				st = 0
			}
			<-slots
			out[k] = sample{query: first + k, lat: time.Since(due), late: sent.Sub(due), status: st, body: b}
		}(k, due)
	}
	wg.Wait()
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	r := int(math.Ceil(p / 100 * float64(len(xs))))
	if r < 1 {
		r = 1
	}
	return xs[r-1]
}

// beyond is how many of n samples rank above the nearest-rank p-th
// percentile: the samples that back a tail figure.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile is the highest whole percentile, at most 99, that at
// least ten of n samples rank beyond: the highest one n can back.
func tailPercentile(n int) float64 {
	p := 99.0
	for p > 50 && beyond(n, p) < 10 {
		p--
	}
	return p
}

// median of xs (sorted in place); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// millis returns one duration of each sample, picked by f, in
// milliseconds.
func millis(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s)) / float64(time.Millisecond)
	}
	return out
}

// latency and lateness pick a sample's durations for millis.
func latency(s sample) time.Duration  { return s.lat }
func lateness(s sample) time.Duration { return s.late }
