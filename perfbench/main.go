// Command perfbench is the repository benchmark: it serves a
// 102,400-document corpus sampled from the paper's ε-separable model
// through the lsiserve binary over loopback HTTP and measures one
// workload end to end (--trace 0), or replays the workload through each
// layer's public functions in process and prints the per-layer ledger
// (--trace 1). See README.md in this directory for what each workload is
// for and what it predicts; run.sh builds lsiserve and this command from
// source and runs it.
//
//	perfbench --workload exact --seed 1 --seconds 12 --trace 0 --lsiserve path/to/lsiserve
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when a
// response fails the correctness check, 2 when the benchmark cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// annNList, annNProbe and quantBeta are the lsiserve tier flags
	// (zero leaves the tier off).
	annNList, annNProbe, quantBeta int
	// zipfPool > 0 draws the traffic Zipf(zipfS) over a fixed pool of
	// that many queries; 0 makes every query unique.
	zipfPool int
	zipfS    float64
	// openRate is the open-loop arrival rate in requests per second,
	// fixed at about a fifth of the closed-loop throughput the workload
	// reached on a 2-core host. At half that load the host's stalls grew
	// into backlogs that made the latencies unsteady between runs.
	openRate float64
	// warm is the untimed prefix of the traffic sequence sent before
	// anything is measured, so the server's cache and heap reach the
	// state the measured requests meet.
	warm int
}

// The tier configuration of the hot server.
const (
	tierNList  = 128
	tierNProbe = 8
	tierBeta   = 8
)

// workloads are the traffic mixes; README.md says why each exists.
// BENCHMARK.json lists the ones the regression check runs.
var workloads = []workload{
	{name: "exact", openRate: 50, warm: 200},
	{name: "hot", annNList: tierNList, annNProbe: tierNProbe, quantBeta: tierBeta, zipfPool: 10000, zipfS: 1.1, openRate: 500, warm: 10000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiered reports whether the server runs the IVF and int8 tiers.
func (w workload) tiered() bool { return w.annNList > 0 || w.quantBeta > 0 }

// serverFlags are the lsiserve flags beyond -index and -addr.
func (w workload) serverFlags() []string {
	if !w.tiered() {
		return nil
	}
	return []string{
		"-ann-nlist", fmt.Sprint(w.annNList),
		"-ann-nprobe", fmt.Sprint(w.annNProbe),
		"-quant-beta", fmt.Sprint(w.quantBeta),
	}
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	lsiserve string
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exact or hot")
	seed := fs.Int64("seed", 1, "traffic seed (the corpus is fixed)")
	seconds := fs.Int("seconds", 12, "measured seconds: 1/4 closed loop, 3/4 open loop")
	trace := fs.Int("trace", 0, "1 replays the workload through each layer and reports the per-layer ledger")
	bin := fs.String("lsiserve", "", "path to the lsiserve binary under test")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for the saved index")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *bin == "" || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --lsiserve, --seconds >= 2 and --trace 0 or 1")
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, lsiserve: *bin,
		workdir: filepath.Join(*workdir, w.name)}
	if err := os.RemoveAll(o.workdir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(o.workdir)

	fp := fingerprint()
	fmt.Fprintf(stdout, "host: %s\n", fp)
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(o, stdout)
	} else {
		rep, err = runWorkload(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}
