// Command perfbench is the graphjs-go benchmark. It generates its
// inputs from a seed, drives the scanner through its public APIs
// (internal/metrics sweeps, internal/scanner scans and an in-process
// graphjsd from internal/server), checks every output it gets against
// an independent reference, and prints its metrics.
//
//	perfbench -workload gt-cold|wild-cold|serve-edits -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the traced pipeline and prints the per-layer metrics instead.
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 1 when a
// correctness check failed and 2 when the run could not be made.
// See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark run.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	out      string // directory for the daemon's store and span dumps
	conns    int    // nproc: sweep workers, daemon workers, client connections
	env      envInfo

	metrics map[string]metric

	mu        sync.Mutex // guards the counters below; scans report concurrently
	attempted int
	failed    int
	problems  []string  // failed correctness checks
	lateness  []float64 // open-loop send lateness, ms
	slowdowns []float64 // wall-time slowdown of every kernel run
	notes     []string  // printed before the env line
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.mismatch("metric %s is not a finite number", name)
		return
	}
	r.metrics[name] = metric{v, unit}
}

// count records attempts and how many of them failed.
func (r *run) count(attempts, failures int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempts
	r.failed += failures
}

// mismatch records a failed correctness check.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further mismatches not listed)")
	}
}

var workloads = map[string]func(*run, bool) error{
	"gt-cold":     runGTCold,
	"wild-cold":   runWildCold,
	"serve-edits": runServeEdits,
}

func main() {
	workload := flag.String("workload", "", "gt-cold, wild-cold or serve-edits")
	seed := flag.Int64("seed", 42, "input generation seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for the daemon store and span dumps")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload gt-cold|wild-cold|serve-edits -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		out: *out, conns: runtime.NumCPU(), metrics: map[string]metric{},
		env: environment(*workload, *trace == 1, *seed, *seconds),
	}
	if err := fn(r, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(r.report())
}

// report prints the metrics, the environment and the result line, and
// returns the exit code.
func (r *run) report() int {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("failed_frac %.6f (%d of %d attempts)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "correctness check failed:", p)
	}
	envLine, _ := json.Marshal(r.env) // plain fields always marshal
	fmt.Printf("env %s\n", envLine)
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	fmt.Println(string(res))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// tracePath is where a traced run dumps its spans.
func (r *run) tracePath() string {
	return filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
}

// noteLateness adds open-loop send lateness to the run's record.
func (r *run) noteLateness(late []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lateness = append(r.lateness, millis(late)...)
	if p, ok := percentile(sortedCopy(r.lateness), 0.99); ok {
		r.env.LatenessP99 = p
	}
}

// setLatency records the lower quartiles over latency chunks of each
// chunk's median and p99. On a shared host the tail swells for
// seconds at a time, when a neighbour crowds the caches, while the
// kernel that sets reference speed barely slows. In three runs of one
// ten-run gt-cold set such stretches covered most of the run and
// lifted the median chunk p99 by about a quarter. The lower quartile
// is the tail of the quieter quarter of the run, which a program
// change moves as much as any other quarter. At least one chunk must
// have closed.
func (r *run) setLatency(c *latencyChunks) {
	if c.closed() == 0 {
		r.mismatch("no chunk of %d latency samples for a p99", probeSize)
		return
	}
	r.set("latency_p50_ms", lowerQuartile(c.p50s), "ms")
	r.set("latency_p99_ms", lowerQuartile(c.p99s), "ms")
}
