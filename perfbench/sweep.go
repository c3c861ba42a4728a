package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/scanner"
)

// recentScans is how many of a package's latest scans its latency
// sample is the median of.
const recentScans = 3

// median3 returns the middle of three values without allocating.
func median3(v [recentScans]float64) float64 {
	return max(min(v[0], v[1]), min(max(v[0], v[1]), v[2]))
}

func groundTruth(seed int64) *dataset.Corpus {
	v, s := dataset.GroundTruth(seed)
	return &dataset.Corpus{Name: "ground-truth", Packages: append(append([]*dataset.Package(nil), v.Packages...), s.Packages...)}
}

func wild(seed int64) *dataset.Corpus {
	return dataset.Collected(seed, dataset.DefaultCollectedMix(2000))
}

// gt-cold: the paper's Tables 4-6 workload. Only ~11% of ground-truth
// packages are gate-skipped, so analysis and detection do most of the
// work.
func runGTCold(r *run, traced bool) error {
	return sweepWorkload(r, traced, groundTruth)
}

// wild-cold: wild-like traffic where the reach gate skips ~74% of
// packages, so the front end and the gate dominate; an analysis-only
// change should not move it.
func runWildCold(r *run, traced bool) error {
	return sweepWorkload(r, traced, wild)
}

// sweepSetup generates the corpus and runs one untimed warm-up sweep,
// setupReps times, and returns the median time at reference speed. The
// last warm-up's findings are the reference every later scan must
// match.
func sweepSetup(r *run, corpus func(seed int64) *dataset.Corpus, opts scanner.Options) (*dataset.Corpus, []*pkgFiles, [][]finding, float64, error) {
	var c *dataset.Corpus
	var warm *metrics.Sweep
	setups := make([]float64, setupReps)
	prev := r.slowdown()
	for i := range setups {
		t0 := time.Now()
		c = corpus(r.seed)
		warm = metrics.SweepGraphJS(c, opts)
		took := time.Since(t0).Seconds()
		cur := r.slowdown()
		setups[i] = took / prev.mean(cur).wall
		prev = cur
	}
	pkgs, err := corpusPackages(c)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	want := make([][]finding, len(pkgs))
	for i, res := range warm.Results {
		if res.Err != nil || res.Failure != "" {
			return nil, nil, nil, 0, fmt.Errorf("warm-up scan of %s failed: %v %v", pkgs[i].name, res.Failure, res.Err)
		}
		want[i] = fromScanner(res.Findings)
	}
	return c, pkgs, want, median(setups), nil
}

// checkSweep compares one sweep's results with the reference.
func checkSweep(r *run, sw *metrics.Sweep, pkgs []*pkgFiles, want [][]finding) {
	failures := 0
	for i, res := range sw.Results {
		if res.Err != nil || res.Failure != "" {
			failures++
			continue
		}
		if err := sameFindings(want[i], fromScanner(res.Findings)); err != nil {
			r.mismatch("sweep, %s: %v", pkgs[i].name, err)
		}
	}
	r.count(len(sw.Results), failures)
}

func sweepWorkload(r *run, traced bool, corpus func(seed int64) *dataset.Corpus) error {
	opts := scanner.Options{Workers: r.conns}
	c, pkgs, want, setup, err := sweepSetup(r, corpus, opts)
	if err != nil {
		return err
	}
	if traced {
		return tracedSweep(r, c, pkgs, want, opts)
	}
	r.set("setup_s", setup, "s")
	var sc score
	for i := range pkgs {
		sc.add(pkgs[i].truth, want[i])
	}
	r.set("recall_pct", sc.recallPct(), "%")
	r.set("true_fp", float64(sc.trueFP), "count")

	// Passes until the run's time is used up and at least two latency
	// chunks have closed. Each pass is scaled to reference speed by the
	// kernels run just before and just after it: its rate by their wall
	// slowdown, its CPU time and latencies by their CPU slowdown.
	//
	// A package's latency sample is the median of its last recentScans
	// scans. When the host steals the VM's cores, a scan of several
	// milliseconds is often caught by a gap, and runs made during steal
	// read p99s of up to twice the usual while every other figure held.
	// A gap must now catch two of a package's three scans to reach the
	// tail, while a cost the package pays in most scans, such as the
	// garbage collections that land in a large scan, still shows. From
	// the third pass on, each pass feeds one sample per package to the
	// chunks, in one seeded shuffled order: the corpora are generated
	// class by class, so a chunk is then a mix of the corpus rather than
	// a block of one class.
	heap := watchHeap()
	start := time.Now()
	order := rand.New(rand.NewSource(r.seed)).Perm(len(pkgs))
	recent := make([][recentScans]float64, len(pkgs))
	lat := newLatencyChunks()
	var rates, cpu, alloc []float64
	prev := r.slowdown()
	for pass := 0; time.Since(start) < r.seconds || lat.closed() < 2; pass++ {
		u0 := readUsage()
		sw := metrics.SweepGraphJS(c, opts)
		u := u0.since()
		cur := r.slowdown()
		f := prev.mean(cur)
		prev = cur
		n := float64(len(sw.Results))
		rates = append(rates, n/sw.Wall.Seconds()*f.wall)
		cpu = append(cpu, ms(u.cpu)/n/f.cpu)
		alloc = append(alloc, float64(u.allocBytes)/1024/n)
		for _, k := range order {
			res := sw.Results[k]
			recent[k][pass%recentScans] = ms(res.GraphTime+res.QueryTime) / f.cpu
			if pass >= recentScans-1 {
				lat.add(median3(recent[k]))
			}
		}
		checkSweep(r, sw, pkgs, want)
	}
	r.set("peak_live_heap_mb", heap.finish(), "MB")
	r.set("pkgs_per_s", median(rates), "1/s")
	r.setLatency(lat)
	r.set("cpu_ms_per_pkg", median(cpu), "ms")
	r.set("alloc_kb_per_pkg", median(alloc), "KiB")
	return nil
}
