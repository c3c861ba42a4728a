package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run measures every layer on the workload's own inputs, in
// three segments: the workload's main path (sweep passes, or the
// nominal-rate serve phase), a daemon phase carrying the serve-edits
// request mix, and the staged pipeline. The first two record one span
// per call into internal/metrics or per request; the staged segment
// records spans around every layer call. Segments of a sweep that do
// not belong to the sweep's own path (the daemon phase) are built from
// the sweep's corpus.

// tracedSweep is the traced run of gt-cold and wild-cold.
func tracedSweep(r *run, c *dataset.Corpus, pkgs []*pkgFiles, want [][]finding, opts scanner.Options) error {
	t := newTracer(false)
	start := time.Now()
	u0 := readUsage()
	var busy, capacity float64
	n := 0
	for pass := 0; pass < 2; pass++ {
		id := t.begin("metrics.sweep", -1, int64(pass))
		sw := metrics.SweepGraphJS(c, opts)
		t.end(id)
		busy += sw.CPU.Seconds()
		capacity += sw.Wall.Seconds() * float64(sw.Workers)
		n += len(sw.Results)
		checkSweep(r, sw, pkgs, want)
	}
	setRuntime(r, u0.since(), n)
	r.set("metrics.worker_busy_frac", busy/capacity, "fraction")

	d, err := startDaemon(r.out, r.conns)
	if err != nil {
		return err
	}
	tr := newTraffic(r.seed, "", c.Packages, newLRU(stateCap, r.conns))
	closedLoop(d, tr.batch(warmupRequests), r.conns)
	_, trees, err := serveSegment(r, t, d, tr, false)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if err := stagedSegment(r, t, pkgs, trees, start); err != nil {
		return err
	}
	return t.write(r.tracePath(), r.env)
}

// tracedServe is the traced run of serve-edits.
func tracedServe(r *run, d *daemon, tr *traffic, pool *dataset.Corpus) error {
	t := newTracer(false)
	start := time.Now()
	flats, trees, err := serveSegment(r, t, d, tr, true)
	if err != nil {
		return err
	}
	id := t.begin("metrics.sweep", -1, 0)
	sw := metrics.SweepGraphJS(pool, scanner.Options{Workers: r.conns})
	t.end(id)
	r.set("metrics.worker_busy_frac", sw.CPU.Seconds()/(sw.Wall.Seconds()*float64(sw.Workers)), "fraction")
	if err := stagedSegment(r, t, flats, trees, start); err != nil {
		return err
	}
	return t.write(r.tracePath(), r.env)
}

// setRuntime records the runtime's GC share of CPU and GC cycles per
// thousand packages or requests over a measured interval.
func setRuntime(r *run, u usage, n int) {
	r.set("runtime.gc_cpu_frac", ratio(u.gcCPU, u.totalCPU), "fraction")
	r.set("runtime.gc_cycles", 1000*float64(u.gcCycles)/float64(n), "count/1000pkg")
}

// incrCounts is the warm-state cache traffic of one package state.
type incrCounts struct{ feHit, feMiss, fragHit, fragRebuild, detHit, detMiss int }

func incrOf(s *server.IncrStatsJSON) incrCounts {
	return incrCounts{s.FrontEndHits, s.FrontEndMisses, s.FragmentHits, s.FragmentRebuilds, s.DetectHits, s.DetectMisses}
}

func (a incrCounts) sub(b incrCounts) (incrCounts, bool) {
	d := incrCounts{a.feHit - b.feHit, a.feMiss - b.feMiss, a.fragHit - b.fragHit,
		a.fragRebuild - b.fragRebuild, a.detHit - b.detHit, a.detMiss - b.detMiss}
	ok := d.feHit >= 0 && d.feMiss >= 0 && d.fragHit >= 0 && d.fragRebuild >= 0 && d.detHit >= 0 && d.detMiss >= 0
	return d, ok
}

func (a *incrCounts) add(b incrCounts) {
	a.feHit += b.feHit
	a.feMiss += b.feMiss
	a.fragHit += b.fragHit
	a.fragRebuild += b.fragRebuild
	a.detHit += b.detHit
	a.detMiss += b.detMiss
}

// serveSegment sends probeSize requests of the serve-edits mix at the
// nominal rate with a span per request, polls /v1/status for the
// daemon's in-flight peak (at most nproc: the client keeps no more
// requests open), and records the daemon, incremental-cache
// and store metrics. It returns the distinct flat and tree packages it
// sent, for the staged segment.
func serveSegment(r *run, t *tracer, d *daemon, tr *traffic, ownPath bool) (flats, trees []*pkgFiles, err error) {
	var before, after server.MetricsResponse
	if err := d.get("/v1/metrics", &before); err != nil {
		return nil, nil, err
	}
	stopPoll, inflight := pollInflight(d.url)
	reqs := tr.batch(probeSize)
	out := make([]served, len(reqs))
	rng := rand.New(rand.NewSource(r.seed))
	u0 := readUsage()
	o := runOpenLoop(poissonSchedule(rng, nominalRate, len(reqs)), r.conns, func(i int) error {
		id := t.begin("server.request", -1, int64(i))
		out[i] = send(d, reqs[i])
		t.end(id)
		if out[i].rp.failed() {
			return errFailed
		}
		return nil
	})
	u := u0.since()
	close(stopPoll)
	peak := <-inflight
	if err := d.get("/v1/metrics", &after); err != nil {
		return nil, nil, err
	}
	r.count(len(out), o.failures())
	r.noteLateness(o.late)
	r.notes = append(r.notes, "traced daemon phase: "+tr.mix())
	if ownPath {
		setRuntime(r, u, len(out))
	}

	var rtt, scan float64
	ok := 0
	var incr incrCounts
	last := map[string]incrCounts{}
	seen := map[*pkgFiles]bool{}
	for _, s := range out {
		if s.rp.failed() {
			continue
		}
		ok++
		rtt += ms(s.rp.rtt)
		scan += s.rp.scanMs
		if s.rp.incr != nil {
			cur := incrOf(s.rp.incr)
			delta, grew := cur.sub(last[s.pkg.name])
			if !grew { // the state was evicted and rebuilt since
				delta = cur
			}
			incr.add(delta)
			last[s.pkg.name] = cur
		}
		if !seen[s.pkg] {
			seen[s.pkg] = true
			if s.pkg.tree {
				trees = append(trees, s.pkg)
			} else {
				flats = append(flats, s.pkg)
			}
		}
	}
	if ok == 0 {
		return nil, nil, fmt.Errorf("no request of the traced serve phase succeeded")
	}
	r.set("server.rtt_ms", rtt/float64(ok), "ms/req")
	r.set("server.scan_ms", scan/float64(ok), "ms/req")
	r.set("server.overhead_ms", (rtt-scan)/float64(ok), "ms/req")
	r.set("server.inflight_max", float64(peak), "count")
	r.set("scanner.frontend_hit_ratio", ratio(float64(incr.feHit), float64(incr.feHit+incr.feMiss)), "fraction")
	r.set("scanner.fragment_hit_ratio", ratio(float64(incr.fragHit), float64(incr.fragHit+incr.fragRebuild)), "fraction")
	r.set("scanner.detect_hit_ratio", ratio(float64(incr.detHit), float64(incr.detHit+incr.detMiss)), "fraction")
	r.set("scanner.fragment_rebuilds", float64(incr.fragRebuild)/float64(ok), "count/req")
	if before.Store == nil || after.Store == nil {
		return nil, nil, fmt.Errorf("daemon reports no store")
	}
	r.set("store.hit_ratio", ratio(float64(after.Store.Hits-before.Store.Hits), float64(after.Store.Gets-before.Store.Gets)), "fraction")
	r.set("store.bytes", float64(after.Store.Bytes)/(1<<20), "MB")
	crossCheck(r, out)
	return flats, trees, nil
}

// pollInflight polls /v1/status every 10ms on its own connection until
// stop is closed, then sends the peak of running plus queued scans.
func pollInflight(url string) (stop chan struct{}, peak chan int) {
	stop, peak = make(chan struct{}), make(chan int, 1)
	go func() {
		c := &http.Client{Timeout: 5 * time.Second}
		defer c.CloseIdleConnections()
		best := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			var st server.StatusResponse
			if getJSON(c, url+"/v1/status", &st) == nil {
				best = max(best, st.Running+st.Queued)
			}
			select {
			case <-stop:
				peak <- best
				return
			case <-tick.C:
			}
		}
	}()
	return stop, peak
}

// stagedSegment stages every flat package and tree, pass after pass,
// until the run's time is used up (at least one pass), and records the
// per-layer self costs.
func stagedSegment(r *run, t *tracer, flats, trees []*pkgFiles, start time.Time) error {
	dir, err := os.MkdirTemp(r.out, "staged-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{NoFsync: true})
	if err != nil {
		return err
	}
	defer st.Close()
	s := &stager{r: r, t: t, st: st, cfg: queries.DefaultConfig()}
	t.allocs = true
	for pass := 0; pass == 0 || time.Since(start) < r.seconds; pass++ {
		for i, p := range flats {
			if err := s.flatPackage(p, int64(i)); err != nil {
				return err
			}
		}
		for i, p := range trees {
			if err := s.treePackage(p, int64(len(flats)+i)); err != nil {
				return err
			}
		}
	}
	t.allocs = false

	c := selfCosts(t.snapshot())
	cost := func(name string) layerCost {
		if l := c[name]; l != nil {
			return *l
		}
		return layerCost{}
	}
	pkgs := float64(s.pkgs)
	perPkg := func(metric, layer string) {
		l := cost(layer)
		r.set(metric+"ms", ms(l.self)/pkgs, "ms/pkg")
		r.set(metric+"allocs", float64(l.allocs)/pkgs, "count/pkg")
	}
	lex := cost("lexer")
	r.set("lexer.tokens_per_s", float64(s.tokens)/lex.self.Seconds(), "1/s")
	perPkg("parser.", "parser")
	perPkg("normalize.", "normalize")
	r.set("cfg.ms", ms(cost("cfg").self)/pkgs, "ms/pkg")
	perPkg("reach.", "reach")
	r.set("reach.skip_ratio", float64(s.skipped)/pkgs, "fraction")
	perPkg("analysis.", "analysis")
	r.set("analysis.bytes", float64(cost("analysis").bytes)/1024/pkgs, "KiB/pkg")
	r.set("analysis.mdg_nodes", float64(s.mdgNodes)/float64(s.analyzed), "count/pkg")
	r.set("analysis.mdg_edges", float64(s.mdgEdges)/float64(s.analyzed), "count/pkg")
	load, detect := cost("queries.load"), cost("queries.detect")
	r.set("queries.load_ms", ms(load.self)/pkgs, "ms/pkg")
	r.set("queries.detect_ms", ms(detect.self)/pkgs, "ms/pkg")
	r.set("queries.allocs", float64(load.allocs+detect.allocs)/pkgs, "count/pkg")
	perPkg("taint.", "taint")

	ntrees := float64(s.trees)
	r.set("deptree.ms", ms(cost("deptree").self)/ntrees, "ms/tree")
	r.set("mdg.stitch_ms", ms(cost("mdg.stitch").self)/ntrees, "ms/tree")
	frags := float64(s.fragments)
	for _, m := range []struct{ metric, layer string }{
		{"mdg.encode_ms", "mdg.encode"}, {"mdg.decode_ms", "mdg.decode"},
		{"store.put_ms", "store.put"}, {"store.sync_ms", "store.sync"}, {"store.get_ms", "store.get"},
	} {
		r.set(m.metric, ms(cost(m.layer).self)/frags, "ms/frag")
	}
	r.set("mdg.fragment_bytes", float64(s.fragBytes)/frags, "B/frag")
	r.set("trace.overhead_pct", 100*(s.mirror.Seconds()-s.scannerTime.Seconds())/s.scannerTime.Seconds(), "%")
	return nil
}
