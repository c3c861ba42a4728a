package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataset"
)

// serve-edits parameters.
const (
	// poolSize is the wild-corpus size the traffic draws modules from;
	// large enough that the module mix varies little between seeds.
	poolSize = 2000
	// warmupRequests are sent, untimed, before measuring.
	warmupRequests = 100
	// nominalRate is the fixed open-loop rate (requests/s) at which the
	// latency percentiles are taken: an assumed load, not a measured
	// one. It is about a third of the closed-loop rate measured on a
	// 2-core machine, so requests mostly meet an idle server; at higher
	// utilisation queueing multiplies every wobble of a shared CPU into
	// latency.
	nominalRate = 150
	// serveLadderLo and serveLimit fix the rate ladder behind max_rps,
	// which passes while p99 stays within serveLimit.
	serveLadderLo = 50
	serveLimit    = 100 * time.Millisecond
	// A measured run is serveRounds rounds. Each sends a slice of
	// sliceRequests at the nominal rate, then a batch of closedBatch
	// requests closed-loop, then one rate-ladder probe. Interleaving
	// spreads every metric's samples over the whole run, so a slow
	// stretch of a shared machine does not land on one metric alone.
	// Two slices make one latency chunk of probeSize requests.
	serveRounds   = 6
	sliceRequests = probeSize / 2
	closedBatch   = 300
)

// served pairs a request (without its body) with the daemon's reply.
type served struct {
	kind string
	pkg  *pkgFiles
	rp   reply
}

func send(d *daemon, rq request) served {
	return served{rq.kind, rq.pkg, d.scan(rq.body)}
}

// serveSetup generates the module pool and traffic, opens the store and
// the daemon, and sends the warm-up requests, setupReps times; setup_s
// is the median at reference speed. Only the last daemon is kept.
func serveSetup(r *run) (*daemon, *traffic, *dataset.Corpus, float64, error) {
	var d *daemon
	var tr *traffic
	var pool *dataset.Corpus
	setups := make([]float64, setupReps)
	prev := r.slowdown()
	for i := range setups {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, nil, 0, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t0 := time.Now()
		pool = dataset.Collected(r.seed, dataset.DefaultCollectedMix(poolSize))
		tr = newTraffic(r.seed, "", pool.Packages, newLRU(stateCap, r.conns))
		var err error
		if d, err = startDaemon(r.out, r.conns); err != nil {
			return nil, nil, nil, 0, err
		}
		for _, s := range closedLoop(d, tr.batch(warmupRequests), r.conns) {
			if s.rp.failed() {
				d.stop()
				return nil, nil, nil, 0, fmt.Errorf("warm-up request %s failed: status %d %v", s.pkg.name, s.rp.code, s.rp.err)
			}
		}
		took := time.Since(t0).Seconds()
		cur := r.slowdown()
		setups[i] = took / prev.mean(cur).wall
		prev = cur
	}
	return d, tr, pool, median(setups), nil
}

// closedLoop sends reqs over conns connections, each sending its next
// request when the previous reply arrives.
func closedLoop(d *daemon, reqs []request, conns int) []served {
	out := make([]served, len(reqs))
	forEach(len(reqs), conns, func(i int) { out[i] = send(d, reqs[i]) })
	return out
}

// openPhase sends reqs open-loop on a Poisson schedule at rate.
func openPhase(d *daemon, rng *rand.Rand, reqs []request, rate float64, conns int) (openLoop, []served) {
	out := make([]served, len(reqs))
	o := runOpenLoop(poissonSchedule(rng, rate, len(reqs)), conns, func(i int) error {
		out[i] = send(d, reqs[i])
		if out[i].rp.failed() {
			return errFailed
		}
		return nil
	})
	return o, out
}

func runServeEdits(r *run, traced bool) error {
	d, tr, pool, setup, err := serveSetup(r)
	if err != nil {
		return err
	}
	defer func() {
		if err := d.stop(); err != nil {
			r.mismatch("daemon shutdown: %v", err)
		}
	}()
	if traced {
		return tracedServe(r, d, tr, pool)
	}
	r.set("setup_s", setup, "s")

	heap := watchHeap()
	rng := rand.New(rand.NewSource(r.seed))
	// Probe lengths depend on the rates the staircase visits, so the
	// probes draw requests and arrival times from streams of their own:
	// the slices and batches then send the same requests on the same
	// schedule on every run of a seed. Both streams share the daemon's
	// StatePool, so they share one lru. A probe sends more names than
	// the lru keeps, so after one the main stream remembers none of its
	// names, whatever the probe's length: its requests stay a function
	// of the seed. Every phase's replies are cross-checked as soon as
	// the phase ends and then dropped.
	rungs := ladder(serveLadderLo, ladderRungs)
	var st *staircase
	ladderTraffic := newTraffic(r.seed+1, "ladder-", tr.pool, tr.names)
	ladderRng := rand.New(rand.NewSource(r.seed + 1))
	probe := func(rate float64, n int) openLoop {
		o, got := openPhase(d, ladderRng, ladderTraffic.batch(n), rate, r.conns)
		crossCheck(r, got)
		return o
	}
	lat := newLatencyChunks()
	var cpu, rates []float64
	var allocBytes uint64
	var allocN int
	var sc score
	scored := map[string]bool{}
	// Each phase is scaled to reference speed by the kernels run just
	// before and after it; a slice is sent at the nominal rate divided
	// by the slowdown measured before it.
	prev := r.slowdown()
	for round := 0; round < serveRounds; round++ {
		reqs := tr.batch(sliceRequests)
		u0 := readUsage()
		o, got := openPhase(d, rng, reqs, nominalRate/prev.wall, r.conns)
		u := u0.since()
		cur := r.slowdown()
		f := prev.mean(cur)
		r.count(len(got), o.failures())
		r.noteLateness(o.late)
		for _, l := range o.latency {
			lat.add(ms(l) / f.cpu)
		}
		cpu = append(cpu, ms(u.cpu)/float64(len(got))/f.cpu)
		allocBytes += u.allocBytes
		allocN += len(got)
		scoreFirst(&sc, scored, got)
		crossCheck(r, got)

		t0 := time.Now()
		got = closedLoop(d, tr.batch(closedBatch), r.conns)
		took := time.Since(t0).Seconds()
		prev, cur = cur, r.slowdown()
		rates = append(rates, float64(len(got))/took*prev.mean(cur).wall)
		scoreFirst(&sc, scored, got)
		failures := 0
		for _, s := range got {
			if s.rp.failed() {
				failures++
			}
		}
		r.count(len(got), failures)
		crossCheck(r, got)

		if st == nil {
			st = newStaircase(len(rungs), rungBelow(rungs, ladderStart*median(rates)))
		}
		r.step(st, rungs, serveLimit, probe)
		prev = r.slowdown()
	}
	r.set("peak_live_heap_mb", heap.finish(), "MB")
	r.setLatency(lat)
	r.set("cpu_ms_per_pkg", median(cpu), "ms")
	r.set("alloc_kb_per_pkg", float64(allocBytes)/1024/float64(allocN), "KiB")
	r.set("recall_pct", sc.recallPct(), "%")
	r.set("true_fp", float64(sc.trueFP), "count")
	r.set("pkgs_per_s", median(rates), "1/s")
	r.setMaxRPS(st, rungs, serveLimit, probe)
	r.notes = append(r.notes, "slices and batches: "+tr.mix(), "ladder probes: "+ladderTraffic.mix())
	return nil
}

// scoreFirst scores each package name once, on its first successful
// response: a warm re-submission repeats the same sinks, and the
// cross-check covers its findings.
func scoreFirst(sc *score, scored map[string]bool, got []served) {
	for _, s := range got {
		if !s.rp.failed() && !scored[s.pkg.name] {
			scored[s.pkg.name] = true
			sc.add(s.pkg.truth, s.rp.findings)
		}
	}
}

// crossCheck requires every served reply to carry the same finding
// identities as a fresh cold scanner scan of the same file set.
func crossCheck(r *run, all []served) {
	cold := map[*pkgFiles][]finding{} // one reference scan per file set
	var mu sync.Mutex
	forEach(len(all), r.conns, func(i int) {
		s := all[i]
		if s.rp.failed() {
			return
		}
		mu.Lock()
		want, ok := cold[s.pkg]
		mu.Unlock()
		if !ok {
			rep := scanCold(s.pkg)
			if rep.Err != nil || rep.Failure != "" {
				r.mismatch("cold reference scan of %s failed: %v", s.pkg.name, rep.Err)
				return
			}
			want = fromScanner(rep.Findings)
			mu.Lock()
			cold[s.pkg] = want
			mu.Unlock()
		}
		if err := sameFindings(want, s.rp.findings); err != nil {
			r.mismatch("served %s (%s): %v", s.pkg.name, s.kind, err)
		}
	})
}
