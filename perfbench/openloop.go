package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is the outcome of one open-loop phase.
type openLoop struct {
	// latency is completion minus the time each request was due, so a
	// stall also charges the requests that queued behind it.
	latency []time.Duration
	// late is send time minus due time: how far the generator fell
	// behind its schedule.
	late []time.Duration
	// failed marks requests whose send returned an error.
	failed []bool
	// backlog is how many requests were still waiting to be sent when
	// the last one fell due.
	backlog int
	elapsed time.Duration
}

// poissonSchedule returns n due offsets of a Poisson arrival process
// at rate requests per second.
func poissonSchedule(r *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runOpenLoop sends request i at offset due[i] from the start (due must
// be non-decreasing) over at most conns concurrent senders. Requests
// go out in due order; when every sender is busy the next one waits,
// and its latency still counts from when it was due.
func runOpenLoop(due []time.Duration, conns int, send func(i int) error) openLoop {
	n := len(due)
	res := openLoop{latency: make([]time.Duration, n), late: make([]time.Duration, n), failed: make([]bool, n)}
	sentAt := make([]time.Duration, n)
	start := time.Now()
	forEach(n, conns, func(i int) {
		if d := due[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		s := time.Since(start)
		res.failed[i] = send(i) != nil
		res.latency[i] = time.Since(start) - due[i]
		res.late[i] = s - due[i]
		sentAt[i] = s
	})
	res.elapsed = time.Since(start)
	if n > 0 {
		// The last request is itself sent a little after its due time;
		// only requests that queued behind busy senders count.
		last := due[n-1] + time.Millisecond
		for _, s := range sentAt {
			if s > last {
				res.backlog++
			}
		}
	}
	return res
}

// forEach calls fn(i) for every i in [0, n) on workers goroutines,
// handing indexes out in order, and returns once every call has.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// failures counts the failed requests.
func (o openLoop) failures() int {
	n := 0
	for _, f := range o.failed {
		if f {
			n++
		}
	}
	return n
}

// meets reports whether an open-loop phase at rate (requests/s) kept
// its p99 latency within limit without a growing backlog. A failed
// request counts as missing the limit. By Little's law a queue longer
// than rate×limit cannot drain within the limit, so that is the most
// backlog a passing phase may end with.
func (o openLoop) meets(rate float64, limit time.Duration) bool {
	lat := millis(o.latency)
	for i, f := range o.failed {
		if f {
			lat[i] = math.MaxFloat64
		}
	}
	p99, ok := percentile(sortedCopy(lat), 0.99)
	if !ok {
		return false
	}
	return p99 <= ms(limit) && float64(o.backlog) <= rate*limit.Seconds()
}

// ladder returns the fixed rate ladder: n rungs from lo, each 2^(1/16)
// (about 4.4%) above the last.
func ladder(lo float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(2, float64(i)/16)
	}
	return out
}

// staircase estimates the highest rung of a ladder that passes when
// each probe's verdict is noisy. Each probe moves one rung up after a
// pass and one rung down after a fail, so the probes settle around the
// boundary. The estimate is the median rung of the passing probes made
// from the first reversal on. It is one probe's verdict short of a
// plain walk when verdicts are clean, and it pools every verdict when
// they are not, so a run can space its probes out over its whole time.
type staircase struct {
	n, cur   int
	last     int   // verdict of the previous probe: -1 none, 0 fail, 1 pass
	reversed bool  // a verdict has differed from the one before it
	settled  []int // rungs of passing probes since the first reversal
	best     int   // highest passing rung: the estimate if nothing reversed
}

func newStaircase(n, start int) *staircase {
	return &staircase{n: n, cur: min(max(start, 0), n-1), last: -1, best: -1}
}

// next returns the rung to probe.
func (s *staircase) next() int { return s.cur }

// record feeds back whether the rung next returned passed.
func (s *staircase) record(pass bool) {
	v := 0
	if pass {
		v = 1
	}
	if s.last >= 0 && v != s.last {
		s.reversed = true
	}
	s.last = v
	if !pass {
		s.cur = max(s.cur-1, 0)
		return
	}
	s.best = max(s.best, s.cur)
	if s.reversed {
		s.settled = append(s.settled, s.cur)
	}
	s.cur = min(s.cur+1, s.n-1)
}

// estimate returns the estimated rung, or -1 when no probe passed.
func (s *staircase) estimate() int {
	if len(s.settled) == 0 {
		return s.best
	}
	r := append([]int(nil), s.settled...)
	sort.Ints(r)
	return r[(len(r)-1)/2]
}

// rungBelow returns the highest rung index whose rate is at most rate
// (0 when every rung is above it).
func rungBelow(rungs []float64, rate float64) int {
	i := 0
	for i+1 < len(rungs) && rungs[i+1] <= rate {
		i++
	}
	return i
}

// probeSize is the fewest requests in a rate-ladder probe or a latency
// chunk: the fewest that leave ten samples beyond the p99.
const probeSize = 1000

// probeLen is the number of requests in a probe at rate: at least
// probeSize, and enough to last 25 latency limits. A rung 4.4% above
// capacity needs about that long to queue a limit's worth of backlog;
// a shorter probe would pass rates the system cannot sustain.
func probeLen(rate float64, limit time.Duration) int {
	return max(probeSize, int(rate*25*limit.Seconds()))
}

// ladderRungs spans 32x from the first rung.
const ladderRungs = 80

// ladderStart is the staircase's first rung, as a share of the
// closed-loop throughput; a rate meeting a latency limit sits below it.
const ladderStart = 0.85

var errFailed = errors.New("request failed")

// step makes the staircase's next probe. Rungs and the limit are at
// reference speed: the probe sends probeLen requests at the rung's
// rate divided by the run's slowdown so far, against the limit
// multiplied by it. Every probe's requests count as attempts; the
// passing probes' send lateness feeds the generator-lateness record (a
// failing probe is late by design).
func (r *run) step(st *staircase, rungs []float64, limit time.Duration, probe func(rate float64, n int) openLoop) {
	i := st.next()
	f := r.runSlowdown()
	rate := rungs[i] / f
	o := probe(rate, probeLen(rungs[i], limit))
	r.count(len(o.latency), o.failures())
	pass := o.meets(rate, time.Duration(float64(limit)*f))
	if pass {
		r.noteLateness(o.late)
	}
	st.record(pass)
}

// setMaxRPS records the staircase's estimate. If no probe has passed
// yet — the first rungs were all above what the machine sustained —
// the staircase keeps stepping down (as the scheduled probes would
// have) for up to len(rungs) more probes.
func (r *run) setMaxRPS(st *staircase, rungs []float64, limit time.Duration, probe func(rate float64, n int) openLoop) {
	for k := 0; st.estimate() < 0 && k < len(rungs); k++ {
		r.step(st, rungs, limit, probe)
	}
	if i := st.estimate(); i >= 0 {
		r.set("max_rps", rungs[i], "1/s")
		return
	}
	r.mismatch("no rate on the ladder from %.0f/s meets p99 <= %v", rungs[0], limit)
}
