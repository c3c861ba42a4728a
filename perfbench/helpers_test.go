package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/scanner"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(xs[:100], 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Four requests all due at once on one sender that takes 20ms
	// each: the k-th waits for the k-1 before it, and its latency
	// must include that wait.
	const service = 20 * time.Millisecond
	due := make([]time.Duration, 4)
	res := runOpenLoop(due, 1, func(int) error { time.Sleep(service); return nil })
	for i, l := range res.latency {
		if want := time.Duration(i+1) * service; l < want {
			t.Errorf("request %d latency %v < %v: not timed from its due time", i, l, want)
		}
		if want := time.Duration(i) * service; res.late[i] < want {
			t.Errorf("request %d sent %v late, want at least %v", i, res.late[i], want)
		}
	}
	if res.backlog != 3 {
		t.Errorf("backlog = %d, want the 3 requests queued behind the first", res.backlog)
	}

	// A request due in the future is not sent early.
	res = runOpenLoop([]time.Duration{30 * time.Millisecond}, 1, func(int) error { return errors.New("x") })
	if res.late[0] < 0 || res.elapsed < 30*time.Millisecond {
		t.Errorf("sent before due: late %v, elapsed %v", res.late[0], res.elapsed)
	}
	if res.failures() != 1 {
		t.Errorf("failures = %d, want 1", res.failures())
	}
}

func TestOpenLoopMeets(t *testing.T) {
	o := openLoop{latency: make([]time.Duration, 1000), failed: make([]bool, 1000)}
	for i := range o.latency {
		o.latency[i] = time.Millisecond
	}
	if !o.meets(100, 10*time.Millisecond) {
		t.Fatal("fast phase should meet the limit")
	}
	for i := 0; i < 11; i++ {
		o.failed[i] = true
	}
	if o.meets(100, 10*time.Millisecond) {
		t.Fatal("11 failures in 1000 put p99 over any limit")
	}
	o.failed = make([]bool, 1000)
	o.backlog = 2
	if o.meets(100, 10*time.Millisecond) {
		t.Fatal("a backlog above rate×limit (1) is growing")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pkg", Start: 0, End: 100 * ms, Parent: -1, Allocs: 50},
		{Name: "parser", Start: 10 * ms, End: 40 * ms, Parent: 0, Allocs: 20},
		{Name: "analysis", Start: 30 * ms, End: 60 * ms, Parent: 0, Allocs: 10}, // overlaps parser
		{Name: "mdg", Start: 50 * ms, End: 55 * ms, Parent: 2, Allocs: 4},
		{Name: "parser", Start: 200 * ms, End: 210 * ms, Parent: -1, Allocs: 1},
	}
	c := selfCosts(spans)
	check := func(name string, self time.Duration, allocs uint64) {
		t.Helper()
		if c[name].self != self || c[name].allocs != allocs {
			t.Errorf("%s: self %v allocs %d, want %v %d", name, c[name].self, c[name].allocs, self, allocs)
		}
	}
	check("pkg", 50*ms, 20)     // children cover [10,60]
	check("parser", 40*ms, 21)  // two spans, no children
	check("analysis", 25*ms, 6) // minus its 5ms child
	check("mdg", 5*ms, 4)
}

func TestStaircase(t *testing.T) {
	probe := func(s *staircase, probes int, pass func(i int) bool) {
		for k := 0; k < probes; k++ {
			s.record(pass(s.next()))
		}
	}
	// Clean verdicts: from below or above, the estimate is the highest
	// passing rung once the staircase has reversed.
	for _, start := range []int{3, 7, 12} {
		s := newStaircase(32, start)
		probe(s, 10, func(i int) bool { return i <= 7 })
		if got := s.estimate(); got != 7 {
			t.Errorf("start %d: estimate %d, want 7", start, got)
		}
	}
	// No reversal yet: the highest rung that passed.
	s := newStaircase(32, 2)
	probe(s, 3, func(i int) bool { return i <= 20 })
	if got := s.estimate(); got != 4 {
		t.Errorf("climbing: estimate %d, want 4", got)
	}
	// Nothing passes: -1, and the staircase stops at rung 0.
	s = newStaircase(32, 2)
	probe(s, 5, func(int) bool { return false })
	if got := s.estimate(); got != -1 || s.next() != 0 {
		t.Errorf("all fail: estimate %d at rung %d, want -1 at 0", got, s.next())
	}
	// Noisy verdicts: one spurious fail and one spurious pass move the
	// median of the settled passes by at most a rung.
	s = newStaircase(32, 5)
	verdicts := map[int]int{}
	probe(s, 16, func(i int) bool {
		verdicts[i]++
		switch {
		case i == 8 && verdicts[i] == 1:
			return false // a slow moment below capacity
		case i == 10 && verdicts[i] == 1:
			return true // a fast moment above it
		}
		return i <= 9
	})
	if got := s.estimate(); got < 8 || got > 10 {
		t.Errorf("noisy: estimate %d, want 9±1", got)
	}
	r := ladder(100, 17)
	if r[0] != 100 || r[16] < 199.99 || r[16] > 200.01 {
		t.Errorf("ladder does not double every 16 rungs: %v", r)
	}
	if i := rungBelow(r, 150); r[i] > 150 || r[i+1] <= 150 {
		t.Errorf("rungBelow(150) = rung %d (%v)", i, r[i])
	}
	if i := rungBelow(r, 10); i != 0 {
		t.Errorf("rungBelow under the ladder = %d, want 0", i)
	}
}

func TestLatencyChunksKeepOnlySummaries(t *testing.T) {
	c := newLatencyChunks()
	for i := 0; i < 2*probeSize+5; i++ {
		c.add(float64(i%probeSize + 1))
	}
	if c.closed() != 2 {
		t.Fatalf("closed chunks = %d, want 2 (the partial third is dropped)", c.closed())
	}
	if c.p50s[0] != 501 || c.p99s[0] != 990 {
		t.Fatalf("chunk of 1..1000: p50 %v, p99 %v; want 501, 990", c.p50s[0], c.p99s[0])
	}
	if len(c.open) != 5 || cap(c.open) != probeSize {
		t.Fatalf("open buffer len %d cap %d; want 5 and a reused %d", len(c.open), cap(c.open), probeSize)
	}
}

func TestLRUWindows(t *testing.T) {
	const stateCap, conns = 8, 2
	l := newLRU(stateCap, conns)
	a := &traffic{r: rand.New(rand.NewSource(1)), current: map[string]*pkgFiles{}, isTree: map[string]bool{}, names: l}
	b := &traffic{r: rand.New(rand.NewSource(2)), current: map[string]*pkgFiles{}, isTree: map[string]bool{}, names: l}
	send := func(tr *traffic, name string) {
		tr.current[name] = &pkgFiles{name: name, files: []scanner.SourceFile{{Rel: "m0.js"}, {Rel: "index.js"}}}
		l.touch(name, tr)
	}
	send(a, "x")
	for i := 0; i < stateCap-conns-1; i++ {
		send(b, fmt.Sprint("b", i))
	}
	if rq := a.edit(); rq.pkg == nil || rq.pkg.name != "x" {
		t.Fatal("x has stateCap-conns-1 names after it and must count as resident")
	}
	send(b, "one-more")
	if rq := a.edit(); rq.pkg != nil {
		t.Fatal("x has stateCap-conns names after it and may be evicted")
	}
	if rq := a.evicted(); rq.pkg != nil {
		t.Fatal("x has fewer than stateCap+conns names after it and may be resident")
	}
	for i := 0; i < 2*conns; i++ {
		send(b, fmt.Sprint("c", i))
	}
	if rq := a.evicted(); rq.pkg == nil || rq.pkg.name != "x" {
		t.Fatal("x has stateCap+conns names after it and must count as evicted")
	}
	for i := 0; i < 2*(stateCap+conns); i++ {
		send(b, fmt.Sprint("d", i))
	}
	if _, ok := a.current["x"]; ok || len(l.order) != 2*(stateCap+conns) {
		t.Fatalf("x should be forgotten and the list capped at %d, have %d", 2*(stateCap+conns), len(l.order))
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{4, 1, 3, 2, 5}, 2},
		{[]float64{10, 0}, 2.5},
		{[]float64{9, 1, 5, 3}, 2.5},
	} {
		if got := lowerQuartile(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian3(t *testing.T) {
	for _, v := range [][3]float64{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {1, 3, 2}, {2, 1, 3}, {3, 1, 2}, {2, 2, 5}} {
		if got, want := median3(v), median(v[:]); got != want {
			t.Errorf("median3(%v) = %v, want %v", v, got, want)
		}
	}
}
