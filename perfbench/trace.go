package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans stay in memory and are
// written out when the run ends.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the trace began
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span; -1 for a root
	Req    int64         `json:"req"`    // package or request the span worked for
	// Allocs and Bytes are the heap allocations made while the span
	// was open, children included (exact only for spans opened by a
	// goroutine running alone; see tracer.allocs).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// tracer records spans. It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// allocs makes begin and end read the exact allocation counters.
	// runtime/metrics counts allocations per span-class refill, which
	// is too coarse for a layer that allocates a few hundred objects,
	// so this uses runtime.ReadMemStats; its stop-the-world pause falls
	// outside the span's own interval but inside its parent's.
	allocs bool
}

func newTracer(allocs bool) *tracer { return &tracer{t0: time.Now(), allocs: allocs} }

func memCounts() (allocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	var a, b uint64
	if t.allocs {
		a, b = memCounts()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: req, Allocs: a, Bytes: b})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	var a, b uint64
	if t.allocs {
		a, b = memCounts()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if t.allocs {
		s.Allocs, s.Bytes = a-s.Allocs, b-s.Bytes
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string, header any) error {
	data, err := json.Marshal(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCost is the self cost of every span of one name.
type layerCost struct {
	self   time.Duration
	allocs uint64
	bytes  uint64
}

// selfCosts sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap one
// another; their union is subtracted once), and its allocations minus
// its children's.
func selfCosts(spans []span) map[string]*layerCost {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerCost{}
	for i, s := range spans {
		c := out[s.Name]
		if c == nil {
			c = &layerCost{}
			out[s.Name] = c
		}
		c.self += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
		allocs, bytes := s.Allocs, s.Bytes
		for _, k := range children[i] {
			allocs -= min(allocs, spans[k].Allocs)
			bytes -= min(bytes, spans[k].Bytes)
		}
		c.allocs += allocs
		c.bytes += bytes
	}
	return out
}

// covered returns the length of the union of the kids' intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
