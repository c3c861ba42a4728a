package main

import (
	"sort"
	"strconv"
	"time"
)

// Timings are reported at reference speed.
//
// The benchmark runs on a few cores of a shared host, whose speed
// drifts by tens of percent over seconds and minutes as the
// neighbours' load comes and goes. No amount of averaging inside one
// run removes a drift that lasts longer than the run. So every timed
// stretch (a sweep pass, a set-up, an open-loop phase) is bracketed by
// runs of a fixed reference kernel, and its timings are scaled by how
// much slower than calibRef the kernel ran around it: times are
// divided by that slowdown and rates multiplied by it.
//
// Rates and set-up times use the kernel's wall time; CPU times and
// latencies use its CPU time per worker. When the host takes the VM's
// cores away for a while (steal), the kernel's wall time stretches by
// the share taken, and so does a whole pass; but most single package
// scans of a millisecond fall between the gaps and keep their time.
// Scaled by the wall slowdown, the median latency read 40-52% low in
// such runs. The CPU time follows how fast the cores run while they
// run, which is what one scan's time depends on.
//
// The kernel is the benchmark's own fixed code and calls nothing in
// the program, so a change to the program moves the scaled figures by
// as much as the raw ones, while a slower or faster machine moves the
// kernel too and cancels out. Like the scanner, the kernel builds
// small pointer structures and maps of short strings and throws them
// away, so it feels the same contention for cores, caches and the
// garbage collector. It keeps a few tens of kilobytes live at most, so it
// does not show in the live-heap figure.

// calibRef is the kernel's wall time at reference speed: roughly its
// time on an idle 2-core Intel Xeon VM at 2.1 GHz.
const calibRef = 70 * time.Millisecond

// Kernel size: kernelUnits units per worker, each building
// kernelRounds trees of kernelKeys keys. The units are handed out to
// the workers one at a time, as the sweep pool hands out packages, so
// a core that runs slower than the other does less of the work rather
// than holding up the whole kernel.
const (
	kernelUnits  = 30
	kernelRounds = 10
	kernelKeys   = 256
)

type kernelNode struct {
	left, right *kernelNode
	key         string
	val         int
}

func (n *kernelNode) insert(key string, val int) *kernelNode {
	if n == nil {
		return &kernelNode{key: key, val: val}
	}
	if key < n.key {
		n.left = n.left.insert(key, val)
	} else {
		n.right = n.right.insert(key, val)
	}
	return n
}

// depth returns the tree's total node depth, so the tree is read back.
func (n *kernelNode) depth(d int) int {
	if n == nil {
		return 0
	}
	return d + n.left.depth(d+1) + n.right.depth(d+1)
}

// kernelRound builds one tree, map and sorted key list from a fixed
// pseudo-random sequence and returns a checksum of them.
func kernelRound(seed uint32) int {
	var root *kernelNode
	counts := make(map[string]int)
	x := seed | 1
	for i := 0; i < kernelKeys; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k := "k" + strconv.Itoa(int(x%4096))
		root = root.insert(k, i)
		counts[k]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return root.depth(0) + len(keys)
}

// kernelSum keeps the kernel's results observable.
var kernelSum int

// speed is how much slower than reference speed the machine ran, once
// measured in wall time and once in CPU time per worker.
type speed struct{ wall, cpu float64 }

// slowdown runs the reference kernel on the run's workers and returns
// the machine's current slowdown.
func (r *run) slowdown() speed {
	u0 := readUsage()
	t0 := time.Now()
	sums := make([]int, kernelUnits*r.conns)
	forEach(len(sums), r.conns, func(u int) {
		for i := 0; i < kernelRounds; i++ {
			sums[u] += kernelRound(uint32(u*kernelRounds + i))
		}
	})
	wall := time.Since(t0)
	cpu := u0.since().cpu
	for _, s := range sums {
		kernelSum += s
	}
	sp := speed{
		wall: float64(wall) / float64(calibRef),
		cpu:  float64(cpu) / float64(r.conns) / float64(calibRef),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slowdowns = append(r.slowdowns, sp.wall)
	r.env.SlowdownP50 = median(r.slowdowns)
	return sp
}

// runSlowdown runs the kernel and returns the median wall-time
// slowdown of every kernel run so far: the estimate for a stretch that
// is about to start. One kernel run swings by tens of percent from one
// second to the next; the run's median follows the slower drift that
// would move a whole run.
func (r *run) runSlowdown() float64 {
	r.slowdown()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.env.SlowdownP50
}

// mean returns the average of two slowdowns: the estimate for the
// stretch between the two kernels that measured them.
func (s speed) mean(o speed) speed {
	return speed{(s.wall + o.wall) / 2, (s.cpu + o.cpu) / 2}
}
