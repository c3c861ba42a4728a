package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// usage is a process-wide reading of CPU time and heap allocation.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// since returns the usage accrued from u to now.
func (u usage) since() usage {
	n := readUsage()
	return usage{
		cpu:        n.cpu - u.cpu,
		allocBytes: n.allocBytes - u.allocBytes,
		gcCycles:   n.gcCycles - u.gcCycles,
		gcCPU:      n.gcCPU - u.gcCPU,
		totalCPU:   n.totalCPU - u.totalCPU,
	}
}

// heapWatch samples the live heap (as of the last GC) every two
// milliseconds until stopped, and keeps the peak of each one-second
// window.
type heapWatch struct {
	stop, done chan struct{}
	peaks      []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(time.Second)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Now().After(windowEnd) {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, windowEnd = 0, windowEnd.Add(time.Second)
			}
			select {
			case <-h.stop:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median of the window peaks
// in MB: the peak a typical second of the run reaches, which one
// burst of neighbouring load cannot move.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// envInfo is recorded with every run.
type envInfo struct {
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	GitRevision string  `json:"git_revision"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	LatenessP99 float64 `json:"generator_lateness_p99_ms"` // open-loop phases only
	SlowdownP50 float64 `json:"kernel_slowdown_p50"`       // see calib.go
}

func environment(workload string, trace bool, seed int64, seconds int) envInfo {
	e := envInfo{
		Workload: workload, Trace: trace, Seed: seed, Seconds: seconds,
		GitRevision: "unknown", GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitRevision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && e.GitRevision != "unknown" {
			e.GitRevision += "+dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
