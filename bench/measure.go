package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement. Spread, when non-zero, is the
// segment IQR/median printed beside the value as "<name>.spread".
type metric struct {
	Name   string
	Value  float64
	Unit   string
	Spread float64
}

// result collects everything one workload run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions, for the operator
	e2e       []metric // end-to-end metrics, BENCHMARK.json order
	extra     []metric // workload-specific headline metrics (per-layer in the contract)
	layer     []metric // per-layer metrics (traced run)
}

func (r *result) fail(n int64, what string) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, what+" x"+strconv.FormatInt(n, 10))
	}
}

// segment is one equal-work slice of the timed window.
type segment struct {
	wall       float64 // seconds
	cpu        float64 // seconds, user+sys
	ops        int64
	allocObjs  uint64
	allocBytes uint64
	traced     bool // wrappers were recording during this segment
}

// cpuSeconds is getrusage(RUSAGE_SELF) user+sys.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would, once per segment).
func allocCounters() (objs, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapLive forces a collection and returns the live heap.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// window accumulates the segments of one timed window.
type window struct {
	segs []segment
}

// measure runs step as one segment; step returns the operations it
// completed.
func (w *window) measure(traced bool, step func() int64) {
	o0, b0 := allocCounters()
	c0 := cpuSeconds()
	t0 := time.Now()
	ops := step()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	o1, b1 := allocCounters()
	w.segs = append(w.segs, segment{
		wall: wall, cpu: cpu, ops: ops,
		allocObjs: o1 - o0, allocBytes: b1 - b0, traced: traced,
	})
}

// pick returns the segments whose traced flag equals traced.
func (w *window) pick(traced bool) []segment {
	var out []segment
	for _, s := range w.segs {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func totalOps(segs []segment) (n int64) {
	for _, s := range segs {
		n += s.ops
	}
	return n
}

// opsPerSec and cpuUsPerOp are segment medians with their spread.
func opsPerSec(segs []segment) (median, spread float64) {
	v := make([]float64, 0, len(segs))
	for _, s := range segs {
		if s.wall > 0 {
			v = append(v, float64(s.ops)/s.wall)
		}
	}
	return medianSpread(v)
}

func cpuUsPerOp(segs []segment) (median, spread float64) {
	v := make([]float64, 0, len(segs))
	for _, s := range segs {
		if s.ops > 0 {
			v = append(v, s.cpu*1e6/float64(s.ops))
		}
	}
	return medianSpread(v)
}

// allocsPerOp are counts over all the given segments.
func allocsPerOp(segs []segment) (objs, bytes float64) {
	var o, b uint64
	for _, s := range segs {
		o += s.allocObjs
		b += s.allocBytes
	}
	n := float64(totalOps(segs))
	if n == 0 {
		return 0, 0
	}
	return float64(o) / n, float64(b) / n
}

// medianSpread returns the median and IQR/median of v.
func medianSpread(v []float64) (median, spread float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	median = quantileSorted(s, 0.5)
	if median != 0 && len(s) >= 4 {
		spread = (quantileSorted(s, 0.75) - quantileSorted(s, 0.25)) / math.Abs(median)
	}
	return median, spread
}

func median(v []float64) float64 {
	m, _ := medianSpread(v)
	return m
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSnapshot is the runtime/metrics state the per-layer runtime.*
// metrics are deltas of.
type runtimeSnapshot struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	pauseTotalNs    uint64
	mutexWait       float64
	sched           *metrics.Float64Histogram
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnapshot{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		gcCycles:     s[2].Value.Uint64(),
		mutexWait:    s[3].Value.Float64(),
		sched:        s[4].Value.Float64Histogram(),
		pauseTotalNs: m.PauseTotalNs,
	}
}

// runtimeMetrics renders the runtime.* per-layer metrics for the
// interval between two snapshots.
func runtimeMetrics(a, b runtimeSnapshot, heapLiveBytes uint64) []metric {
	share := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		share = (b.gcCPU - a.gcCPU) / d
	}
	return []metric{
		{Name: "runtime.gc_cpu_share", Value: share, Unit: "ratio"},
		{Name: "runtime.gc_cycles", Value: float64(b.gcCycles - a.gcCycles), Unit: "count"},
		{Name: "runtime.gc_pause_total_ms", Value: float64(b.pauseTotalNs-a.pauseTotalNs) / 1e6, Unit: "ms"},
		{Name: "runtime.heap_live_mb", Value: float64(heapLiveBytes) / (1 << 20), Unit: "MB"},
		{Name: "runtime.peak_rss_mb", Value: peakRSSMB(), Unit: "MB"},
		{Name: "runtime.mutex_wait_s", Value: b.mutexWait - a.mutexWait, Unit: "s"},
		{Name: "runtime.sched_latency_p99_us", Value: histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6, Unit: "us"},
	}
}

// histDeltaQuantile answers a quantile of the observations made
// between two readings of one runtime/metrics histogram.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if b == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i, c := range b.Counts {
		if a != nil && i < len(a.Counts) {
			c -= a.Counts[i]
		}
		delta[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
