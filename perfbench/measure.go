package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number; samples is how many measurements it
// summarizes (printed in the report table, not in the JSON line).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// metrics collects a run's reported numbers by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, samples: samples}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for none. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs, or 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pctChange is 100 × (a/b − 1): how much larger a is than b, in percent
// (0 when b is 0).
func pctChange(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// rssMB reads the process's resident set size (VmRSS) from /proc, in MB.
// It returns 0 where /proc is unavailable.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcSample is the slice of runtime.MemStats the engine-layer metrics read.
type gcSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// setEngineGC reports the Go runtime's allocation and collection activity
// between two samples, per engine run where that applies.
func setEngineGC(m metrics, before, after gcSample, runs int) {
	n := max(runs, 1)
	m.set("engine.alloc_bytes_per_run", float64(after.totalAlloc-before.totalAlloc)/float64(n), "B", runs)
	m.set("engine.gc_cycles", float64(after.numGC-before.numGC), "count", 1)
	m.set("engine.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms", int(after.numGC-before.numGC))
}

// liveHeapMB reads the heap the last collection marked live, in MB. A soft
// memory limit holds the resident set near the limit by collecting and
// returning memory more often; it cannot free what the program still
// references, which is what this reads.
func liveHeapMB() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// memSampler reads the resident set size and the live heap every 100 ms,
// set-up included, until stop.
type memSampler struct {
	stop, done chan struct{}
	rss, live  []float64 // highest sample of each window
}

func startMem() *memSampler {
	r := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for {
			rss, live := rssMB(), liveHeapMB()
			w := int(time.Since(start) / window)
			for len(r.rss) <= w {
				r.rss = append(r.rss, 0)
				r.live = append(r.live, 0)
			}
			r.rss[w] = max(r.rss[w], rss)
			r.live[w] = max(r.live[w], live)
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peaks stops the sampler and returns, for the resident set and for the
// live heap, the median over windows of each window's peak: what the run
// typically peaks at. (The single highest sample depends on where the
// collector happened to run and varies by ±25% between runs of the same
// code.) n is the number of windows.
func (r *memSampler) peaks() (rss, live float64, n int) {
	close(r.stop)
	<-r.done
	var rs, ls []float64
	for w, v := range r.rss {
		if v > 0 { // a window the ticker skipped entirely has no sample
			rs = append(rs, v)
			ls = append(ls, r.live[w])
		}
	}
	return median(rs), median(ls), len(rs)
}
