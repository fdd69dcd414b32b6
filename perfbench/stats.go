package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"pathenum"
)

// samples holds raw per-operation timings. Percentiles are computed
// exactly from them (nearest rank), never from histogram buckets.
type samples []time.Duration

// pct returns the nearest-rank p-quantile in milliseconds.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank quantile of plain values.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// processCPU is the CPU time (user + system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are cumulative Go runtime counters, read through
// runtime/metrics, which does not stop the world.
type runtimeCounters struct {
	GCCycles uint64  // completed GC cycles
	GCCPU    float64 // CPU seconds spent in the GC
	TotalCPU float64 // CPU seconds available to the runtime's user code and GC
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{GCCycles: s[0].Value.Uint64(), GCCPU: s[1].Value.Float64(), TotalCPU: s[2].Value.Float64()}
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocsNow is the number of heap objects allocated so far.
func allocsNow() uint64 { return readUint("/gc/heap/allocs:objects") }

// heapBytes is the heap the last GC found live. Its peak is what the
// process must hold; the peak of all heap objects would add garbage whose
// amount depends on when the collector happened to run.
func heapBytes() uint64 { return readUint("/gc/heap/live:bytes") }

// meterInterval is how often the meter samples gauges. Every sample reads
// one runtime metric and, with an engine attached, takes the cache lock
// once, so 5 ms keeps its cost far below the work it watches.
const meterInterval = 5 * time.Millisecond

// meter samples the gauges of a process (heap) and of the engine it
// serves (pool occupancy, cache bytes, ledger bytes) while a
// measurement window is open, and reads the cumulative counters at its
// edges. Library workloads run one in the benchmark process; HTTP
// workloads run one in the server process and read it over HTTP.
type meter struct {
	eng  *pathenum.Engine // nil when no engine is attached
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	heapPeak  uint64
	cachePeak int64
	memPeak   int64
	utilSum   float64
	n         int

	cpu0   time.Duration
	rt0    runtimeCounters
	cache0 pathenum.FrontierCacheStats
}

// meterReport is what a window yields; it is also the wire form the
// server process returns.
type meterReport struct {
	CPU            time.Duration `json:"cpu_ns"`
	HeapPeakBytes  uint64        `json:"heap_peak_bytes"`
	CachePeakBytes int64         `json:"cache_peak_bytes"`
	MemPeakBytes   int64         `json:"mem_peak_bytes"`
	UtilMean       float64       `json:"util_mean"`
	GCCycles       uint64        `json:"gc_cycles"`
	GCCPUFraction  float64       `json:"gc_cpu_fraction"`
	CacheHits      uint64        `json:"cache_hits"`
	CacheMisses    uint64        `json:"cache_misses"`
	CacheEvictions uint64        `json:"cache_evictions"`
	CacheInvalid   uint64        `json:"cache_invalidations"`
	CacheRejected  uint64        `json:"cache_rejected"`
	JoinFallbacks  uint64        `json:"join_fallbacks"`
}

func startMeter(eng *pathenum.Engine) *meter {
	m := &meter{eng: eng, stop: make(chan struct{}), done: make(chan struct{})}
	m.cpu0 = processCPU()
	m.rt0 = readRuntime()
	if eng != nil {
		m.cache0 = eng.CacheStats()
	}
	m.sample()
	go m.loop()
	return m
}

func (m *meter) loop() {
	defer close(m.done)
	t := time.NewTicker(meterInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.sample()
		}
	}
}

func (m *meter) sample() {
	h := heapBytes()
	var cs pathenum.FrontierCacheStats
	var ms pathenum.MemStats
	var util float64
	if m.eng != nil {
		cs = m.eng.CacheStats()
		ms = m.eng.MemStats()
		util = m.eng.PoolStats().Utilization()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.heapPeak = max(m.heapPeak, h)
	m.cachePeak = max(m.cachePeak, cs.Bytes)
	m.memPeak = max(m.memPeak, ms.UsedBytes)
	m.utilSum += util
	m.n++
}

// finish stops sampling and reports the window.
func (m *meter) finish() meterReport {
	close(m.stop)
	<-m.done
	m.sample()
	rt := readRuntime()
	r := meterReport{CPU: processCPU() - m.cpu0, GCCycles: rt.GCCycles - m.rt0.GCCycles}
	if total := rt.TotalCPU - m.rt0.TotalCPU; total > 0 {
		r.GCCPUFraction = (rt.GCCPU - m.rt0.GCCPU) / total
	}
	m.mu.Lock()
	r.HeapPeakBytes, r.CachePeakBytes, r.MemPeakBytes = m.heapPeak, m.cachePeak, m.memPeak
	r.UtilMean = m.utilSum / float64(m.n)
	m.mu.Unlock()
	if m.eng != nil {
		cs := m.eng.CacheStats()
		r.CacheHits = cs.Hits - m.cache0.Hits
		r.CacheMisses = cs.Misses - m.cache0.Misses
		r.CacheEvictions = cs.Evictions - m.cache0.Evictions
		r.CacheInvalid = cs.Invalidations - m.cache0.Invalidations
		r.CacheRejected = cs.Rejected - m.cache0.Rejected
		r.JoinFallbacks = m.eng.MemStats().JoinFallbacks
	}
	return r
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
