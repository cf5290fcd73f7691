package obs

import (
	"runtime"
	"sync"
)

// RegisterRuntimeMetrics binds scrape-time gauges for the Go runtime's
// memory and goroutine state, so a scrape before and after sustained churn
// shows whether the process is flat — heap back near baseline once the churn
// drains, goroutine count not creeping (the benchmark's server.heap_mb and
// server.gc_per_s read them). Scrape-time (GaugeFunc) rather than pushed,
// because the values drift continuously and a pushed gauge would freeze
// between events.
//
// ReadMemStats stops the world briefly, so one callback takes the whole
// snapshot and the gauges that share it read the cached copy — one STW per
// scrape (the registry renders series in registration order, heap_alloc
// first), not one per series.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	var (
		mu sync.Mutex
		m  runtime.MemStats
	)
	reg.GaugeFunc("cs2p_runtime_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc), sampled at scrape time.", nil,
		func() float64 {
			mu.Lock()
			defer mu.Unlock()
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	reg.GaugeFunc("cs2p_runtime_heap_objects",
		"Live heap objects, from the scrape's MemStats snapshot.", nil,
		func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return float64(m.HeapObjects)
		})
	reg.GaugeFunc("cs2p_runtime_gc_cycles",
		"Completed GC cycles, from the scrape's MemStats snapshot.", nil,
		func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return float64(m.NumGC)
		})
	reg.GaugeFunc("cs2p_runtime_goroutines",
		"Live goroutines, sampled at scrape time.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
}
