package obs

import (
	"runtime"
	"sync"
	"time"

	"sprout/internal/arena"
	"sprout/internal/metrics"
	"sprout/internal/ring"
)

// PoolSource is anything with named lease accounting: buffer arenas and
// the CountedPool wrappers around the serving path's sync.Pool uses.
type PoolSource interface {
	Name() string
	Stats() arena.Stats
}

// RingSource names one work queue (a wfq.Sched) for the exporter. The
// stats func closes over the owning subsystem, so a queue can be registered
// without exposing its element type. The type and the sprout_ring_* metric
// names keep the name of the ring buffer the queues once ran on.
type RingSource struct {
	Name  string
	Stats func() ring.Stats
}

// memSnapshot caches one runtime.ReadMemStats per scrape burst: every
// runtime family reads through here, and a scrape gathers them all within
// the reuse window, so the stop-the-world read happens once instead of
// once per family.
type memSnapshot struct {
	mu   sync.Mutex
	at   time.Time
	last runtime.MemStats
}

func (m *memSnapshot) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); now.Sub(m.at) > 100*time.Millisecond {
		runtime.ReadMemStats(&m.last)
		m.at = now
	}
	return m.last
}

// fcounter registers one label-less float counter family collected by fn.
func fcounter(r *metrics.Registry, name, help string, fn func() float64) {
	r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: metrics.KindCounter},
		metrics.CollectorFunc(func() []metrics.Sample {
			return []metrics.Sample{{Value: fn()}}
		}))
}

// registerRuntime exposes the Go runtime's GC and heap series, so the
// zero-alloc serving path's effect on pause times and steady-state heap is
// visible on the same dashboard as the planes it serves.
func registerRuntime(r *metrics.Registry) {
	var snap memSnapshot
	fcounter(r, "sprout_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(snap.read().PauseTotalNs) / 1e9 })
	fcounter(r, "sprout_go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(snap.read().NumGC) })
	fcounter(r, "sprout_go_alloc_bytes_total", "Cumulative bytes allocated on the heap.",
		func() float64 { return float64(snap.read().TotalAlloc) })
	fcounter(r, "sprout_go_mallocs_total", "Cumulative heap objects allocated.",
		func() float64 { return float64(snap.read().Mallocs) })
	gauge(r, "sprout_go_heap_inuse_bytes", "Bytes in in-use heap spans.",
		func() float64 { return float64(snap.read().HeapInuse) })
	gauge(r, "sprout_go_heap_objects", "Live heap objects.",
		func() float64 { return float64(snap.read().HeapObjects) })
	gauge(r, "sprout_go_next_gc_bytes", "Heap size that triggers the next GC cycle.",
		func() float64 { return float64(snap.read().NextGC) })
	gauge(r, "sprout_go_last_gc_pause_seconds", "Duration of the most recent GC pause.",
		func() float64 {
			ms := snap.read()
			if ms.NumGC == 0 {
				return 0
			}
			return float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
		})
	gauge(r, "sprout_go_goroutines_count", "Goroutines currently running.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// registerPools exposes lease hit/miss/outstanding per named arena or
// counted pool. Outstanding leases are the invariant the leak tests pin:
// a quiescent server holds zero.
func registerPools(r *metrics.Registry, pools []PoolSource) {
	collect := func(fn func(arena.Stats) float64) metrics.CollectorFunc {
		return func() []metrics.Sample {
			out := make([]metrics.Sample, len(pools))
			for i, p := range pools {
				out[i] = metrics.Sample{LabelValues: []string{p.Name()}, Value: fn(p.Stats())}
			}
			return out
		}
	}
	r.MustRegister(metrics.Desc{
		Name: "sprout_arena_lease_hits_total", Help: "Buffer leases served from a pooled allocation.",
		Kind: metrics.KindCounter, Labels: []string{"arena"},
	}, collect(func(s arena.Stats) float64 { return float64(s.Hits) }))
	r.MustRegister(metrics.Desc{
		Name: "sprout_arena_lease_misses_total", Help: "Buffer leases that allocated fresh backing.",
		Kind: metrics.KindCounter, Labels: []string{"arena"},
	}, collect(func(s arena.Stats) float64 { return float64(s.Misses) }))
	r.MustRegister(metrics.Desc{
		Name: "sprout_arena_outstanding_leases", Help: "Leases handed out and not yet released.",
		Kind: metrics.KindGauge, Labels: []string{"arena"},
	}, collect(func(s arena.Stats) float64 { return float64(s.Outstanding) }))
}

// registerRings exposes each work queue's push/pop/reject/park counters.
// Rejects are the overload policy firing; parks count the times a consumer
// found nothing queued and waited, so a busy queue shows parks flat while
// pushes equal pops.
func registerRings(r *metrics.Registry, rings []RingSource) {
	collect := func(fn func(ring.Stats) float64) metrics.CollectorFunc {
		return func() []metrics.Sample {
			out := make([]metrics.Sample, len(rings))
			for i, q := range rings {
				out[i] = metrics.Sample{LabelValues: []string{q.Name}, Value: fn(q.Stats())}
			}
			return out
		}
	}
	r.MustRegister(metrics.Desc{
		Name: "sprout_ring_pushes_total", Help: "Items accepted into the work queue.",
		Kind: metrics.KindCounter, Labels: []string{"queue"},
	}, collect(func(s ring.Stats) float64 { return float64(s.Pushes) }))
	r.MustRegister(metrics.Desc{
		Name: "sprout_ring_pops_total", Help: "Items consumed from the work queue.",
		Kind: metrics.KindCounter, Labels: []string{"queue"},
	}, collect(func(s ring.Stats) float64 { return float64(s.Pops) }))
	r.MustRegister(metrics.Desc{
		Name: "sprout_ring_rejects_total", Help: "Pushes refused by a full tenant queue (overload policy applied).",
		Kind: metrics.KindCounter, Labels: []string{"queue"},
	}, collect(func(s ring.Stats) float64 { return float64(s.Rejects) }))
	r.MustRegister(metrics.Desc{
		Name: "sprout_ring_parks_total", Help: "Times a work-queue consumer found nothing queued and waited.",
		Kind: metrics.KindCounter, Labels: []string{"queue"},
	}, collect(func(s ring.Stats) float64 { return float64(s.Parks) }))
}
