package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sprout/internal/arena"
	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/objstore"
	"sprout/internal/repair"
	"sprout/internal/resilience"
	"sprout/internal/ring"
	"sprout/internal/transport"
)

// snapshot is every public counter the per-layer metrics are deltas of, read
// from outside the layers at one instant.
type snapshot struct {
	core            core.Stats
	client, server  transport.TransportStats
	wfq             ring.Stats
	osds            []objstore.OSDHealth
	coder           erasure.CoderStats
	frames, fills   arena.Stats
	breakers        resilience.BreakerStats
	budgetExhausted int64
	repair          repair.Stats
	mallocs         uint64
	gcCycles        uint32
	gcPauseNS       uint64
	heapInuse       uint64
	cpu             time.Duration
}

func (st *stack) snapshot() snapshot {
	s := snapshot{
		core:            st.ctrl.Stats(),
		client:          st.client.Stats(),
		server:          st.srv.Stats(),
		wfq:             st.srv.WorkQueueStats(),
		osds:            st.cluster.Health(),
		coder:           st.pool.CoderStats().Add(st.writer.Code.Stats()),
		frames:          transport.FrameArena().Stats(),
		fills:           core.FillArena().Stats(),
		breakers:        st.breakers.Stats(),
		budgetExhausted: st.client.RetryBudget().Exhausted(),
		cpu:             cpuTime(),
	}
	for _, f := range st.ctrl.Files() {
		s.coder = s.coder.Add(f.Code.Stats())
	}
	if st.repair != nil {
		s.repair = st.repair.Stats()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.gcCycles, s.gcPauseNS, s.heapInuse = m.Mallocs, m.NumGC, m.PauseTotalNs, m.HeapInuse
	return s
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only on a bad argument; zero usage would then show as
	// a zero metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is ru_maxrss, which Linux reports in KiB.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// window is the per-window statistics of the measured interval.
type window struct {
	Reads     int `json:"reads"`
	Writes    int `json:"writes"`
	Failed    int `json:"failed"`
	ReadMean  float64
	ReadP50   float64
	ReadP95   float64
	ReadP99   float64
	WriteP50  float64
	WriteP99  float64
	OpsPerSec float64
}

// percentile is the nearest-rank q-quantile of sorted values, NaN if empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// finite returns v sorted, without its NaNs (a window without samples).
func finite(v []float64) []float64 {
	keep := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			keep = append(keep, x)
		}
	}
	sort.Float64s(keep)
	return keep
}

// median ignores NaNs and is 0 if nothing is left.
func median(v []float64) float64 {
	keep := finite(v)
	if len(keep) == 0 {
		return 0
	}
	n := len(keep)
	if n%2 == 1 {
		return keep[n/2]
	}
	return (keep[n/2-1] + keep[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := finite(v)
	at := func(pos float64) float64 { // 1-based position with interpolation
		pos = math.Min(math.Max(pos, 1), float64(len(s)))
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	n := float64(len(s) + 1)
	return at(n / 4), at(3 * n / 4)
}

// spread is the interquartile range as a share of the median.
// Like median it ignores NaNs.
func spread(v []float64) float64 {
	keep := finite(v)
	m := median(keep)
	if len(keep) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(keep)
	return (q3 - q1) / m
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// cutWindows splits the measured interval into equal windows of about
// windowWidth by due time and computes each one's statistics. Only verified operations have a latency;
// everything else counts as failed.
func cutWindows(samples []sample, warmup, timed time.Duration) []window {
	windows := max(int(timed/windowWidth), 1)
	out := make([]window, windows)
	reads := make([][]float64, windows)
	writes := make([][]float64, windows)
	width := timed / time.Duration(windows)
	for _, s := range samples {
		off := time.Duration(s.due) - warmup
		if off < 0 || off >= timed {
			continue
		}
		w := min(int(off/width), windows-1)
		switch {
		case s.status != stOK:
			out[w].Failed++
		case s.write:
			writes[w] = append(writes[w], ms(s.end-s.due))
		default:
			reads[w] = append(reads[w], ms(s.end-s.due))
		}
	}
	for w := range out {
		sort.Float64s(reads[w])
		sort.Float64s(writes[w])
		out[w].Reads, out[w].Writes = len(reads[w]), len(writes[w])
		out[w].ReadMean = mean(reads[w])
		out[w].ReadP50 = percentile(reads[w], 0.50)
		out[w].ReadP95 = percentile(reads[w], 0.95)
		out[w].ReadP99 = percentile(reads[w], 0.99)
		out[w].WriteP50 = percentile(writes[w], 0.50)
		out[w].WriteP99 = percentile(writes[w], 0.99)
		out[w].OpsPerSec = float64(len(reads[w])+len(writes[w])) / width.Seconds()
	}
	return out
}

// meanBacklog is the mean number of reads in flight when a read was
// dispatched, over the reads due in the fifth of the measured interval that
// starts at from (0 to 1). A closed loop has none.
func (p *phase) meanBacklog(from float64) float64 {
	var sum, n float64
	lo := time.Duration(from * float64(p.timed))
	for i, b := range p.backlog {
		if off := time.Duration(p.samples[i].due) - p.warmup; off >= lo && off < lo+p.timed/5 {
			sum += float64(b)
			n++
		}
	}
	return ratio(sum, n)
}

func column(ws []window, get func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = get(w)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns what a phase recorded into named values: the end-to-end
// metrics and every per-layer metric that needs no span or probe.
func (p *phase) metrics(out map[string]float64) (ws []window, attempted, failed int) {
	ws = cutWindows(p.samples, p.warmup, p.timed)
	var ok, reads, writes float64
	for _, w := range ws {
		reads += float64(w.Reads)
		writes += float64(w.Writes)
		failed += w.Failed
	}
	ok = reads + writes
	attempted = int(ok) + failed

	// Every latency and rate metric is the median over the windows of the
	// per-window statistic: see windowWidth.
	out["read_mean_ms"] = median(column(ws, func(w window) float64 { return w.ReadMean }))
	out["read_p50_ms"] = median(column(ws, func(w window) float64 { return w.ReadP50 }))
	out["read_p95_ms"] = median(column(ws, func(w window) float64 { return w.ReadP95 }))
	out["read_p99_ms"] = median(column(ws, func(w window) float64 { return w.ReadP99 }))
	out["write_p50_ms"] = median(column(ws, func(w window) float64 { return w.WriteP50 }))
	out["ops_s"] = median(column(ws, func(w window) float64 { return w.OpsPerSec }))
	out["fail_frac"] = ratio(float64(failed), float64(attempted))
	out["peak_rss_mb"] = peakRSSMiB()

	b, e := &p.begin, &p.end
	out["cpu_ms_per_op"] = ratio(float64(e.cpu-b.cpu)/1e6, ok)

	// gen: the benchmark's own generator, as validity checks.
	var late []float64
	var dropped float64
	for _, s := range p.samples {
		if off := time.Duration(s.due) - p.warmup; off < 0 || off >= p.timed {
			continue
		}
		late = append(late, ms(s.start-s.due))
		if s.status == stDropped {
			dropped++
		}
	}
	sort.Float64s(late)
	out["gen.backlog_mid"] = p.meanBacklog(0.4)
	out["gen.backlog_end"] = p.meanBacklog(0.8)
	out["gen.late_p50_ms"] = percentile(late, 0.50)
	out["gen.late_p99_ms"] = percentile(late, 0.99)
	out["gen.late_max_ms"] = percentile(late, 1)
	out["gen.dropped"] = dropped
	out["gen.window_spread"] = spread(column(ws, func(w window) float64 { return w.ReadP50 }))
	out["gen.write_p99_ms"] = median(column(ws, func(w window) float64 { return w.WriteP99 }))

	// core
	c0, c1 := b.core, e.core
	dReads := float64(c1.Reads - c0.Reads)
	dWrites := float64(c1.Writes - c0.Writes)
	fromCache := float64(c1.ChunksFromCache - c0.ChunksFromCache)
	fromDisk := float64(c1.ChunksFromDisk - c0.ChunksFromDisk)
	hedges := float64(c1.HedgesLaunched - c0.HedgesLaunched)
	out["core.cache_only_frac"] = ratio(float64(c1.CacheOnlyReads-c0.CacheOnlyReads), dReads)
	out["core.cache_chunk_frac"] = ratio(fromCache, fromCache+fromDisk)
	out["core.fetches_per_read"] = ratio(fromDisk+hedges, dReads)
	out["core.hedges_per_kread"] = 1000 * ratio(hedges, dReads)
	out["core.hedge_win_frac"] = ratio(float64(c1.HedgeWins-c0.HedgeWins), hedges)
	out["core.failovers_per_kread"] = 1000 * ratio(float64(c1.FetchFailovers-c0.FetchFailovers), dReads)
	out["core.degraded_read_frac"] = ratio(float64(c1.DegradedReads-c0.DegradedReads), dReads)
	out["core.breaker_demotions_per_kread"] = 1000 * ratio(float64(c1.BreakerDemotions-c0.BreakerDemotions), dReads)
	out["core.read_retries_per_kread"] = 1000 * ratio(float64(c1.ReadRetries-c0.ReadRetries), dReads)
	out["core.stale_reloads_per_kwrite"] = 1000 * ratio(float64(c1.StaleCacheReloads-c0.StaleCacheReloads), dWrites)
	out["core.invalidations_per_write"] = ratio(float64(c1.CacheInvalidations-c0.CacheInvalidations), dWrites)
	out["core.write_through_chunks_per_write"] = ratio(float64(c1.WriteThroughChunks-c0.WriteThroughChunks), dWrites)
	out["core.fills_enqueued"] = float64(c1.FillsEnqueued - c0.FillsEnqueued)
	out["core.fills_dropped"] = float64(c1.FillsDropped - c0.FillsDropped)

	// cache
	cache := p.st.ctrl.Cache()
	out["cache.occupancy_frac"] = ratio(float64(cache.Len()), float64(cache.Capacity()))

	// transport and wfq
	out["transport.frames_per_op"] = ratio(float64(e.client.FramesSent-b.client.FramesSent+e.client.FramesReceived-b.client.FramesReceived), ok)
	out["transport.bytes_per_op"] = ratio(float64(e.client.BytesSent-b.client.BytesSent+e.client.BytesReceived-b.client.BytesReceived), ok)
	out["transport.retries_per_kop"] = 1000 * ratio(float64(e.client.Retries-b.client.Retries), ok)
	out["transport.retries_denied"] = float64(e.client.RetriesDenied - b.client.RetriesDenied)
	out["transport.overload_rejections"] = float64(e.server.OverloadRejections - b.server.OverloadRejections)
	out["transport.deadline_rejections"] = float64(e.server.DeadlineRejections - b.server.DeadlineRejections)
	out["transport.decode_errors"] = float64(e.server.DecodeErrors - b.server.DecodeErrors + e.client.DecodeErrors - b.client.DecodeErrors)
	out["wfq.pushes_per_op"] = ratio(float64(e.wfq.Pushes-b.wfq.Pushes), ok)
	out["wfq.rejects"] = float64(e.wfq.Rejects - b.wfq.Rejects)
	out["wfq.parks_per_kop"] = 1000 * ratio(float64(e.wfq.Parks-b.wfq.Parks), ok)

	// objstore: busy share per OSD that is still up, over the interval.
	var busySum, busyMax, served, osdErrs, up float64
	for i := range e.osds {
		d := (e.osds[i].Busy - b.osds[i].Busy).Seconds() / p.timed.Seconds()
		served += float64(e.osds[i].Served - b.osds[i].Served)
		osdErrs += float64(e.osds[i].Errors - b.osds[i].Errors)
		if e.osds[i].State != objstore.StateDown {
			busySum += d
			busyMax = math.Max(busyMax, d)
			up++
		}
	}
	out["objstore.busy_frac"] = ratio(busySum, up)
	out["objstore.max_osd_busy_frac"] = busyMax
	out["objstore.chunks_served_per_op"] = ratio(served, ok)
	out["objstore.errors"] = osdErrs
	p.serviceNS = ratio(busySum*p.timed.Seconds()*1e9, served)

	// erasure
	planHits, planMisses := float64(e.coder.PlanHits-b.coder.PlanHits), float64(e.coder.PlanMisses-b.coder.PlanMisses)
	par, ser := float64(e.coder.ParallelOps-b.coder.ParallelOps), float64(e.coder.SerialOps-b.coder.SerialOps)
	out["erasure.plan_hit_frac"] = ratio(planHits, planHits+planMisses)
	out["erasure.parallel_op_frac"] = ratio(par, par+ser)

	// arena
	fh, fm := float64(e.frames.Hits-b.frames.Hits), float64(e.frames.Misses-b.frames.Misses)
	lh, lm := float64(e.fills.Hits-b.fills.Hits), float64(e.fills.Misses-b.fills.Misses)
	out["arena.frame_miss_frac"] = ratio(fm, fh+fm)
	out["arena.fill_miss_frac"] = ratio(lm, lh+lm)

	// resilience and repair
	out["resilience.breaker_opens"] = float64(e.breakers.Opens - b.breakers.Opens + e.breakers.Reopens - b.breakers.Reopens)
	out["resilience.breaker_rejections"] = float64(e.breakers.Rejections - b.breakers.Rejections)
	out["resilience.budget_exhausted"] = float64(e.budgetExhausted - b.budgetExhausted)
	// Repair starts at injection, in warm-up, so it is counted from there.
	out["repair.chunks_repaired"] = float64(e.repair.ChunksRepaired)
	out["repair.failures"] = float64(e.repair.Failures)
	out["repair.restore_s"] = p.restore.Seconds()

	// proc
	out["proc.allocs_per_op"] = ratio(float64(e.mallocs-b.mallocs), ok)
	out["proc.gc_cycles"] = float64(e.gcCycles - b.gcCycles)
	out["proc.gc_pause_total_ms"] = float64(e.gcPauseNS-b.gcPauseNS) / 1e6
	out["proc.heap_inuse_mb"] = float64(e.heapInuse) / (1 << 20)
	out["proc.goroutines_peak"] = float64(p.goroutinesPeak)
	return ws, attempted, failed
}
