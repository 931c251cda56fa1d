package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"sprout/internal/erasure"
	"sprout/internal/gf256"
	"sprout/internal/optimizer"
)

// probeBytes is how much payload each coder probe pushes through in total,
// split into probeBatches timed batches whose median rate is reported.
const (
	probeBytes   = 96 << 20
	probeBatches = 5
	// rpcProbes sequential round trips, or as many as fit in rpcBudget on a
	// workload whose OSDs sleep for milliseconds.
	rpcProbes = 2000
	rpcBudget = time.Second
)

// traceMetrics derives the span-based per-layer metrics.
func (p *phase) traceMetrics(out map[string]float64) {
	spans := p.tr.recorded()
	from, to := p.tr.at(p.t0.Add(p.warmup)), p.tr.at(p.t0.Add(p.warmup+p.timed))
	measured := func(s span) bool { return s.end != 0 && s.start >= from && s.start < to }

	var fetch, write []float64
	var fetchSum float64
	kept := 0
	for _, s := range spans {
		if !measured(s) {
			continue
		}
		kept++
		if !s.ok {
			continue
		}
		switch s.name {
		case spanFetch:
			fetch = append(fetch, ms(s.end-s.start))
			fetchSum += ms(s.end - s.start)
		case spanWrite:
			write = append(write, ms(s.end-s.start))
		}
	}
	sort.Float64s(fetch)
	sort.Float64s(write)
	out["transport.fetch_p50_ms"] = nanToZero(percentile(fetch, 0.50))
	out["transport.fetch_p99_ms"] = nanToZero(percentile(fetch, 0.99))
	out["transport.write_p50_ms"] = nanToZero(percentile(write, 0.50))
	// Wire, client queue, wfq and OSD-mutex wait, lumped: what a fetch takes
	// beyond the OSD's own service time.
	out["transport.fetch_nonservice_ms"] = 0
	if len(fetch) > 0 {
		out["transport.fetch_nonservice_ms"] = fetchSum/float64(len(fetch)) - p.serviceNS/1e6
	}

	// Parent ids index the full slice, so self times are computed on it and
	// then restricted to the measured interval by position.
	readSelf := selfTimesMS(spans, spanOpRead, measured)
	writeSelf := selfTimesMS(spans, spanOpWrite, measured)
	out["core.read_self_p50_ms"] = nanToZero(percentile(readSelf, 0.50))
	out["core.read_self_p99_ms"] = nanToZero(percentile(readSelf, 0.99))
	out["core.write_self_p50_ms"] = nanToZero(percentile(writeSelf, 0.50))
	// Overhead: the median verified read among the traced operations against
	// that among the untraced ones between them.
	var with, without []float64
	for _, s := range p.samples {
		if off := time.Duration(s.due) - p.warmup; off < 0 || off >= p.timed || s.write || s.status != stOK {
			continue
		}
		if s.traced {
			with = append(with, ms(s.end-s.due))
		} else {
			without = append(without, ms(s.end-s.due))
		}
	}
	sort.Float64s(with)
	sort.Float64s(without)
	out["trace.overhead_frac"] = 0
	if base := percentile(without, 0.50); base > 0 {
		out["trace.overhead_frac"] = (percentile(with, 0.50) - base) / base
	}
	out["trace.spans"] = float64(kept)
	out["trace.spans_dropped"] = float64(p.tr.dropped.Load())
}

// selfTimesMS is selfTimes in sorted milliseconds, for the ok spans keep
// accepts.
func selfTimesMS(spans []span, name uint8, keep func(span) bool) []float64 {
	self := selfTimes(spans, name)
	var out []float64
	i := 0
	for _, s := range spans {
		if s.name != name || s.end == 0 {
			continue
		}
		if s.ok && keep(s) {
			out = append(out, ms(self[i]))
		}
		i++
	}
	sort.Float64s(out)
	return out
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// probe times fn and records it as a probe.<layer>.<call> span.
func (p *phase) probe(name string, fn func()) time.Duration {
	id := p.tr.nameID("probe." + name)
	start := p.tr.now()
	fn()
	end := p.tr.now()
	p.tr.record(span{name: id, start: start, end: end, file: -1, chunk: -1, node: -1, ok: true})
	return time.Duration(end - start)
}

// rate runs fn, which processes bytes bytes, in probeBatches timed batches
// and returns the median batch's MB/s (10^6 bytes).
func (p *phase) rate(name string, bytes int, fn func()) float64 {
	iters := max(probeBytes/probeBatches/bytes, 1)
	rates := make([]float64, probeBatches)
	for b := range rates {
		d := p.probe(name, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		})
		rates[b] = float64(iters) * float64(bytes) / 1e6 / d.Seconds()
	}
	return median(rates)
}

// probes makes direct timed calls into single layers at the workload's chunk
// size, after the traced interval, on the live stack.
func (p *phase) probes(ctx context.Context, out map[string]float64) error {
	st := p.st

	// transport: sequential chunk round trips of the most popular file.
	var rtts []float64
	var rpcErr error
	p.probe("transport.get_chunk", func() {
		for i, begin := 0, time.Now(); i < rpcProbes && time.Since(begin) < rpcBudget; i++ {
			t := time.Now()
			if _, _, err := st.client.GetChunk(ctx, poolName, objectName(1), i%codeK); err != nil {
				rpcErr = err
				return
			}
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
	})
	if rpcErr != nil {
		return rpcErr
	}
	sort.Float64s(rtts)
	out["transport.rpc_p50_us"] = percentile(rtts, 0.50)

	// optimizer, then the controller's own planning call.
	view, err := st.pool.ClusterView(st.lambdas)
	if err != nil {
		return err
	}
	prob, err := optimizer.FromCluster(view, p.wl.cacheChunks)
	if err != nil {
		return err
	}
	var plan *optimizer.Plan
	d := p.probe("optimizer.optimize", func() { plan, err = optimizer.Optimize(prob, optimizer.Options{}) })
	if err != nil {
		return err
	}
	out["optimizer.optimize_ms"] = float64(d) / 1e6
	out["optimizer.outer_iters"] = float64(plan.Iterations)
	out["optimizer.bound_ms"] = plan.Objective * 1000
	out["optimizer.cache_used_frac"] = ratio(float64(plan.CacheUsed()), float64(p.wl.cacheChunks))
	d = p.probe("core.plan_time_bin", func() { _, err = st.ctrl.PlanTimeBin(st.lambdas) })
	if err != nil {
		return err
	}
	out["core.plan_ms"] = float64(d) / 1e6

	// erasure and gf256 on random data of the workload's chunk size.
	chunk := p.wl.size / codeK
	code, err := erasure.New(codeN, codeK)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.seed))
	data := make([][]byte, codeK)
	for i := range data {
		data[i] = make([]byte, chunk)
		rng.Read(data[i])
	}
	storage, err := code.Encode(data)
	if err != nil {
		return err
	}
	cached, err := code.CacheChunks(data, 2)
	if err != nil {
		return err
	}
	// The decode a half-cached file pays: two functional chunks from the
	// cache plus two parity chunks from storage.
	mixed := []erasure.Chunk{
		{Index: code.CacheChunkIndex(0), Data: cached[0]},
		{Index: code.CacheChunkIndex(1), Data: cached[1]},
		{Index: codeK, Data: storage[codeK]},
		{Index: codeK + 1, Data: storage[codeK+1]},
	}
	var scratch erasure.DecodeScratch
	out["erasure.decode_mb_s"] = p.rate("erasure.reconstruct_into", p.wl.size, func() {
		_, err = code.ReconstructInto(&scratch, mixed)
	})
	if err != nil {
		return err
	}
	out["erasure.encode_mb_s"] = p.rate("erasure.encode", p.wl.size, func() { _, err = code.Encode(data) })
	if err != nil {
		return err
	}
	out["erasure.cachechunks_mb_s"] = p.rate("erasure.cache_chunks", p.wl.size, func() { _, err = code.CacheChunks(data, 2) })
	if err != nil {
		return err
	}
	src, dst := make([]byte, 256<<10), make([]byte, 256<<10)
	rng.Read(src)
	out["gf256.mulslice_mb_s"] = p.rate("gf256.mul_slice", len(src), func() { gf256.MulSlice(0x53, src, dst) })
	return nil
}
