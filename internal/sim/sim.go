// Package sim is a discrete-event simulator of the erasure-coded storage
// system with functional caching. It models Poisson file-request arrivals,
// probabilistic dispatch of k_i - d_i chunk requests to FIFO storage-node
// queues with general service-time distributions, instantaneous (or
// configurable-latency) cache reads, and fork-join completion: a file
// request finishes when its slowest chunk finishes.
//
// The simulator is used to validate the analytical latency bound and to
// reproduce the request-split dynamics of Fig. 7.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sprout/internal/cluster"
	"sprout/internal/scheduler"
)

// Config describes one simulation run.
type Config struct {
	Cluster *cluster.Cluster
	// Pi is the scheduling probability matrix pi[file][node index]; row sums
	// determine how many chunks are read from storage per request.
	Pi [][]float64
	// CacheChunks is the number of functional chunks cached per file (d_i);
	// used for accounting of cache vs. storage reads. May be nil.
	CacheChunks []int
	// CacheLatency is the (deterministic) time to read one chunk from the
	// cache; the paper measures it to be negligible next to storage reads.
	CacheLatency float64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// Seed seeds the simulation's random source.
	Seed int64
	// SlotLength, if positive, splits the horizon into slots and records
	// per-slot cache/storage chunk counts (Fig. 7).
	SlotLength float64
	// WarmupFraction of the horizon is excluded from latency statistics.
	WarmupFraction float64
	// WriteFrac turns the fraction of arrivals into writes (the ingest
	// plane's striped client-side puts): a write dispatches one chunk-write
	// job to every placement node of the file — the full n-chunk stripe, no
	// cache piece — and completes when the slowest chunk write finishes
	// (fork-join over n instead of k−d).
	WriteFrac float64
}

// Result aggregates the simulation outputs.
type Result struct {
	// Requests counts read arrivals; write arrivals are reported separately
	// in WriteRequests, and the latency/per-file statistics cover reads
	// only (write latencies have their own mean/p99 below).
	Requests int
	// Completed counts requests whose latency was recorded (arrivals after
	// the warmup cutoff that finished); with no warmup it equals Requests.
	Completed       int
	MeanLatency     float64
	P95Latency      float64
	P99Latency      float64
	MaxLatency      float64
	PerFileLatency  []float64 // mean latency per file (NaN if never requested)
	NodeUtilization []float64 // busy time fraction per node
	NodeChunks      []int64   // chunks served per node
	CacheChunks     int64     // chunks served from cache
	StorageChunks   int64     // chunks served from storage
	// WriteRequests counts arrivals that were writes; WrittenChunks counts
	// the chunk-write jobs they dispatched. Write latencies are kept apart
	// from read latencies: a write's fork-join spans the full n-chunk
	// stripe.
	WriteRequests    int64
	WrittenChunks    int64
	MeanWriteLatency float64
	P99WriteLatency  float64
	Slots            []SlotStats
}

// SlotStats is the per-slot request-split record used by Fig. 7.
type SlotStats struct {
	Start         float64
	CacheChunks   int64
	StorageChunks int64
}

// Common errors.
var (
	ErrNoScheduling = errors.New("sim: missing scheduling matrix")
	ErrBadHorizon   = errors.New("sim: horizon must be positive")
)

// event kinds.
const (
	evArrival = iota
	evNodeDone
)

type event struct {
	time float64
	kind int
	file int
	node int
	req  *requestState
	seq  int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type requestState struct {
	file      int
	arrival   float64
	isWrite   bool // full-stripe chunk writes instead of a k−d chunk read
	required  int  // storage pieces that must finish
	done      int  // storage pieces finished so far
	needCache bool // a folded cache piece (worth d chunks) must also finish
	cacheDone bool
	completed float64 // completion time of the slowest piece so far
}

type nodeState struct {
	queue    []*requestState // FIFO; the head is in service when busy
	busy     bool
	busyTime float64
	served   int64
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("sim: nil cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Pi == nil {
		return nil, ErrNoScheduling
	}
	if len(cfg.Pi) != len(cfg.Cluster.Files) {
		return nil, fmt.Errorf("sim: pi has %d rows for %d files", len(cfg.Pi), len(cfg.Cluster.Files))
	}
	if cfg.Horizon <= 0 {
		return nil, ErrBadHorizon
	}
	assignment, err := scheduler.NewAssignment(cfg.Pi)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	files := cfg.Cluster.Files
	nodes := cfg.Cluster.Nodes
	warmup := cfg.Horizon * cfg.WarmupFraction

	// Pre-generate arrivals for every file and push them as events.
	var q eventQueue
	seq := 0
	push := func(e *event) {
		e.seq = seq
		seq++
		heap.Push(&q, e)
	}
	heap.Init(&q)
	for i, f := range files {
		t := 0.0
		if f.Lambda <= 0 {
			continue
		}
		for {
			t += rng.ExpFloat64() / f.Lambda
			if t >= cfg.Horizon {
				break
			}
			push(&event{time: t, kind: evArrival, file: i})
		}
	}

	nodeStates := make([]*nodeState, len(nodes))
	for j := range nodeStates {
		nodeStates[j] = &nodeState{}
	}

	var latencies []float64
	var writeLatencies []float64
	perFileSum := make([]float64, len(files))
	perFileCount := make([]int64, len(files))
	var cacheChunks, storageChunks int64
	var writeRequests, writtenChunks int64
	var slots []SlotStats
	if cfg.SlotLength > 0 {
		numSlots := int(math.Ceil(cfg.Horizon / cfg.SlotLength))
		slots = make([]SlotStats, numSlots)
		for s := range slots {
			slots[s].Start = float64(s) * cfg.SlotLength
		}
	}
	slotOf := func(t float64) int {
		if cfg.SlotLength <= 0 {
			return -1
		}
		s := int(t / cfg.SlotLength)
		if s >= len(slots) {
			s = len(slots) - 1
		}
		return s
	}

	startService := func(now float64, j int) {
		ns := nodeStates[j]
		if ns.busy || len(ns.queue) == 0 {
			return
		}
		ns.busy = true
		ns.served++
		service := nodes[j].Service.Sample(rng)
		ns.busyTime += service
		push(&event{time: now + service, kind: evNodeDone, node: j, req: ns.queue[0]})
	}

	// finishPiece records one completed piece: a storage chunk, or the
	// folded cache piece that stands for all d cached chunks.
	finishPiece := func(now float64, req *requestState, cachePiece bool) {
		if cachePiece {
			req.cacheDone = true
		} else {
			req.done++
		}
		if now > req.completed {
			req.completed = now
		}
		if req.done >= req.required && (!req.needCache || req.cacheDone) {
			lat := req.completed - req.arrival
			if req.arrival >= warmup {
				if req.isWrite {
					writeLatencies = append(writeLatencies, lat)
				} else {
					latencies = append(latencies, lat)
					perFileSum[req.file] += lat
					perFileCount[req.file]++
				}
			}
		}
	}

	// Placement of each file as node indices, for the full-stripe dispatch
	// of writes.
	var placementIdx [][]int
	if cfg.WriteFrac > 0 {
		idx := cfg.Cluster.NodeIndex()
		placementIdx = make([][]int, len(files))
		for i, f := range files {
			placementIdx[i] = make([]int, 0, len(f.Placement))
			for _, nodeID := range f.Placement {
				placementIdx[i] = append(placementIdx[i], idx[nodeID])
			}
		}
	}

	requests := 0
	for q.Len() > 0 {
		ev := heap.Pop(&q).(*event)
		now := ev.time
		switch ev.kind {
		case evArrival:
			if cfg.WriteFrac > 0 && rng.Float64() < cfg.WriteFrac {
				// Write: dispatch the full n-chunk stripe to the file's
				// placement nodes; fork-join over all of them, no cache piece.
				targets := placementIdx[ev.file]
				writeRequests++
				req := &requestState{file: ev.file, arrival: now, isWrite: true, required: len(targets)}
				writtenChunks += int64(len(targets))
				for _, j := range targets {
					nodeStates[j].queue = append(nodeStates[j].queue, req)
					startService(now, j)
				}
				break
			}
			requests++
			f := files[ev.file]
			targets := assignment.Pick(ev.file, rng)
			cached := 0
			if cfg.CacheChunks != nil && ev.file < len(cfg.CacheChunks) {
				cached = cfg.CacheChunks[ev.file]
			} else {
				cached = f.K - len(targets)
			}
			if cached < 0 {
				cached = 0
			}
			// Cache reads complete after CacheLatency (possibly zero). They are
			// folded into a single pending piece since all cached chunks are
			// read in parallel from local cache memory.
			req := &requestState{
				file: ev.file, arrival: now,
				required: len(targets), needCache: cached > 0 && len(targets) > 0,
			}
			if len(targets) == 0 {
				// Entire file served from cache instantaneously.
				if now >= warmup {
					latencies = append(latencies, cfg.CacheLatency)
					perFileSum[ev.file] += cfg.CacheLatency
					perFileCount[ev.file]++
				}
			}
			if cached > 0 {
				cacheChunks += int64(cached)
				if s := slotOf(now); s >= 0 {
					slots[s].CacheChunks += int64(cached)
				}
				if req.needCache {
					// Model the cache read as an immediate completion event.
					done := now + cfg.CacheLatency
					push(&event{time: done, kind: evNodeDone, node: -1, req: req})
				}
			}
			storageChunks += int64(len(targets))
			if s := slotOf(now); s >= 0 {
				slots[s].StorageChunks += int64(len(targets))
			}
			for _, j := range targets {
				nodeStates[j].queue = append(nodeStates[j].queue, req)
				startService(now, j)
			}
		case evNodeDone:
			if ev.node >= 0 {
				ns := nodeStates[ev.node]
				// Pop the job at the head of the FIFO queue.
				req := ns.queue[0]
				ns.queue = ns.queue[1:]
				ns.busy = false
				finishPiece(now, req, false)
				startService(now, ev.node)
			} else {
				// Cache read completion.
				finishPiece(now, ev.req, true)
			}
		}
	}

	res := &Result{
		Requests:        requests,
		Completed:       len(latencies),
		PerFileLatency:  make([]float64, len(files)),
		NodeUtilization: make([]float64, len(nodes)),
		NodeChunks:      make([]int64, len(nodes)),
		CacheChunks:     cacheChunks,
		StorageChunks:   storageChunks,
		WriteRequests:   writeRequests,
		WrittenChunks:   writtenChunks,
		Slots:           slots,
	}
	for i := range files {
		if perFileCount[i] > 0 {
			res.PerFileLatency[i] = perFileSum[i] / float64(perFileCount[i])
		} else {
			res.PerFileLatency[i] = math.NaN()
		}
	}
	for j, ns := range nodeStates {
		res.NodeUtilization[j] = ns.busyTime / cfg.Horizon
		if res.NodeUtilization[j] > 1 {
			res.NodeUtilization[j] = 1
		}
		res.NodeChunks[j] = ns.served
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatency = sum / float64(len(latencies))
		res.P95Latency = quantile(latencies, 0.95)
		res.P99Latency = quantile(latencies, 0.99)
		res.MaxLatency = latencies[len(latencies)-1]
	}
	if len(writeLatencies) > 0 {
		sort.Float64s(writeLatencies)
		var sum float64
		for _, l := range writeLatencies {
			sum += l
		}
		res.MeanWriteLatency = sum / float64(len(writeLatencies))
		res.P99WriteLatency = quantile(writeLatencies, 0.99)
	}
	return res, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
