// Command sproutstore runs the emulated Ceph-like object store in one of
// three modes: ctrl (the default), a live Sprout controller plane — one or
// more shard controllers behind the consistent-hash router — serving reads
// over the emulated OSDs with hedged parallel fetches and the
// auto-replanner; serve, a TCP server speaking the multiplexed binary
// protocol; or load, a load-generating client against such a server. The
// LRU cache tier vs functional caching comparison is examples/cephcluster.
//
// Usage:
//
//	sproutstore -mode serve -addr 127.0.0.1:7440 -workers 16 -inflight 512
//	sproutstore -mode serve -chaos "2:lat=30ms;2:err=0.2;5:stall=1s;7:drop"
//	sproutstore -mode load -target 127.0.0.1:7440 -clients 64 -conns 4
//	sproutstore -mode ctrl -clients 8 -duration 3s -hedge-delay 10ms -replan-every 500ms
//	sproutstore -mode ctrl -duration 3s -fail "500ms:2,5" -recover "2s:2" -lose
//	sproutstore -mode ctrl -controllers 4 -clients 32 -duration 3s
//	sproutstore -mode serve -controllers 4 -cache 40   # shard endpoints alongside the store
//
// The controller flags (-cache, -hedge-*, -fill-workers, -replan-*) shape the
// shard controllers of both -mode ctrl and -mode serve -controllers N;
// -controllers 1 is the same path with a one-shard router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/metrics"
	"sprout/internal/obs"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/resilience"
	"sprout/internal/router"
	"sprout/internal/stack"
	"sprout/internal/transport"
	"sprout/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sproutstore:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	mode    string
	addr    string
	osds    int
	objects int
	objSize int

	// Server admission control and fault injection.
	workers   int
	inflight  int
	chaosSpec string
	chaos     *transport.Chaos

	// Client pool and load generation.
	target    string
	clients   int
	conns     int
	duration  time.Duration
	writeFrac float64

	// Controller plane (ctrl, and serve with -controllers > 1).
	controllers int
	cacheChunks int
	serve       core.ServeOptions

	// Failure injection and repair (ctrl mode).
	failures      []osdEvent
	recoveries    []osdEvent
	loseChunks    bool
	repairWorkers int
	repairScan    time.Duration

	metricsAddr string
}

func parseFlags(args []string) (*options, error) {
	var o options
	var failSpec, recoverSpec string
	fs := flag.NewFlagSet("sproutstore", flag.ContinueOnError)
	fs.StringVar(&o.mode, "mode", "ctrl", "ctrl, serve, or load")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address in serve mode")
	fs.IntVar(&o.osds, "osds", 12, "number of OSDs")
	fs.IntVar(&o.objects, "objects", 20, "ctrl/serve: objects written into the pool for the controllers")
	fs.IntVar(&o.objSize, "size", 1<<20, "ctrl/serve: object size in bytes")

	fs.IntVar(&o.workers, "workers", 0, "serve: handler pool size (0 = default)")
	fs.IntVar(&o.inflight, "inflight", 0, "serve: max queued requests before overload responses (0 = default)")
	fs.StringVar(&o.chaosSpec, "chaos", "", "serve: per-OSD fault rules, e.g. \"2:lat=30ms;2:err=0.2;5:stall=1s;7:drop\"")

	fs.StringVar(&o.target, "target", "", "load: server address to connect to")
	fs.IntVar(&o.clients, "clients", 16, "load/ctrl: concurrent client goroutines")
	fs.IntVar(&o.conns, "conns", 4, "load: pooled TCP connections")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "load/ctrl: how long to drive requests")
	fs.Float64Var(&o.writeFrac, "writefrac", 0, "load: fraction of requests that are striped writes (0..1)")

	fs.IntVar(&o.controllers, "controllers", 1, "ctrl/serve: shard controllers behind the consistent-hash router (serve: 1 = store only)")
	fs.IntVar(&o.cacheChunks, "cache", 0, "ctrl/serve: functional-cache capacity in chunks, split evenly over the shards (0 = 3 per object)")
	fs.DurationVar(&o.serve.HedgeDelay, "hedge-delay", 10*time.Millisecond, "ctrl/serve: hedge timer for straggling fetches (0 disables)")
	fs.IntVar(&o.serve.HedgeExtra, "hedge-extra", 1, "ctrl/serve: max extra hedged fetches per read")
	fs.IntVar(&o.serve.FillWorkers, "fill-workers", 2, "ctrl/serve: background cache-fill workers")
	fs.DurationVar(&o.serve.ReplanInterval, "replan-every", 500*time.Millisecond, "ctrl/serve: auto-replanner tick (0 disables)")
	fs.Float64Var(&o.serve.ReplanThreshold, "replan-threshold", 0.5, "ctrl/serve: relative rate drift that triggers a replan")

	fs.StringVar(&failSpec, "fail", "", "ctrl: OSD failures under load, e.g. \"500ms:2,5;1s:7\" (after 500ms fail OSDs 2 and 5, after 1s fail 7)")
	fs.StringVar(&recoverSpec, "recover", "", "ctrl: OSD recoveries, same format as -fail")
	fs.BoolVar(&o.loseChunks, "lose", true, "ctrl: failed OSDs lose their chunks (forces reconstruction)")
	fs.IntVar(&o.repairWorkers, "repair-workers", 2, "ctrl: repair worker pool size")
	fs.DurationVar(&o.repairScan, "repair-scan", 100*time.Millisecond, "ctrl: repair degradation-scan interval")

	fs.StringVar(&o.metricsAddr, "metrics", "", "serve Prometheus text metrics at this address (e.g. :9090); empty disables")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.chaos, err = parseChaosRules(o.chaosSpec); err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	if o.failures, err = parseOSDEvents(failSpec); err != nil {
		return nil, fmt.Errorf("-fail: %w", err)
	}
	if o.recoveries, err = parseOSDEvents(recoverSpec); err != nil {
		return nil, fmt.Errorf("-recover: %w", err)
	}
	if o.writeFrac < 0 || o.writeFrac > 1 {
		return nil, fmt.Errorf("-writefrac %v outside [0, 1]", o.writeFrac)
	}
	// The stack's (7,4) pool puts an object's seven chunks on seven OSDs.
	if o.osds < 7 {
		return nil, fmt.Errorf("-osds %d: the (7,4) pool needs at least 7", o.osds)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"objects", o.objects}, {"size", o.objSize}, {"clients", o.clients}, {"controllers", o.controllers}} {
		if f.v < 1 {
			return nil, fmt.Errorf("-%s %d: want at least 1", f.name, f.v)
		}
	}
	// The controllers reject the same knobs, but only after the ingest.
	if err := o.serve.Validate(); err != nil {
		return nil, err
	}
	o.serve.Logf = logf
	return &o, nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// run executes one sproutstore invocation: it returns when the mode's work
// is done (load, ctrl) or ctx ends (serve), with everything it started
// stopped.
func run(ctx context.Context, args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	switch o.mode {
	case "load":
		if o.target == "" {
			return errors.New("load mode needs -target host:port")
		}
		return runLoad(ctx, o, out)
	case "serve", "ctrl":
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	// The metrics address is bound before any ingest, so a taken port ends
	// the run at once; the planes register into reg as they come up.
	reg := metrics.NewRegistry()
	if o.metricsAddr != "" {
		stop, err := serveMetrics(o.metricsAddr, reg, out)
		if err != nil {
			return err
		}
		defer stop()
	}
	if o.mode == "serve" {
		s, err := startServe(ctx, o, out, reg)
		if err != nil {
			return err
		}
		<-ctx.Done()
		s.Close(out)
		return nil
	}
	fmt.Fprintf(out, "sproutstore: writing %d objects of %d bytes into %s...\n", o.objects, o.objSize, stack.Pool)
	st, err := newStack(ctx, o, o.objects, "")
	if err != nil {
		return err
	}
	defer st.Close()
	p, err := newPlane(ctx, st, o, nil)
	if err != nil {
		return err
	}
	defer p.Close()
	return p.serveReaders(ctx, o, out, reg)
}

// newStack builds the emulated store: o.osds OSDs holding the (7,4) pool
// with objects objects of o.objSize bytes, served on listen when it is set.
func newStack(ctx context.Context, o *options, objects int, listen string) (*stack.Stack, error) {
	return stack.New(ctx, stack.Spec{
		OSDs:    o.osds,
		Service: queue.ShiftedExponential{Shift: 0.002, Rate: 500},
		Seed:    1,
		Objects: objects,
		Size:    o.objSize,
		Listen:  listen,
		Server: transport.ServerConfig{
			Workers:     o.workers,
			MaxInFlight: o.inflight,
			Chaos:       o.chaos,
			// Clients that die between BeginPut and CommitObject must not
			// leak staged chunks on a long-running server.
			StagedPutTTL: time.Minute,
			Logf:         logf,
		},
	})
}

// storeServer is what -mode serve runs: the object-store server and, with
// -controllers > 1, the shard endpoints of a controller plane next to it.
type storeServer struct {
	st    *stack.Stack
	chaos *transport.Chaos
	plane *plane
}

// startServe serves the store on -addr, empty unless -controllers > 1 asks
// for a controller plane, whose objects it ingests, and registers what it
// runs into reg.
func startServe(ctx context.Context, o *options, out io.Writer, reg *metrics.Registry) (_ *storeServer, err error) {
	objects := 0
	if o.controllers > 1 {
		objects = o.objects
	}
	s := &storeServer{chaos: o.chaos}
	if s.st, err = newStack(ctx, o, objects, o.addr); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "sproutstore: serving object store on %s (pool: %s)\n", s.st.Addr, stack.Pool)
	if o.chaos != nil {
		fmt.Fprintf(out, "sproutstore: chaos rules active: %s\n", o.chaosSpec)
	}
	if o.controllers > 1 {
		// The plane's router is the membership authority remote routers sync
		// from (CtrlMembership); reads and writes arrive at the shard
		// endpoints from remote routers, which fan invalidations out to
		// peers themselves.
		s.plane, err = newPlane(ctx, s.st, o, &transport.ServerConfig{Workers: o.workers})
		if err != nil {
			s.st.Close()
			return nil, err
		}
		for i, ep := range s.plane.endpoints {
			fmt.Fprintf(out, "sproutstore: shard %s serving controller ops on %s (cache %d chunks, hedge %v +%d)\n",
				shardID(i), ep.Addr(), s.plane.perShard, o.serve.HedgeDelay, o.serve.HedgeExtra)
		}
	}
	src := obs.Sources{
		TransportServers: []obs.TransportSource{{Server: "store", Stats: s.st.Server.Stats}},
		OSDHealth:        s.st.Cluster.Health,
		Runtime:          true,
		Pools:            []obs.PoolSource{transport.FrameArena(), erasure.StripeScratchPool()},
		Rings:            []obs.RingSource{{Name: "transport_work", Stats: s.st.Server.WorkQueueStats}},
	}
	if o.chaos != nil {
		src.Chaos = o.chaos.Stats
	}
	if s.plane != nil {
		s.plane.addMetrics(&src)
	}
	obs.Register(reg, src)
	return s, nil
}

// Close stops the endpoints, the controllers and the store server and
// prints the serving totals.
func (s *storeServer) Close(out io.Writer) {
	if s.plane != nil {
		s.plane.Close()
	}
	s.st.Close()
	st := s.st.Server.Stats()
	fmt.Fprintf(out, "sproutstore: served %d requests, %d frames in / %d out, %d KiB in / %d out, %d overload rejections, %d decode errors\n",
		st.Requests, st.FramesReceived, st.FramesSent, st.BytesReceived>>10, st.BytesSent>>10,
		st.OverloadRejections, st.DecodeErrors)
	if s.chaos != nil {
		cs := s.chaos.Stats()
		fmt.Fprintf(out, "sproutstore: chaos injected %d delays, %d errors, %d stalls; dropped %d requests / %d replies\n",
			cs.DelaysInjected, cs.ErrorsInjected, cs.Stalls, cs.RequestsDropped, cs.RepliesDropped)
	}
}

// osdEvent schedules a membership transition for a set of OSDs at an offset
// into the serving window.
type osdEvent struct {
	after time.Duration
	ids   []int
}

// parseOSDEvents parses "500ms:2,5;1s:7" into scheduled OSD events.
func parseOSDEvents(spec string) ([]osdEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []osdEvent
	for _, part := range strings.Split(spec, ";") {
		after, idsStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("event %q: want duration:id[,id...]", part)
		}
		d, err := time.ParseDuration(after)
		if err != nil {
			return nil, fmt.Errorf("event %q: %w", part, err)
		}
		var ids []int
		for _, s := range strings.Split(idsStr, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("event %q: %w", part, err)
			}
			ids = append(ids, id)
		}
		out = append(out, osdEvent{after: d, ids: ids})
	}
	return out, nil
}

// parseChaosRules parses "2:lat=30ms;2:err=0.2;5:stall=1s;7:drop" into a
// chaos harness with one merged rule per OSD. Returns nil for an empty spec
// so an unfaulted server carries no chaos layer at all. The returned harness
// stays runtime-controllable: callers embedding sproutstore can keep the
// pointer and SetRule/ClearRule while the server runs.
func parseChaosRules(spec string) (*transport.Chaos, error) {
	if spec == "" {
		return nil, nil
	}
	rules := map[int]transport.ChaosRule{}
	for _, part := range strings.Split(spec, ";") {
		idStr, what, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("rule %q: want osd:kind[=value]", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", part, err)
		}
		rule := rules[id]
		kind, val, _ := strings.Cut(what, "=")
		switch kind {
		case "lat":
			if rule.Latency, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "jitter":
			if rule.Jitter, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "stall":
			if rule.Stall, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "err":
			if rule.ErrorRate, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
			if rule.ErrorRate < 0 || rule.ErrorRate > 1 {
				return nil, fmt.Errorf("rule %q: error rate outside [0, 1]", part)
			}
		case "drop":
			rule.DropRequests = true
		case "dropreply":
			rule.DropReplies = true
		default:
			return nil, fmt.Errorf("rule %q: unknown kind %q (want lat, jitter, stall, err, drop, dropreply)", part, kind)
		}
		rules[id] = rule
	}
	chaos := transport.NewChaos(1)
	for id, rule := range rules {
		chaos.SetRule(id, rule)
	}
	return chaos, nil
}

func shardID(i int) string { return fmt.Sprintf("shard-%d", i) }

// plane is the controller plane of both -mode ctrl and -mode serve
// -controllers N: the namespace consistent-hash-sharded over one or more
// shard controllers on the store's pool behind the read/write router. The
// total cache budget is split evenly across shards and each shard plans
// only its owned slice (lambda-masked). Every shard controller runs its own
// adaptive loop, and the repair manager of ctrl mode its own scan loop, so
// one shard's replan never holds up another's. The stack owns the
// controllers and closes them.
type plane struct {
	st        *stack.Stack
	perShard  int
	router    *router.Router
	ctrls     []*core.Controller
	endpoints []*router.PeerEndpoint // one per shard when serving them over TCP
}

// newPlane builds o.controllers shard controllers over the stack's pool
// (same OSD IDs, same per-chunk placement, so membership changes map one to
// one) with the flags' ServeOptions, plans and prefetches. With endpoint
// set, every shard is also exposed as a TCP endpoint speaking the
// controller op set.
func newPlane(ctx context.Context, st *stack.Stack, o *options, endpoint *transport.ServerConfig) (_ *plane, err error) {
	p := &plane{
		st:     st,
		router: router.New(router.Options{}),
	}
	defer func() {
		if err != nil {
			p.Close()
		}
	}()
	capacity := o.cacheChunks
	if capacity <= 0 {
		capacity = 3 * o.objects
	}
	p.perShard = max(1, capacity/o.controllers)
	for i := 0; i < o.controllers; i++ {
		ctrl, err := st.NewController(p.perShard, o.serve, int64(i+1))
		if err != nil {
			return nil, err
		}
		p.ctrls = append(p.ctrls, ctrl)
		sh := router.Shard{ID: shardID(i), Ctrl: ctrl}
		if endpoint != nil {
			ep, err := router.ServeShard(ctrl, st.Local, st.Local, p.router, "127.0.0.1:0", *endpoint)
			if err != nil {
				return nil, err
			}
			p.endpoints = append(p.endpoints, ep)
			sh.Addr = ep.Addr()
		}
		if err := p.router.AddShard(sh); err != nil {
			return nil, err
		}
	}
	// Plan once the ring is complete: the router masks each shard's lambdas
	// to its owned files, so every shard spends its cache slice only on
	// content it actually serves — the ownership remote routers compute
	// after a membership sync.
	if err := p.router.PlanTimeBin(st.Lambdas); err != nil {
		return nil, err
	}
	if err := p.router.PrefetchCache(ctx, st.Local); err != nil {
		return nil, err
	}
	return p, nil
}

// addMetrics adds the plane to src: every shard controller with its fill
// queue, every shard endpoint's transport server with its request queue,
// the router, and the controllers' scratch pools.
func (p *plane) addMetrics(src *obs.Sources) {
	src.Router = p.router
	src.Pools = append(src.Pools, core.FillArena(), core.ReadScratchPool())
	for i, ctrl := range p.ctrls {
		src.Controllers = append(src.Controllers, obs.ShardSource{Shard: shardID(i), Controller: ctrl})
		src.Rings = append(src.Rings, obs.RingSource{Name: "controller_fill_" + shardID(i), Stats: ctrl.FillQueueStats})
	}
	for i, ep := range p.endpoints {
		src.TransportServers = append(src.TransportServers, obs.TransportSource{Server: shardID(i), Stats: ep.Stats})
		src.Rings = append(src.Rings, obs.RingSource{Name: "transport_work_" + shardID(i), Stats: ep.WorkQueueStats})
	}
}

// Close stops the endpoints and the router.
func (p *plane) Close() {
	for _, ep := range p.endpoints {
		_ = ep.Close()
	}
	_ = p.router.Close()
}

// serveReaders serves Zipf-distributed reads through the plane for
// o.duration: parallel (optionally hedged) degraded reads against the
// calibrated service times, background cache fills, the auto-replanner
// re-planning from measured rates, and — with -fail/-recover — OSD failures
// injected under live load with the repair plane reconstructing lost chunks
// concurrently. It registers the plane and the repair manager into reg and
// ends with the report.
func (p *plane) serveReaders(ctx context.Context, o *options, out io.Writer, reg *metrics.Registry) error {
	mgr := repair.NewManager(p.st.Pool, repair.Config{
		Workers:      o.repairWorkers,
		ScanInterval: o.repairScan,
		Logf:         logf,
	})
	mgr.Start()
	defer mgr.Close()

	src := obs.Sources{
		Repair:    mgr.Stats,
		OSDHealth: p.st.Cluster.Health,
		Runtime:   true,
		Pools:     []obs.PoolSource{erasure.StripeScratchPool()},
	}
	p.addMetrics(&src)
	obs.Register(reg, src)

	fmt.Fprintf(out, "sproutstore: serving %d readers for %v across %d shards (cache %d chunks/shard, hedge %v +%d, replan every %v)\n",
		o.clients, o.duration, len(p.ctrls), p.perShard,
		o.serve.HedgeDelay, o.serve.HedgeExtra, o.serve.ReplanInterval)
	// The first failed read ends the run for everyone.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	picker := workload.NewRatePicker(p.st.Lambdas)
	start := time.Now()
	stop := start.Add(o.duration)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 40))
			var dst []byte // reused across reads: ReadInto grows it once, then steady-state is zero-alloc
			for time.Now().Before(stop) {
				data, err := p.router.ReadInto(ctx, picker.Pick(r.Float64()), p.st.Local, dst)
				if err != nil {
					cancel(err)
					return
				}
				dst = data
				reads.Add(1)
			}
		}()
	}

	// Apply the scheduled failure/recovery events under live load.
	inject := func(events []osdEvent, done string, mark func(*core.Controller, int) bool, apply func(ids []int) error) {
		for _, ev := range events {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resilience.Sleep(ctx, time.Until(start.Add(ev.after))) != nil {
					return
				}
				if err := apply(ev.ids); err != nil {
					logf("sproutstore: OSDs %v not %s: %v", ev.ids, done, err)
					return
				}
				for _, ctrl := range p.ctrls {
					for _, id := range ev.ids {
						mark(ctrl, id)
					}
				}
				mgr.Kick()
				fmt.Fprintf(out, "sproutstore: OSDs %v %s\n", ev.ids, done)
			}()
		}
	}
	inject(o.failures, fmt.Sprintf("failed (lose chunks: %v)", o.loseChunks), (*core.Controller).SetNodeDown, func(ids []int) error {
		return p.st.Cluster.FailOSDs(o.loseChunks, ids...)
	})
	inject(o.recoveries, "recovered", (*core.Controller).SetNodeUp, func(ids []int) error {
		return p.st.Cluster.RecoverOSDs(ids...)
	})

	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return err
	}
	for _, ctrl := range p.ctrls {
		ctrl.WaitFills()
	}

	rs := p.router.Stats()
	fmt.Fprintf(out, "served %d reads (%.0f/s)\n", reads.Load(), float64(reads.Load())/o.duration.Seconds())
	routed := map[string]int64{}
	for _, sh := range rs.Shards {
		routed[sh.ID] = sh.Reads
	}
	// The plane's totals of the counters and latencies printed below.
	var stats core.Stats
	var lat [3]metrics.HistogramBuckets // cache hit, storage, degraded
	for i, ctrl := range p.ctrls {
		cs, cl := ctrl.Stats(), ctrl.ReadLatency()
		fmt.Fprintf(out, "  %s: %6d routed reads, %d/%d chunks cache/OSD, storage p99 %9v, %d auto-replans\n",
			shardID(i), routed[shardID(i)], cs.ChunksFromCache, cs.ChunksFromDisk, cl.Storage.Snapshot().P99, cs.AutoReplans)
		for j, b := range []metrics.HistogramBuckets{cl.CacheHit, cl.Storage, cl.Degraded} {
			lat[j] = lat[j].Add(b)
		}
		stats.ChunksFromCache += cs.ChunksFromCache
		stats.ChunksFromDisk += cs.ChunksFromDisk
		stats.LazyFills += cs.LazyFills
		stats.FillsDropped += cs.FillsDropped
		stats.HedgesLaunched += cs.HedgesLaunched
		stats.HedgeWins += cs.HedgeWins
		stats.FetchFailovers += cs.FetchFailovers
		stats.CacheRescues += cs.CacheRescues
		stats.PlanUpdates += cs.PlanUpdates
		stats.AutoReplans += cs.AutoReplans
		stats.ReplanErrors += cs.ReplanErrors
		stats.MembershipChanges += cs.MembershipChanges
	}
	for j, label := range []string{"cache-hit reads:", "storage reads:", "degraded reads:"} {
		l := lat[j].Snapshot()
		fmt.Fprintf(out, "  %-16s %6d  p50 %9v  p90 %9v  p99 %9v\n", label, l.Count, l.P50, l.P90, l.P99)
	}
	fmt.Fprintf(out, "  chunks: %d from cache, %d from OSDs; %d background fills (%d dropped)\n",
		stats.ChunksFromCache, stats.ChunksFromDisk, stats.LazyFills, stats.FillsDropped)
	fmt.Fprintf(out, "  hedges: %d launched, %d wins; failovers: %d; cache rescues: %d\n",
		stats.HedgesLaunched, stats.HedgeWins, stats.FetchFailovers, stats.CacheRescues)
	fmt.Fprintf(out, "  plans: %d total, %d auto-replans, %d rejected; membership changes: %d; ring version %d\n",
		stats.PlanUpdates, stats.AutoReplans, stats.ReplanErrors, stats.MembershipChanges, rs.RingVersion)
	if rs.InvalidationsSent > 0 || rs.Fanouts > 0 {
		fmt.Fprintf(out, "  invalidations: %d sent, %d errors; fan-out p99 %v\n",
			rs.InvalidationsSent, rs.InvalidationErrors, rs.FanoutLatency.P99)
	}
	if len(o.failures) > 0 {
		rps := mgr.Stats()
		fmt.Fprintf(out, "  repair: %d chunks (%d KiB) reconstructed in %v, %d deferred, %d failures; degraded objects left: %d\n",
			rps.ChunksRepaired, rps.BytesRepaired>>10, rps.RepairTime.Round(time.Millisecond),
			rps.Deferred, rps.Failures, len(p.st.Pool.DegradedObjects()))
		fmt.Fprintf(out, "  membership: down OSDs at exit: %v\n", p.ctrls[0].DownNodes())
	}
	return nil
}

// runLoad drives mixed GetChunk/striped-write traffic at a remote server and
// reports throughput and latency percentiles, writing a small working set
// first. With -writefrac > 0 the given fraction of requests are full striped
// writes — client-side encode, parallel staged chunks, two-phase commit —
// overwriting the shared working set under the concurrent readers.
func runLoad(ctx context.Context, o *options, out io.Writer) error {
	client, err := transport.DialConfig(o.target, transport.ClientConfig{Conns: o.conns})
	if err != nil {
		return err
	}
	defer client.Close()
	pools, err := client.Pools(ctx)
	if err != nil {
		return err
	}
	if len(pools) == 0 {
		return errors.New("server exposes no pools")
	}
	pool := pools[0]
	writer, err := transport.NewStripedWriter(ctx, client, pool)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const loadObjects = 8
	payload := make([]byte, 256<<10)
	for i := 0; i < loadObjects; i++ {
		rng.Read(payload)
		if _, err := writer.Put(ctx, fmt.Sprintf("load-%02d", i), payload); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "sproutstore: driving %d clients over %d conns at %s (pool %q, writefrac %.2f) for %v\n",
		o.clients, o.conns, o.target, pool, o.writeFrac, o.duration)

	// The first failed request ends the run for everyone.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	deadline := time.Now().Add(o.duration)
	readLats := make([][]time.Duration, o.clients)
	writeLats := make([][]time.Duration, o.clients)
	var wg sync.WaitGroup
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 77))
			buf := make([]byte, len(payload))
			for i := 0; time.Now().Before(deadline); i++ {
				obj := fmt.Sprintf("load-%02d", (w+i)%loadObjects)
				start := time.Now()
				lats := &readLats[w]
				var err error
				if o.writeFrac > 0 && r.Float64() < o.writeFrac {
					r.Read(buf[:4096]) // vary a prefix; full refills would dominate
					lats = &writeLats[w]
					_, err = writer.Put(ctx, obj, buf)
				} else {
					_, _, err = client.GetChunk(ctx, pool, obj, i%3)
				}
				switch {
				case err == nil:
					*lats = append(*lats, time.Since(start))
				case errors.Is(err, transport.ErrOverloaded):
					// Shed requests are the backpressure working; the
					// client already counts them in its stats.
				default:
					cancel(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return err
	}

	report := func(kind string, lats [][]time.Duration) {
		var merged []time.Duration
		for _, l := range lats {
			merged = append(merged, l...)
		}
		if len(merged) == 0 {
			return
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		pct := func(p float64) time.Duration { return merged[int(p*float64(len(merged)-1))] }
		fmt.Fprintf(out, "completed %d %s: %.0f ops/s, p50 %v, p99 %v\n",
			len(merged), kind, float64(len(merged))/o.duration.Seconds(),
			pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	}
	report("chunk reads", readLats)
	report("striped writes", writeLats)
	s := client.Stats()
	fmt.Fprintf(out, "client stats: %d frames / %d KiB sent, %d frames / %d KiB received, %d retries, %d overload rejections\n",
		s.FramesSent, s.BytesSent>>10, s.FramesReceived, s.BytesReceived>>10, s.Retries, s.OverloadRejections)
	return nil
}

// serveMetrics binds addr and serves reg at /metrics on it until stop is
// called. It prints the bound address, so ":0" shows the port it got.
func serveMetrics(addr string, reg *metrics.Registry, out io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logf("sproutstore: metrics server: %v", err)
		}
	}()
	fmt.Fprintf(out, "sproutstore: metrics at http://%s/metrics\n", ln.Addr())
	return func() {
		_ = srv.Close()
		<-done
	}, nil
}
