package router

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/queue"
	"sprout/internal/stack"
	"sprout/internal/transport"
)

// plane is a multi-shard test fixture: one stack of ten OSDs, N unplanned
// shard controllers over the full namespace, and the payloads ingested.
type plane struct {
	*stack.Stack
	ctrls    []*core.Controller
	payloads [][]byte
}

func newPlane(t *testing.T, shards, objects, size, capacity int) *plane {
	t.Helper()
	st, err := stack.New(context.Background(), stack.Spec{
		OSDs:    10,
		Service: queue.Deterministic{Value: 0.0002},
		Seed:    5,
		Objects: objects,
		Size:    size,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	for i := range st.Lambdas {
		st.Lambdas[i] = 1.0
	}
	p := &plane{Stack: st}
	for i := 0; i < objects; i++ {
		p.payloads = append(p.payloads, st.Payload(i))
	}
	for i := 0; i < shards; i++ {
		ctrl, err := st.NewController(capacity, core.ServeOptions{}, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		p.ctrls = append(p.ctrls, ctrl)
	}
	return p
}

// TestRouterRoutesToOwner registers in-process shards, masks each shard's
// plan to its namespace slice, and checks every read lands on the ring
// owner and returns the right bytes.
func TestRouterRoutesToOwner(t *testing.T) {
	const objects = 8
	p := newPlane(t, 3, objects, 16<<10, 2*objects)
	r := New(Options{})
	defer r.Close()
	for i, ctrl := range p.ctrls {
		if err := r.AddShard(Shard{ID: fmt.Sprintf("shard-%d", i), Ctrl: ctrl}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.PlanTimeBin(p.Lambdas); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for f := 0; f < objects; f++ {
		got, err := r.Read(ctx, f, p.Local)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p.payloads[f]) {
			t.Fatalf("file %d: wrong bytes through router", f)
		}
	}
	st := r.Stats()
	var routed int64
	for _, s := range st.Shards {
		routed += s.Reads
	}
	if routed != objects {
		t.Fatalf("routed reads = %d, want %d", routed, objects)
	}
	var ctrlReads int64
	for _, ctrl := range p.ctrls {
		ctrlReads += ctrl.Stats().Reads
	}
	if ctrlReads != objects {
		t.Fatalf("controller reads summed over shards = %d, want %d", ctrlReads, objects)
	}
	var all metrics.HistogramBuckets
	for _, ctrl := range p.ctrls {
		lat := ctrl.ReadLatency()
		all = all.Add(lat.CacheHit).Add(lat.Storage).Add(lat.Degraded)
	}
	if lat := all.Snapshot(); lat.Count != objects || lat.P99 <= 0 {
		t.Fatalf("aggregated latency snapshot = %+v", lat)
	}

	// Masked planning: every shard's cache allocation stays inside its
	// owned slice of the namespace.
	for i, ctrl := range p.ctrls {
		id := fmt.Sprintf("shard-%d", i)
		for f := 0; f < objects; f++ {
			if r.OwnerOf(f) != id && ctrl.CacheAllocationTarget(f) != 0 {
				t.Fatalf("shard %s plans cache for file %d it does not own", id, f)
			}
		}
	}
}

// TestRouterWriteFanoutInvalidatesPeers warms every shard's cache over the
// full namespace (as if each had owned the files before a membership
// change), writes through the router, and checks the owning shard kept its
// fresh write-through while every peer dropped the superseded chunks.
func TestRouterWriteFanoutInvalidatesPeers(t *testing.T) {
	const objects = 4
	p := newPlane(t, 3, objects, 16<<10, 4*objects)
	r := New(Options{})
	defer r.Close()
	for i, ctrl := range p.ctrls {
		if err := r.AddShard(Shard{ID: fmt.Sprintf("shard-%d", i), Ctrl: ctrl}); err != nil {
			t.Fatal(err)
		}
		// Deliberately unmasked: every shard plans and caches every file,
		// the state a shard holds right after losing ownership.
		if _, err := ctrl.PlanTimeBin(p.Lambdas); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.PrefetchCache(context.Background(), p.Local); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const fileID = 0
	var cached int
	for _, ctrl := range p.ctrls {
		if n := ctrl.Cache().ChunksForFile(fileID); n > 0 {
			cached++
		}
	}
	if cached != len(p.ctrls) {
		t.Skipf("prefetch cached file %d on %d/%d shards; capacity too small", fileID, cached, len(p.ctrls))
	}

	next := make([]byte, 16<<10)
	rand.New(rand.NewSource(33)).Read(next)
	if err := r.Write(ctx, fileID, next, p.Local); err != nil {
		t.Fatal(err)
	}

	ownerID := r.OwnerOf(fileID)
	for i, ctrl := range p.ctrls {
		id := fmt.Sprintf("shard-%d", i)
		n := ctrl.Cache().ChunksForFile(fileID)
		if id == ownerID {
			continue // owner refreshed by write-through; allocation may be 0 or more
		}
		if n != 0 {
			t.Fatalf("peer %s still caches %d chunks of the overwritten file", id, n)
		}
	}
	st := r.Stats()
	if st.InvalidationsSent != 2 || st.InvalidationsApplied != 2 || st.InvalidationErrors != 0 {
		t.Fatalf("fan-out counters: %+v", st)
	}
	if st.Fanouts != 1 || st.FanoutLatency.Count != 1 {
		t.Fatalf("fan-out latency not recorded: %+v", st)
	}

	// Every shard — owner or not — now serves the new bytes.
	for i, ctrl := range p.ctrls {
		got, err := ctrl.Read(ctx, fileID, p.Local)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("shard %d served stale bytes after fan-out", i)
		}
	}
}

// TestRouterRemoteShardsAndMembership runs shards behind TCP peer
// endpoints, routes through pooled clients, and checks a second router can
// bootstrap its view from one endpoint's membership exchange.
func TestRouterRemoteShardsAndMembership(t *testing.T) {
	const objects = 6
	p := newPlane(t, 2, objects, 16<<10, 2*objects)
	for _, ctrl := range p.ctrls {
		if _, err := ctrl.PlanTimeBin(p.Lambdas); err != nil {
			t.Fatal(err)
		}
	}
	r := New(Options{Client: transport.ClientConfig{Conns: 2}})
	defer r.Close()

	var endpoints []*PeerEndpoint
	for i, ctrl := range p.ctrls {
		ep, err := ServeShard(ctrl, p.Local, p.Local, r, "127.0.0.1:0",
			transport.ServerConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		endpoints = append(endpoints, ep)
		if err := r.AddShard(Shard{ID: fmt.Sprintf("shard-%d", i), Addr: ep.Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for f := 0; f < objects; f++ {
		got, err := r.Read(ctx, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p.payloads[f]) {
			t.Fatalf("file %d: wrong bytes over remote route", f)
		}
	}
	// A remote write commits at the owner and fans out over the wire.
	next := make([]byte, 16<<10)
	rand.New(rand.NewSource(44)).Read(next)
	if err := r.Write(ctx, 1, next, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Read(ctx, 1, nil); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("read-after-remote-write: err=%v stale=%v", err, err == nil && !bytes.Equal(got, next))
	}
	if st := r.Stats(); st.InvalidationsSent != 1 || st.InvalidationErrors != 0 {
		t.Fatalf("remote fan-out counters: %+v", st)
	}

	// Bootstrap a fresh router from the first endpoint's membership view.
	r2 := New(Options{Client: transport.ClientConfig{Conns: 1}})
	defer r2.Close()
	added, err := r2.SyncMembership(ctx, endpoints[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("SyncMembership added %d shards, want 2", added)
	}
	for f := 0; f < objects; f++ {
		if r2.OwnerOf(f) != r.OwnerOf(f) {
			t.Fatalf("file %d: bootstrapped router disagrees on owner", f)
		}
	}
	if got, err := r2.Read(ctx, 1, nil); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("bootstrapped router read: %v", err)
	}
}

// TestRouterCloseLeaksNothing is the goroutine/connection-leak gate: Close
// must drain every remote shard's connection pool, even with traffic in
// flight just before.
func TestRouterCloseLeaksNothing(t *testing.T) {
	const objects = 4
	p := newPlane(t, 2, objects, 16<<10, objects)
	for _, ctrl := range p.ctrls {
		if _, err := ctrl.PlanTimeBin(p.Lambdas); err != nil {
			t.Fatal(err)
		}
	}

	goroutinesBefore := runtime.NumGoroutine()

	r := New(Options{Client: transport.ClientConfig{Conns: 2}})
	var endpoints []*PeerEndpoint
	for i, ctrl := range p.ctrls {
		ep, err := ServeShard(ctrl, p.Local, p.Local, nil, "127.0.0.1:0",
			transport.ServerConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, ep)
		if err := r.AddShard(Shard{ID: fmt.Sprintf("shard-%d", i), Addr: ep.Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	payload := make([]byte, 16<<10)
	rand.New(rand.NewSource(55)).Read(payload)
	for f := 0; f < objects; f++ {
		if _, err := r.Read(ctx, f, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.Write(ctx, f, payload, nil); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	for _, ep := range endpoints {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever the reads and writes left running in the controllers — a
	// fetch still in flight, a background fill — is the controllers', not
	// the router's; close them now (idempotent with the cleanup) so the poll
	// below counts only router/transport leaks.
	for _, ctrl := range p.ctrls {
		_ = ctrl.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after close\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The router saw real traffic before the teardown.
	st := r.Stats()
	if st.InvalidationsSent == 0 {
		t.Fatal("leak test ran without exercising the fan-out path")
	}
}
