package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/repair"
	"sprout/internal/resilience"
	"sprout/internal/transport"
	"sprout/internal/workload"
)

// ingestWriters is how many objects set-up writes at once; enough to keep
// the twelve OSD queues busy without tripping the server's in-flight bound
// (8 objects × 7 chunks).
const ingestWriters = 8

// stack is the real system wired in one process over loopback TCP:
// objstore.Cluster → transport.Server → transport.Client with its
// RemoteFetcher and StripedWriter → core.Controller.
type stack struct {
	wl       workloadSpec
	lambdas  []float64
	cluster  *objstore.Cluster
	pool     *objstore.Pool
	chaos    *transport.Chaos
	srv      *transport.Server
	client   *transport.Client
	fetcher  *transport.RemoteFetcher
	writer   *transport.StripedWriter
	breakers *resilience.BreakerSet
	ctrl     *core.Controller
	repair   *repair.Manager
}

func objectName(fileID int) string { return fmt.Sprintf("file-%04d", fileID) }

// setUp builds the stack, ingests every object at seq 0, plans the time bin
// and fills the functional cache. It returns once the first warm-up
// operation could be issued.
func setUp(ctx context.Context, wl workloadSpec, seed int64, or *oracle) (st *stack, err error) {
	st = &stack{wl: wl, lambdas: workload.Zipf(wl.files, zipfExponent, wl.rate)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()

	st.cluster, err = objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      numOSDs,
		Services:     wl.services(),
		RefChunkSize: int64(wl.size / codeK),
		Seed:         seed,
	})
	if err != nil {
		return st, err
	}
	if st.pool, err = st.cluster.CreatePool(poolName, codeN, codeK); err != nil {
		return st, err
	}
	scfg := transport.ServerConfig{Workers: serverWorkers, MaxInFlight: serverInFlight}
	if wl.degraded {
		st.chaos = transport.NewChaos(seed)
		scfg.Chaos = st.chaos
	}
	st.srv = transport.NewServerWithConfig(st.cluster, scfg)
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	if st.client, err = transport.DialConfig(addr, transport.ClientConfig{Conns: clientConns}); err != nil {
		return st, err
	}
	if st.writer, err = transport.NewStripedWriter(ctx, st.client, poolName); err != nil {
		return st, err
	}
	st.fetcher = &transport.RemoteFetcher{Client: st.client, Pool: poolName}

	if err = st.ingest(ctx, or); err != nil {
		return st, err
	}

	view, err := st.pool.ClusterView(st.lambdas)
	if err != nil {
		return st, err
	}
	var serve core.ServeOptions
	if wl.degraded {
		st.breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
			ErrorThreshold:   3,
			LatencyThreshold: 25 * time.Millisecond,
			OpenFor:          500 * time.Millisecond,
		})
		serve = core.ServeOptions{HedgeDelay: 30 * time.Millisecond, HedgeExtra: 1, Breakers: st.breakers}
	}
	if st.ctrl, err = core.NewControllerWith(view, wl.cacheChunks, optimizer.Options{}, serve, seed); err != nil {
		return st, err
	}
	if _, err = st.ctrl.PlanTimeBin(st.lambdas); err != nil {
		return st, err
	}
	if err = st.ctrl.PrefetchCache(ctx, st.fetcher); err != nil {
		return st, err
	}
	st.ctrl.WaitFills()
	if wl.degraded {
		st.repair = repair.NewManager(st.pool, repair.Config{Workers: 2, ScanInterval: 200 * time.Millisecond})
		st.repair.Start()
	}
	return st, nil
}

// ingest writes every object at seq 0 through the striped writer.
func (st *stack) ingest(ctx context.Context, or *oracle) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	files := make(chan int)
	errs := make(chan error, ingestWriters)
	var wg sync.WaitGroup
	for w := 0; w < ingestWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, st.wl.size)
			for f := range files {
				or.stamp(buf, f, 0)
				if _, err := st.writer.Put(ctx, objectName(f), buf); err != nil {
					errs <- fmt.Errorf("ingest %s: %w", objectName(f), err)
					cancel()
					return
				}
			}
		}()
	}
feed:
	for f := 0; f < st.wl.files; f++ {
		select {
		case files <- f:
		case <-ctx.Done():
			break feed
		}
	}
	close(files)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// injectFaults is the degraded-read fault set: OSD 5 is lost with its
// chunks, OSD 0 answers 60 ms late, and the repair plane is kicked.
func (st *stack) injectFaults() error {
	if err := st.cluster.FailOSDs(true, 5); err != nil {
		return err
	}
	st.ctrl.SetNodeDown(5)
	st.chaos.SetRule(0, transport.ChaosRule{Latency: 60 * time.Millisecond})
	st.repair.Kick()
	return nil
}

// close stops every goroutine the stack started and waits for them.
func (st *stack) close() {
	if st.repair != nil {
		st.repair.Close()
	}
	if st.ctrl != nil {
		_ = st.ctrl.Close() // nothing is left to flush; the error is always nil
	}
	if st.client != nil {
		_ = st.client.Close() // read-only from here on
	}
	if st.srv != nil {
		_ = st.srv.Close()
	}
}
