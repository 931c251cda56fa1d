// Package stack builds the system the paper measures, wired one way for
// every caller: an emulated OSD cluster holding one (7,4) pool with its
// objects ingested, optionally served over a loopback transport with one
// client per tenant, and Sprout controllers planned (Algorithm 1) and
// prefetched over the pool's real placement.
package stack

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/transport"
	"sprout/internal/workload"
)

const (
	// Pool names the stack's one erasure-coded pool.
	Pool = "ec"
	// codeN and codeK are the pool's (n, k) code, the paper's (7,4).
	codeN, codeK = 7, 4
	// defaultOSDs is the paper testbed's cluster size.
	defaultOSDs = 12
	// ingestWriters is how many objects ingest writes at once: enough to keep
	// twelve OSD queues busy.
	ingestWriters = 8
)

// Spec describes a stack. The code, the pool and the object names are
// fixed; a field exists only where callers need different values.
type Spec struct {
	// OSDs is the cluster size; 0 means 12.
	OSDs int
	// Service is every OSD's service-time distribution for a chunk of
	// Size/4 bytes.
	Service queue.Dist
	// Seed seeds the OSDs' service times and the ingested payloads.
	Seed int64
	// Objects objects of Size bytes are ingested as files 0..Objects-1.
	Objects, Size int

	// Listen, when set, serves the cluster over a transport server bound
	// to this address and configured by Server.
	Listen string
	Server transport.ServerConfig
	// Tenants each dial the server with one client, configured by Client
	// under the tenant's name. Needs Listen.
	Tenants []string
	Client  transport.ClientConfig
}

// Stack is a built stack. Close undoes it.
type Stack struct {
	Cluster *objstore.Cluster
	Pool    *objstore.Pool
	// Lambdas are the files' arrival rates the controllers plan for: a
	// Zipf(1.1) split of 50 requests/s, which callers may overwrite
	// before they build controllers.
	Lambdas []float64
	// Local reads and writes the pool in process.
	Local PoolIO

	// Server serves the cluster on Addr when the spec set Listen.
	Server *transport.Server
	Addr   string
	// Remote holds each tenant's fetcher; its Client is the tenant's client.
	Remote map[string]*transport.RemoteFetcher
	// Striped writes through the first tenant's client, when there is one.
	Striped *transport.StripedWriter

	spec    Spec
	clients []*transport.Client
	ctrls   []*core.Controller
}

// New builds the cluster and its pool, starts the server and dials the
// tenants' clients the spec asks for, and ingests the objects. On error
// everything it started is stopped again.
func New(ctx context.Context, spec Spec) (_ *Stack, err error) {
	if len(spec.Tenants) > 0 && spec.Listen == "" {
		return nil, errors.New("stack: tenants need a listen address")
	}
	s := &Stack{spec: spec, Lambdas: workload.Zipf(spec.Objects, 1.1, 50), Remote: map[string]*transport.RemoteFetcher{}}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	osds := spec.OSDs
	if osds == 0 {
		osds = defaultOSDs
	}
	if s.Cluster, err = objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      osds,
		Services:     []queue.Dist{spec.Service},
		RefChunkSize: int64(spec.Size / codeK),
		Seed:         spec.Seed,
	}); err != nil {
		return nil, err
	}
	if s.Pool, err = s.Cluster.CreatePool(Pool, codeN, codeK); err != nil {
		return nil, err
	}
	s.Local = PoolIO{s.Pool}

	if spec.Listen != "" {
		s.Server = transport.NewServerWithConfig(s.Cluster, spec.Server)
		if s.Addr, err = s.Server.Listen(spec.Listen); err != nil {
			return nil, err
		}
	}
	for _, tenant := range spec.Tenants {
		ccfg := spec.Client
		ccfg.Tenant = tenant
		cl, err := transport.DialConfig(s.Addr, ccfg)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
		s.Remote[tenant] = &transport.RemoteFetcher{Client: cl, Pool: Pool}
	}
	if len(s.clients) > 0 {
		if s.Striped, err = transport.NewStripedWriter(ctx, s.clients[0], Pool); err != nil {
			return nil, err
		}
	}
	if err := s.ingest(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// ingest writes every object in process, ingestWriters at a time. A
// writer stops at its first failure, and every writer at the first
// failure of any.
func (s *Stack) ingest(ctx context.Context) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, ingestWriters)
	)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, s.spec.Size)
			for f := int(next.Add(1)) - 1; f < s.spec.Objects && !failed.Load(); f = int(next.Add(1)) - 1 {
				s.fill(buf, f)
				if _, err := s.Local.WriteObject(ctx, f, buf); err != nil {
					errs[w] = fmt.Errorf("stack: ingest %s: %w", cluster.ObjectName(f), err)
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fill writes file fileID's ingested payload into buf.
func (s *Stack) fill(buf []byte, fileID int) {
	rand.New(rand.NewSource(s.spec.Seed<<20 + int64(fileID))).Read(buf)
}

// Payload returns the bytes New ingested as file fileID.
func (s *Stack) Payload(fileID int) []byte {
	buf := make([]byte, s.spec.Size)
	s.fill(buf, fileID)
	return buf
}

// NewController builds one controller over the pool's placement with room
// for capacity chunks, unplanned, for callers that plan it themselves.
// Close closes it.
func (s *Stack) NewController(capacity int, serve core.ServeOptions, seed int64) (*core.Controller, error) {
	view, err := s.Pool.ClusterView(s.Lambdas)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewControllerWith(view, capacity, optimizer.Options{}, serve, seed)
	if err != nil {
		return nil, err
	}
	s.ctrls = append(s.ctrls, ctrl)
	return ctrl, nil
}

// Controller is NewController planned for the stack's lambdas and with its
// functional cache prefetched: over the wire through the first tenant's
// client when the stack has one, in process otherwise.
func (s *Stack) Controller(ctx context.Context, capacity int, serve core.ServeOptions, seed int64) (*core.Controller, error) {
	ctrl, err := s.NewController(capacity, serve, seed)
	if err != nil {
		return nil, err
	}
	if _, err := ctrl.PlanTimeBin(s.Lambdas); err != nil {
		return nil, err
	}
	fetcher := core.ChunkFetcher(s.Local)
	if len(s.spec.Tenants) > 0 {
		fetcher = s.Remote[s.spec.Tenants[0]]
	}
	if err := ctrl.PrefetchCache(ctx, fetcher); err != nil {
		return nil, err
	}
	return ctrl, nil
}

// Close stops what the stack started, in reverse order: the controllers,
// the clients, then the server.
func (s *Stack) Close() {
	for i := len(s.ctrls) - 1; i >= 0; i-- {
		_ = s.ctrls[i].Close() // always nil
	}
	for i := len(s.clients) - 1; i >= 0; i-- {
		_ = s.clients[i].Close() // always nil
	}
	if s.Server != nil {
		_ = s.Server.Close() // always nil
	}
}

// PoolIO reads and writes a pool in process by file ID. It reports stripe
// versions both ways, so a controller's cache recognises stale chunks as it
// does over the wire. A fetched chunk is the stored one, by reference.
type PoolIO struct{ pool *objstore.Pool }

var (
	_ core.VersionedChunkFetcher = PoolIO{}
	_ core.AsyncChunkFetcher     = PoolIO{}
	_ core.ObjectWriter          = PoolIO{}
)

// StartFetches implements core.AsyncChunkFetcher: each ref's chunk read is
// placed on its OSD's timeline, and its sink is completed off that timeline —
// inline when the read fails at once or its slot has already ended. As over
// the wire, only ctx's deadline is used, so a hedge loser runs to
// completion; the node IDs and Bufs are ignored.
func (p PoolIO) StartFetches(ctx context.Context, fileID int, refs []core.FetchRef) {
	object := cluster.ObjectName(fileID)
	for _, ref := range refs {
		p.pool.ReadChunk(ctx, object, ref.ChunkIndex, ref.Sink)
	}
}

// FetchChunk reads one coded chunk; the node ID is ignored.
func (p PoolIO) FetchChunk(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	return p.pool.GetChunk(ctx, cluster.ObjectName(fileID), chunkIndex)
}

// FetchChunkV reads one coded chunk with its stripe's version and size.
func (p PoolIO) FetchChunkV(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, core.StripeInfo, error) {
	data, version, size, err := p.pool.GetChunkV(ctx, cluster.ObjectName(fileID), chunkIndex)
	if err != nil {
		return nil, core.StripeInfo{}, err
	}
	return data, core.StripeInfo{Version: version, Size: size}, nil
}

// WriteObject commits a whole-object write and returns its stripe version.
func (p PoolIO) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return p.pool.PutV(ctx, cluster.ObjectName(fileID), data)
}
