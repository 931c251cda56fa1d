package objstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sprout/internal/cache"
	"sprout/internal/queue"
	"sprout/internal/resilience"
)

// ClusterConfig describes an emulated Ceph cluster.
type ClusterConfig struct {
	// NumOSDs is the number of OSDs backing the storage tier.
	NumOSDs int
	// Service distributions per OSD (cycled if shorter than NumOSDs); these
	// model the HDD-backed storage tier (Table IV).
	Services []queue.Dist
	// RefChunkSize is the chunk size (bytes) the service distributions were
	// calibrated for; service times scale linearly with chunk size.
	RefChunkSize int64
	// CacheService models SSD cache-tier reads (Table V). Nil means
	// instantaneous cache reads.
	CacheService queue.Dist
	// CacheCapacityBytes is the cache-tier capacity for the LRU baseline and
	// the chunk budget (divided by chunk size) for functional caching.
	CacheCapacityBytes int64
	// Seed seeds the OSD service-time generators.
	Seed int64
}

// Cluster is an emulated Ceph cluster: a set of OSDs shared by one or more
// erasure-coded pools, plus an optional cache tier.
type Cluster struct {
	cfg  ClusterConfig
	osds []*OSD

	pools map[string]*Pool

	// cacheTier is the replicated LRU write-back cache tier baseline.
	cacheTier *cache.LRU
}

// NewCluster builds the emulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumOSDs <= 0 {
		return nil, errors.New("objstore: cluster needs at least one OSD")
	}
	if len(cfg.Services) == 0 {
		return nil, errors.New("objstore: cluster needs service distributions")
	}
	if cfg.RefChunkSize <= 0 {
		cfg.RefChunkSize = 1 << 20
	}
	osds := make([]*OSD, cfg.NumOSDs)
	for i := range osds {
		osds[i] = NewOSD(i, cfg.Services[i%len(cfg.Services)], cfg.RefChunkSize, cfg.Seed+int64(i)*7919)
	}
	c := &Cluster{
		cfg:   cfg,
		osds:  osds,
		pools: make(map[string]*Pool),
	}
	if cfg.CacheCapacityBytes > 0 {
		c.cacheTier = cache.NewLRU(cfg.CacheCapacityBytes)
	}
	return c, nil
}

// OSDs returns the cluster's OSDs.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// CreatePool creates an erasure-coded pool backed by all OSDs.
func (c *Cluster) CreatePool(name string, n, k int) (*Pool, error) {
	if _, exists := c.pools[name]; exists {
		return nil, fmt.Errorf("objstore: pool %q already exists", name)
	}
	p, err := NewPool(name, n, k, c.osds, 0)
	if err != nil {
		return nil, err
	}
	if c.cacheTier != nil {
		// An overwrite must never leave the previous object bytes in the LRU
		// cache tier: invalidate on every committed put.
		p.OnCommit(c.cacheTier.Remove)
	}
	c.pools[name] = p
	return p, nil
}

// Pool returns a pool by name.
func (c *Cluster) Pool(name string) (*Pool, error) {
	p, ok := c.pools[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPoolNotFound, name)
	}
	return p, nil
}

// PoolNames returns the names of all pools, sorted.
func (c *Cluster) PoolNames() []string {
	names := make([]string, 0, len(c.pools))
	for name := range c.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CreateEquivalentPools creates the pools (n, k-d) for d = 0..k used to
// emulate functional caching with d chunks in cache, following the
// methodology of Section V-C. Pool names are prefix-d. The (n, 0) pool is
// represented by d = k and means "served entirely from cache"; it is not
// created as a storage pool.
func (c *Cluster) CreateEquivalentPools(prefix string, n, k int) (map[int]*Pool, error) {
	pools := make(map[int]*Pool, k)
	for d := 0; d < k; d++ {
		name := fmt.Sprintf("%s-%d", prefix, d)
		p, err := c.CreatePool(name, n, k-d)
		if err != nil {
			return nil, err
		}
		pools[d] = p
	}
	return pools, nil
}

// cacheRead simulates an SSD cache-tier read of size bytes and returns its
// latency.
func (c *Cluster) cacheRead(ctx context.Context, size int64) (time.Duration, error) {
	if c.cfg.CacheService == nil {
		return 0, ctx.Err()
	}
	// A single shared generator is enough here: cache reads are not a
	// queueing bottleneck in the paper's setup.
	d := time.Duration(queue.Scaled{Base: c.cfg.CacheService, Factor: float64(size) / float64(c.cfg.RefChunkSize)}.Mean() * float64(time.Second))
	return d, resilience.Sleep(ctx, d)
}

// ReadThroughLRU reads an object with the Ceph cache-tier baseline: on a
// cache hit the whole object is served from the (replicated, SSD-backed)
// cache tier; on a miss it is promoted from the erasure-coded storage pool
// into the LRU tier and served. It returns the object payload and the
// end-to-end latency.
func (c *Cluster) ReadThroughLRU(ctx context.Context, pool *Pool, object string) ([]byte, time.Duration, error) {
	start := time.Now()
	if c.cacheTier != nil {
		if data, ok := c.cacheTier.Get(object); ok {
			if _, err := c.cacheRead(ctx, int64(len(data))); err != nil {
				return nil, 0, err
			}
			return data, time.Since(start), nil
		}
	}
	data, err := pool.Get(ctx, object)
	if err != nil {
		return nil, 0, err
	}
	if c.cacheTier != nil {
		// Write-back promotion; eviction is handled by the LRU itself.
		if err := c.cacheTier.Put(object, data); err != nil && !errors.Is(err, cache.ErrTooLarge) {
			return nil, 0, err
		}
	}
	return data, time.Since(start), nil
}

// ReadFunctional reads an object under functional caching with d chunks in
// cache: the read is served from the equivalent (n, k-d) pool (d == k means
// the object is entirely in cache and only cache latency applies). Following
// the paper's equivalent-code methodology, writers are expected to store in
// pool d only the (k-d)/k portion of the object that must still come from
// storage, so chunk sizes match the original (n, k) pool. It returns the
// payload read from storage and the end-to-end latency.
func (c *Cluster) ReadFunctional(ctx context.Context, pools map[int]*Pool, object string, d, k int, objectSize int64) ([]byte, time.Duration, error) {
	start := time.Now()
	if d >= k {
		// Entire object in cache: only the SSD read latency applies.
		if _, err := c.cacheRead(ctx, objectSize); err != nil {
			return nil, 0, err
		}
		return nil, time.Since(start), nil
	}
	pool, ok := pools[d]
	if !ok {
		return nil, 0, fmt.Errorf("%w: equivalent pool for d=%d", ErrPoolNotFound, d)
	}
	data, err := pool.Get(ctx, object)
	if err != nil {
		return nil, 0, err
	}
	// Cached chunks are read in parallel with the storage chunks; their
	// latency is dominated by the storage reads (Table V vs Table IV), so it
	// does not add to the critical path.
	return data, time.Since(start), nil
}

// CacheTier exposes the LRU cache tier (nil when no cache is configured).
func (c *Cluster) CacheTier() *cache.LRU { return c.cacheTier }
