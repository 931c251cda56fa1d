// Example cephcluster runs the emulated Ceph-like object store over TCP: it
// starts a storage server, creates the (7, 4-d) equivalent-code pools the
// paper's prototype uses, writes a working set through the client's striped
// writer, and compares read latency through the LRU cache tier against
// functional caching with different numbers of cached chunks.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
	"sprout/internal/transport"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, out io.Writer) error {
	const (
		objectSize = 512 << 10
		numObjects = 12
	)
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:            12,
		Services:           []queue.Dist{queue.ShiftedExponential{Shift: 0.004, Rate: 250}},
		RefChunkSize:       objectSize / 4,
		CacheService:       queue.Deterministic{Value: 0.0008},
		CacheCapacityBytes: numObjects * objectSize / 2,
		Seed:               11,
	})
	if err != nil {
		return err
	}
	base, err := cluster.CreatePool("ec-7-4", 7, 4)
	if err != nil {
		return err
	}
	pools, err := cluster.CreateEquivalentPools("eq", 7, 4)
	if err != nil {
		return err
	}

	// Serve the store over TCP and write through the client, so the whole
	// network + client-side encode path is exercised.
	srv := transport.NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	// The pooled client multiplexes each stripe's chunk writes over two
	// connections.
	client, err := transport.DialConfig(addr, transport.ClientConfig{
		Conns:       2,
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	fmt.Fprintf(out, "object store serving on %s\n", addr)

	// One striped writer per pool: each asks its pool for (n, k), encodes
	// locally, and commits the n chunks in a two-phase put.
	baseWriter, err := transport.NewStripedWriter(ctx, client, base.Name)
	if err != nil {
		return err
	}
	eqWriters := make([]*transport.StripedWriter, len(pools))
	for d, pool := range pools {
		if eqWriters[d], err = transport.NewStripedWriter(ctx, client, pool.Name); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, objectSize)
	for i := 0; i < numObjects; i++ {
		rng.Read(payload)
		name := fmt.Sprintf("video-%02d", i)
		if _, err := baseWriter.Put(ctx, name, payload); err != nil {
			return err
		}
		// Equivalent-code methodology (Section V-C of the paper): with d
		// chunks in cache, a read is equivalent to fetching only the
		// remaining (4-d)/4 of the object from a (7, 4-d) pool with the same
		// chunk size, so each eq-d pool stores that prefix of the object.
		for d, w := range eqWriters {
			if _, err := w.Put(ctx, name, payload[:objectSize*(4-d)/4]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "wrote %d objects of %d KiB through the striped TCP writers\n", numObjects, objectSize>>10)

	// Read latency through the LRU cache tier (first cold, then warm).
	meanLRU := func() (time.Duration, error) {
		var total time.Duration
		for i := 0; i < numObjects; i++ {
			_, lat, err := cluster.ReadThroughLRU(ctx, base, fmt.Sprintf("video-%02d", i))
			if err != nil {
				return 0, err
			}
			total += lat
		}
		return total / numObjects, nil
	}
	cold, err := meanLRU()
	if err != nil {
		return err
	}
	warm, err := meanLRU()
	if err != nil {
		return err
	}

	// Functional caching: read through the equivalent (7, 4-d) pools.
	for _, d := range []int{0, 1, 2, 3} {
		var total time.Duration
		for i := 0; i < numObjects; i++ {
			_, lat, err := cluster.ReadFunctional(ctx, pools, fmt.Sprintf("video-%02d", i), d, 4, objectSize)
			if err != nil {
				return err
			}
			total += lat
		}
		fmt.Fprintf(out, "functional caching d=%d: mean read latency %v\n", d, total/numObjects)
	}
	fmt.Fprintf(out, "LRU cache tier:         cold %v, warm %v\n", cold, warm)
	hits, misses, evictions := cluster.CacheTier().Stats()
	fmt.Fprintf(out, "LRU tier stats: %d hits, %d misses, %d evictions\n", hits, misses, evictions)
	cs, ss := client.Stats(), srv.Stats()
	fmt.Fprintf(out, "client transport stats: %d frames / %d KiB sent, %d frames / %d KiB received, %d conns, %d retries\n",
		cs.FramesSent, cs.BytesSent>>10, cs.FramesReceived, cs.BytesReceived>>10,
		cs.ConnsOpened, cs.Retries)
	fmt.Fprintf(out, "server transport stats: %d requests, %d overload rejections, %d decode errors\n",
		ss.Requests, ss.OverloadRejections, ss.DecodeErrors)
	return nil
}
