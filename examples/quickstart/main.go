// Example quickstart shows the core Sprout workflow in a few dozen lines:
// build a small cluster, encode files, compute a cache plan for the current
// workload, and read files back through the functional cache.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sprout"
)

// memStore is a minimal in-memory ChunkFetcher used as the "storage nodes"
// in this example.
type memStore map[int]map[int][]byte

func (m memStore) FetchChunk(_ context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	chunk, ok := m[fileID][chunkIndex]
	if !ok {
		return nil, fmt.Errorf("missing chunk %d of file %d", chunkIndex, fileID)
	}
	return chunk, nil
}

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, out io.Writer) error {
	// 1. Describe a cluster: 6 storage nodes, 10 files, (5,3) erasure code.
	cfg := sprout.ClusterConfig{
		NumNodes:     6,
		NumFiles:     10,
		N:            5,
		K:            3,
		FileSize:     3 * 1024,
		ServiceRates: []float64{1.0, 1.0, 0.8, 0.8, 0.5, 0.5},
		ArrivalRates: []float64{0.12, 0.02},
		Seed:         42,
	}
	clu, err := cfg.Build()
	if err != nil {
		return err
	}

	// 2. Build a controller with a cache of 8 functional chunks.
	ctrl, err := sprout.NewController(clu, 8, sprout.OptimizerOptions{}, 1)
	if err != nil {
		return err
	}
	defer ctrl.Close()

	// 3. Encode file contents onto the (in-memory) storage nodes.
	store := memStore{}
	originals := map[int][]byte{}
	rng := rand.New(rand.NewSource(7))
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rng.Read(payload)
		originals[meta.ID] = payload
		dataChunks, err := meta.Code.Split(payload)
		if err != nil {
			return err
		}
		coded, err := meta.Code.Encode(dataChunks)
		if err != nil {
			return err
		}
		store[meta.ID] = map[int][]byte{}
		for i, ch := range coded {
			store[meta.ID][i] = ch
		}
	}

	// 4. Plan the cache for the current arrival rates (one "time bin").
	plan, err := ctrl.PlanTimeBin(clu.Lambdas())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "latency bound: %.3f s, cache chunks used: %d / 8\n", plan.Objective, plan.CacheUsed())
	fmt.Fprintf(out, "cache allocation per file: %v\n", plan.D)

	// 5. Read every file twice: the first read enqueues background fills of
	// the planned functional chunks, the second read uses them. WaitFills
	// drains the background materialisation pool so the second pass sees a
	// warm cache.
	for pass := 1; pass <= 2; pass++ {
		for fileID, want := range originals {
			got, err := ctrl.Read(ctx, fileID, store)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("file %d content mismatch", fileID)
			}
		}
		ctrl.WaitFills()
		stats := ctrl.Stats()
		fmt.Fprintf(out, "after pass %d: reads=%d chunks from cache=%d, from storage=%d\n",
			pass, stats.Reads, stats.ChunksFromCache, stats.ChunksFromDisk)
	}
	return nil
}
