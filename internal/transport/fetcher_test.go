package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

// TestControllerReadsOverNetwork wires a core.Controller to a remote object
// store through RemoteFetcher: every read fetches its storage chunks over
// the multiplexed transport and must still decode correctly, including
// degraded reads that mix cached functional chunks with remote chunks.
func TestControllerReadsOverNetwork(t *testing.T) {
	const (
		numFiles = 3
		fileSize = 300
		n, k     = 3, 2
	)
	// Remote side: an emulated object store with a (3,2) pool.
	store, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      6,
		Services:     []queue.Dist{queue.Deterministic{Value: 0.0001}},
		RefChunkSize: 256,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := store.CreatePool("files", n, k)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, numFiles)
	rng := rand.New(rand.NewSource(21))
	for i := range payloads {
		payloads[i] = make([]byte, fileSize)
		rng.Read(payloads[i])
		if _, err := pool.PutV(context.Background(), cluster.ObjectName(i), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	// Local side: a controller whose cluster description matches the remote
	// pool's code parameters.
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(1.0)}
	}
	placeRNG := rand.New(rand.NewSource(11))
	files := make([]cluster.File, numFiles)
	for i := range files {
		placement, err := cluster.RandomPlacement(placeRNG, len(nodes), n)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = cluster.File{
			ID: i, Name: fmt.Sprintf("f%d", i), SizeBytes: fileSize,
			K: k, N: n, Placement: placement, Lambda: 0.2,
		}
	}
	clu := &cluster.Cluster{Nodes: nodes, Files: files}
	ctrl, err := core.NewController(clu, 6, optimizer.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.PlanTimeBin([]float64{0.2, 0.2, 0.2}); err != nil {
		t.Fatal(err)
	}

	fetcher := &RemoteFetcher{Client: client, Pool: "files"}
	ctx := context.Background()
	for fileID := 0; fileID < numFiles; fileID++ {
		got, err := ctrl.Read(ctx, fileID, fetcher)
		if err != nil {
			t.Fatalf("Read(file %d) over network: %v", fileID, err)
		}
		if !bytes.Equal(got, payloads[fileID]) {
			t.Fatalf("file %d decoded wrong over network", fileID)
		}
	}
	// Prefetch materialises functional cache chunks from remote data, then
	// reads combine cache + network chunks.
	if err := ctrl.PrefetchCache(ctx, fetcher); err != nil {
		t.Fatal(err)
	}
	for fileID := 0; fileID < numFiles; fileID++ {
		got, err := ctrl.Read(ctx, fileID, fetcher)
		if err != nil {
			t.Fatalf("cached Read(file %d): %v", fileID, err)
		}
		if !bytes.Equal(got, payloads[fileID]) {
			t.Fatalf("file %d decoded wrong with cache + network", fileID)
		}
	}
	if ctrl.Stats().Reads != 2*numFiles {
		t.Fatalf("controller stats = %+v", ctrl.Stats())
	}
	if client.Stats().Requests == 0 {
		t.Fatal("no requests went over the network")
	}
}

// TestRemoteFetcherErrorMapping checks that sentinel errors survive the
// fetcher's wrapping.
func TestRemoteFetcherErrorMapping(t *testing.T) {
	_, client, _ := startServer(t)
	f := &RemoteFetcher{Client: client, Pool: "data"}
	_, err := f.FetchChunk(context.Background(), 0, 0, 0)
	if err == nil {
		t.Fatal("expected error for missing object")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("file-0000")) {
		t.Fatalf("fetch error should name the object: %v", err)
	}
}
