package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
)

func stripedTestServer(t *testing.T) (*objstore.Cluster, *objstore.Pool, *Client) {
	t.Helper()
	return stripedTestServerWith(t, ServerConfig{StagedPutTTL: time.Minute})
}

// stripedTestServerWith serves a (7,4) pool over 10 zero-service OSDs with
// the given server configuration.
func stripedTestServerWith(t *testing.T, cfg ServerConfig) (*objstore.Cluster, *objstore.Pool, *Client) {
	t.Helper()
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      10,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: 1 << 10,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.CreatePool("ec", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithConfig(cluster, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := DialConfig(addr, ClientConfig{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return cluster, pool, client
}

func TestStripedWriterRoundTrip(t *testing.T) {
	_, pool, client := stripedTestServer(t)
	ctx := context.Background()

	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	if writer.Code.N() != 7 || writer.Code.K() != 4 {
		t.Fatalf("PoolInfo coder (%d,%d), want (7,4)", writer.Code.N(), writer.Code.K())
	}

	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	v1, err := writer.Put(ctx, "obj", payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after striped put: err %v", err)
	}

	// Overwrite: the version advances and readers see the new bytes; the
	// chunk-read path reports the committed version and size.
	payload2 := make([]byte, 48<<10)
	rand.New(rand.NewSource(2)).Read(payload2)
	v2, err := writer.Put(ctx, "obj", payload2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("overwrite version %d not beyond %d", v2, v1)
	}
	got, err = pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, payload2) {
		t.Fatalf("get after overwrite: err %v", err)
	}
	chunk, version, size, err := client.GetChunkV(ctx, "ec", "obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != v2 || size != int64(len(payload2)) {
		t.Fatalf("GetChunkV reported v%d size %d, want v%d size %d", version, size, v2, len(payload2))
	}
	// Chunk 0 of a systematic code is the first data slice.
	chunkSize := (len(payload2) + 3) / 4
	if !bytes.Equal(chunk, payload2[:chunkSize]) {
		t.Fatal("chunk 0 does not match the new payload")
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts left after committed writes", staged)
	}
}

// TestWriteDataChunksOnlyReadsItsInput pins the DataChunkWriter ownership
// rule from the writer's side: the shared data chunks (and the caller's slice
// of them) come back untouched, and what lands in storage is what Encode
// would have produced — data chunks sent by reference, parity computed.
func TestWriteDataChunksOnlyReadsItsInput(t *testing.T) {
	_, _, client := stripedTestServer(t)
	ctx := context.Background()
	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10<<10+1)
	rand.New(rand.NewSource(7)).Read(payload)
	dataChunks, err := writer.Code.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity in the caller's slice must not be written into either.
	shared := append(make([][]byte, 0, 8), dataChunks...)
	before := make([][]byte, len(shared))
	for i, ch := range shared {
		before[i] = bytes.Clone(ch)
	}
	if _, err := writer.WriteDataChunks(ctx, 3, shared, len(payload)); err != nil {
		t.Fatal(err)
	}
	for i, ch := range shared {
		if &ch[0] != &dataChunks[i][0] || !bytes.Equal(ch, before[i]) {
			t.Fatalf("data chunk %d was replaced or written to", i)
		}
	}
	if spare := shared[:cap(shared)][len(shared)]; spare != nil {
		t.Fatal("the caller's slice was appended to in place")
	}
	want, err := writer.Code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, _, size, err := client.GetChunkV(ctx, "ec", "file-0003", i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) || size != int64(len(payload)) {
			t.Fatalf("storage chunk %d differs from Encode's (size %d)", i, size)
		}
	}
}

// TestStripedPutRecyclesParityAfterReturn overwrites objects with concurrent
// striped puts that share the recycled parity sets, while a chaos rule fails
// every chunk written to one OSD: the puts whose stripe touches it abort
// mid-stripe and the rest commit. Every object must then hold exactly
// Encode's chunks of its last committed payload. A parity set put back while
// its round trips still read it would be overwritten by another put's
// encode; under -race that is also a data race, because chunks below the
// by-reference threshold are copied into the frame by Go code.
func TestStripedPutRecyclesParityAfterReturn(t *testing.T) {
	chaos := NewChaos(9)
	_, pool, client := stripedTestServerWith(t, ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos})
	ctx := context.Background()
	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	const writers, puts = 6, 8
	rng := rand.New(rand.NewSource(10))
	// Chunks of 8 KiB go into the frame by copy, of 64 KiB by reference.
	payload := func(rng *rand.Rand, large bool) []byte {
		size := 4*(8<<10) - rng.Intn(8)
		if large {
			size = 4*(64<<10) - rng.Intn(8)
		}
		p := make([]byte, size)
		rng.Read(p)
		return p
	}
	// The chaos harness only targets chunks of objects it can place, so
	// every object exists before the rule is set and the puts overwrite.
	stored := make([][]byte, writers*puts)
	for id := range stored {
		stored[id] = payload(rng, id%2 == 1)
		if _, err := writer.Put(ctx, fmt.Sprintf("obj-%02d", id), stored[id]); err != nil {
			t.Fatal(err)
		}
	}
	chaos.SetRule(4, ChaosRule{ErrorRate: 1})
	var committed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for p := 0; p < puts; p++ {
				id := g*puts + p
				next := payload(rng, p%2 == 0)
				_, err := writer.Put(ctx, fmt.Sprintf("obj-%02d", id), next)
				switch {
				case err == nil:
					stored[id] = next
					committed.Add(1)
				case !strings.Contains(err.Error(), ErrInjected.Error()):
					t.Errorf("put %d: %v", id, err)
				}
			}
		}(g)
	}
	wg.Wait()
	chaos.ClearRule(4) // the rule fails chunk reads too
	for id, data := range stored {
		dataChunks, err := writer.Code.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := writer.Code.Encode(dataChunks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			got, _, size, err := client.GetChunkV(ctx, "ec", fmt.Sprintf("obj-%02d", id), i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) || size != int64(len(data)) {
				t.Fatalf("object %d: storage chunk %d differs from Encode's of its last committed payload", id, i)
			}
		}
	}
	if n := committed.Load(); n == 0 || n == writers*puts {
		t.Fatalf("%d of %d overwrites committed; the test needs both commits and aborts", n, writers*puts)
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts left behind", staged)
	}
	t.Logf("%d overwrites committed, %d aborted by the chaos rule", committed.Load(), writers*puts-committed.Load())
}

func TestStripedWriterAbortOnFailure(t *testing.T) {
	cluster, pool, client := stripedTestServer(t)
	ctx := context.Background()

	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	old := make([]byte, 32<<10)
	rand.New(rand.NewSource(4)).Read(old)
	if _, err := writer.Put(ctx, "obj", old); err != nil {
		t.Fatal(err)
	}

	// Take down so many OSDs that a full stripe cannot be staged: the put
	// must fail, the staged chunks must be aborted, and the old stripe must
	// stay fully readable.
	if err := cluster.FailOSDs(false, 0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	newPayload := make([]byte, 32<<10)
	rand.New(rand.NewSource(5)).Read(newPayload)
	if _, err := writer.Put(ctx, "obj", newPayload); err == nil {
		t.Fatal("striped put succeeded with only 6 of 10 OSDs alive and a 7-chunk stripe")
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts leaked by failed write", staged)
	}
	if err := cluster.RecoverOSDs(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old payload damaged by failed striped put: err %v", err)
	}
}

func TestStripedWriterDuringOSDFailure(t *testing.T) {
	cluster, pool, client := stripedTestServer(t)
	ctx := context.Background()

	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	// With two OSDs down (chunks lost), staging re-places the affected
	// chunks on live OSDs; the write succeeds and reads back intact.
	if err := cluster.FailOSDs(true, 2, 5); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40<<10)
	rand.New(rand.NewSource(6)).Read(payload)
	if _, err := writer.Put(ctx, "obj", payload); err != nil {
		t.Fatalf("striped put with 2 OSDs down: %v", err)
	}
	got, err := pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of write-during-failure: err %v", err)
	}
	locs, err := pool.ChunkLocations("obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if !loc.Alive || !loc.Present {
			t.Fatalf("chunk %d on osd %d not readable after degraded write", loc.Chunk, loc.OSD.ID)
		}
	}
}

func TestCommitUnknownVersionFails(t *testing.T) {
	_, _, client := stripedTestServer(t)
	ctx := context.Background()
	err := client.CommitObject(ctx, "ec", "ghost", 42, 1024)
	if !errors.Is(err, objstore.ErrNoStagedPut) {
		t.Fatalf("commit of unknown staged put: %v, want ErrNoStagedPut across the wire", err)
	}
}

// TestStagedJanitorAbortsAbandonedPut: a put begun and never committed — a
// client that died mid-write — is aborted by the server's janitor once it
// outlives StagedPutTTL.
func TestStagedJanitorAbortsAbandonedPut(t *testing.T) {
	_, pool, client := stripedTestServerWith(t, ServerConfig{StagedPutTTL: 20 * time.Millisecond})
	version, err := client.BeginPut(context.Background(), "ec", "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	if err := putChunk(context.Background(), client, "ec", "abandoned", version, 0, make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); pool.StagedPuts() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d staged puts left long after the TTL", pool.StagedPuts())
		}
	}
}
