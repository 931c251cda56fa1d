package e2e

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/router"
	"sprout/internal/transport"
)

// TestChaosCrossShardCoherence is the sharded-plane sibling of
// scenarioOverwriteUnderLoad: several shard controllers over ONE storage
// pool, all warmed over the full namespace (the adversarial setup — every
// shard holds cache for files it does not own), a writer overwriting the
// hot file through the router while readers hammer every file through the
// router's ownership routing. Membership churns mid-run: a freshly-synced
// shard joins and an original shard leaves, moving ownership under the
// readers. Every hot read must return a complete committed cut — the
// versioned invalidation fan-out is what keeps a peer's warm cache from
// serving torn or stale stripes once ownership lands on it.
func TestChaosCrossShardCoherence(t *testing.T) {
	ctx := context.Background()
	wired := newStack(t, e2eSpec(transport.ServerConfig{StagedPutTTL: time.Minute}, transport.ClientConfig{Conns: 3}))
	fetcher, writer := wired.Remote[""], wired.Striped
	payloads := make([][]byte, e2eObjects)
	for i := range payloads {
		payloads[i] = wired.Payload(i)
	}

	// newShardCtrl builds one controller over the shared pool, planned and
	// prefetched over the FULL namespace — deliberately not lambda-masked,
	// so every shard caches content it does not currently own and only the
	// invalidation protocol keeps that cache safe to serve after a
	// membership change hands the file to it.
	newShardCtrl := func() *core.Controller {
		ctrl, err := wired.Controller(ctx, 2*e2eObjects, core.ServeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}

	r := router.New(router.Options{})
	t.Cleanup(func() { _ = r.Close() })
	var ctrls []*core.Controller
	for i := 0; i < 3; i++ {
		ctrl := newShardCtrl()
		ctrls = append(ctrls, ctrl)
		if err := r.AddShard(router.Shard{ID: fmt.Sprintf("shard-%d", i), Ctrl: ctrl}); err != nil {
			t.Fatal(err)
		}
	}

	const hot = 0
	cuts := [][]byte{payloads[hot]}
	var cutMu sync.Mutex
	allowedCuts := func() [][]byte {
		cutMu.Lock()
		defer cutMu.Unlock()
		return append([][]byte(nil), cuts...)
	}
	readAndCheck := func(fileID int, allowed [][]byte) error {
		got, err := r.Read(ctx, fileID, fetcher)
		if err != nil {
			return fmt.Errorf("routed read of file %d: %w", fileID, err)
		}
		for _, want := range allowed {
			if bytes.Equal(got, want) {
				return nil
			}
		}
		return fmt.Errorf("routed read of file %d: bytes match none of the %d allowed payloads (stale or torn stripe)", fileID, len(allowed))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := rdr; !stop.Load(); i++ {
				fileID := i % e2eObjects
				allowed := [][]byte{payloads[fileID]}
				if fileID == hot {
					allowed = allowedCuts()
				}
				if err := readAndCheck(fileID, allowed); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", rdr, err)
					return
				}
			}
		}(rdr)
	}

	// The writer runs on the main goroutine so membership changes happen at
	// committed-write boundaries: a joining shard syncs its cache from the
	// storage plane while no write is in flight, then receives every later
	// invalidation. (A join racing an uncommitted write is an anti-entropy
	// problem the membership protocol does not claim to solve.)
	overwrite := func(i int) []byte {
		cut := make([]byte, e2eSize)
		for j := range cut {
			cut[j] = byte(i+1) ^ byte(j*5)
		}
		cutMu.Lock()
		cuts = append(cuts, cut)
		cutMu.Unlock()
		if err := r.Write(ctx, hot, cut, writer); err != nil {
			t.Fatalf("overwrite %d through router: %v", i, err)
		}
		return cut
	}
	var last []byte
	for i := 0; i < 4; i++ {
		last = overwrite(i)
	}
	// Join: a fourth shard syncs from the current committed state, then
	// starts owning its slice of the ring; readers cross into it live.
	joined := newShardCtrl()
	ctrls = append(ctrls, joined)
	if err := r.AddShard(router.Shard{ID: "shard-3", Ctrl: joined}); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 7; i++ {
		last = overwrite(i)
	}
	// Leave: an original shard departs; its files fall to peers whose warm
	// caches have been kept coherent by the fan-out all along.
	if err := r.RemoveShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	for i := 7; i < 10; i++ {
		last = overwrite(i)
	}

	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	for _, ctrl := range ctrls {
		ctrl.WaitFills()
	}
	if err := readAndCheck(hot, [][]byte{last}); err != nil {
		t.Fatalf("after quiesce: %v", err)
	}
	for fileID := 1; fileID < e2eObjects; fileID++ {
		if err := readAndCheck(fileID, [][]byte{payloads[fileID]}); err != nil {
			t.Fatal(err)
		}
	}

	st := r.Stats()
	if st.InvalidationErrors != 0 {
		t.Fatalf("%d invalidation deliveries failed", st.InvalidationErrors)
	}
	// 10 writes × (shards-1) peers at each write's membership: 4×2 + 3×3 + 3×2.
	if want := int64(4*2 + 3*3 + 3*2); st.InvalidationsSent != want {
		t.Fatalf("invalidations sent = %d, want %d", st.InvalidationsSent, want)
	}
	var applied int64
	for _, ctrl := range ctrls {
		applied += ctrl.Stats().InvalidationsApplied
	}
	if applied == 0 {
		t.Fatal("no peer ever applied an invalidation — the fan-out never reached a warm cache")
	}
	shardsWithReads := 0
	for _, s := range st.Shards {
		if s.Reads > 0 {
			shardsWithReads++
		}
	}
	if shardsWithReads < 2 {
		t.Fatalf("reads landed on %d shards; the scenario is only cross-shard if several serve", shardsWithReads)
	}
}
