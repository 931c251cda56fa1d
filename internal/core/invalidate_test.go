package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestInvalidateVersionLateAndDuplicateNoOps pins the idempotence contract
// of the peer-invalidation protocol: an invalidation at or below the
// locally-known stripe version is a no-op, so at-least-once delivery and
// arbitrary reordering across shards cannot regress a file's state.
func TestInvalidateVersionLateAndDuplicateNoOps(t *testing.T) {
	ctrl, _, _, writer, _ := writeTestController(t, 2, 32<<10, 8)
	ctx := context.Background()

	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	version, err := ctrl.WriteVersion(ctx, 0, payload, writer)
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 {
		t.Fatal("pool-backed write returned version 0")
	}

	// The write-through recorded `version`; an invalidation at that exact
	// version is a duplicate of the commit the controller already applied.
	if applied, err := ctrl.InvalidateVersion(0, version, len(payload)); err != nil || applied {
		t.Fatalf("same-version invalidation: applied=%v err=%v, want no-op", applied, err)
	}
	// A late message for an older stripe must also be dropped.
	if applied, err := ctrl.InvalidateVersion(0, version-1, len(payload)); err != nil || applied {
		t.Fatalf("older-version invalidation: applied=%v err=%v, want no-op", applied, err)
	}
	// A genuinely newer version applies...
	if applied, err := ctrl.InvalidateVersion(0, version+1, len(payload)); err != nil || !applied {
		t.Fatalf("newer-version invalidation: applied=%v err=%v, want applied", applied, err)
	}
	// ...and its redelivery (at-least-once) is again a no-op.
	if applied, err := ctrl.InvalidateVersion(0, version+1, len(payload)); err != nil || applied {
		t.Fatalf("duplicate invalidation: applied=%v err=%v, want no-op", applied, err)
	}

	if _, err := ctrl.InvalidateVersion(0, 0, 0); err == nil {
		t.Fatal("version-0 invalidation accepted")
	}
	if _, err := ctrl.InvalidateVersion(99, 1, 0); err == nil {
		t.Fatal("out-of-range file accepted")
	}

	s := ctrl.Stats()
	if s.InvalidationsApplied != 1 || s.InvalidationsStale != 3 {
		t.Fatalf("invalidation counters applied=%d stale=%d, want 1/3",
			s.InvalidationsApplied, s.InvalidationsStale)
	}
}

// TestInvalidateVersionDropsCacheOnlyWhenNewer checks the cache side: a
// stale invalidation leaves the write-through chunks untouched, while a
// newer one evicts them, and the next read serves the storage plane's
// current bytes.
func TestInvalidateVersionDropsCacheOnlyWhenNewer(t *testing.T) {
	ctrl, pool, fetcher, writer, _ := writeTestController(t, 2, 32<<10, 8)
	ctx := context.Background()

	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(12)).Read(payload)
	version, err := ctrl.WriteVersion(ctx, 0, payload, writer)
	if err != nil {
		t.Fatal(err)
	}
	cached := ctrl.Cache().ChunksForFile(0)
	if cached == 0 {
		t.Fatal("write-through installed no cache chunks; widen capacity for this test")
	}

	if applied, _ := ctrl.InvalidateVersion(0, version, len(payload)); applied {
		t.Fatal("stale invalidation applied")
	}
	if got := ctrl.Cache().ChunksForFile(0); got != cached {
		t.Fatalf("stale invalidation evicted chunks: %d -> %d", cached, got)
	}

	// A peer shard commits the next stripe directly through the pool, then
	// its invalidation arrives.
	next := make([]byte, 32<<10)
	rand.New(rand.NewSource(13)).Read(next)
	if _, err := pool.PutV(ctx, "file-0000", next); err != nil {
		t.Fatal(err)
	}
	if applied, _ := ctrl.InvalidateVersion(0, version+1, len(next)); !applied {
		t.Fatal("newer invalidation not applied")
	}
	if got := ctrl.Cache().ChunksForFile(0); got != 0 {
		t.Fatalf("newer invalidation left %d cached chunks", got)
	}
	got, err := ctrl.Read(ctx, 0, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("read after invalidation did not serve the new stripe")
	}
}
