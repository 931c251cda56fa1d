package transport

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// fakePeer is an in-memory PeerOps: one "file" whose version only moves
// forward, mirroring the controller's invalidation semantics.
type fakePeer struct {
	data    atomic.Pointer[[]byte]
	version atomic.Uint64
	applied atomic.Int64
	stale   atomic.Int64
}

func (p *fakePeer) PeerRead(_ context.Context, fileID int) ([]byte, error) {
	if fileID != 0 {
		return nil, errors.New("unknown file")
	}
	d := p.data.Load()
	if d == nil {
		return nil, errors.New("no data")
	}
	return *d, nil
}

func (p *fakePeer) PeerWrite(_ context.Context, fileID int, data []byte) (uint64, error) {
	if fileID != 0 {
		return 0, errors.New("unknown file")
	}
	cp := bytes.Clone(data)
	p.data.Store(&cp)
	return p.version.Add(1), nil
}

func (p *fakePeer) PeerInvalidate(_ int, version uint64, _ int) (bool, error) {
	for {
		cur := p.version.Load()
		if version <= cur {
			p.stale.Add(1)
			return false, nil
		}
		if p.version.CompareAndSwap(cur, version) {
			p.applied.Add(1)
			return true, nil
		}
	}
}

func (p *fakePeer) PeerMembership() (uint64, []string) {
	return 7, []string{"shard-0", "127.0.0.1:1", "shard-1", "127.0.0.1:2"}
}

// TestPeerOpsRoundTrip drives the controller op set end to end over TCP
// against a peer-only server (no object-store cluster attached).
func TestPeerOpsRoundTrip(t *testing.T) {
	peer := &fakePeer{}
	srv := NewServerWithConfig(nil, ServerConfig{Workers: 2, Peer: peer})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	payload := []byte("sharded metadata plane")
	version, err := cli.CtrlWrite(ctx, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("CtrlWrite version = %d, want 1", version)
	}
	got, err := cli.CtrlRead(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("CtrlRead = %q, want %q", got, payload)
	}

	// A newer invalidation applies; the same one redelivered is a no-op;
	// an older one is dropped.
	if applied, err := cli.Invalidate(ctx, 0, version+1, len(payload)); err != nil || !applied {
		t.Fatalf("newer invalidation: applied=%v err=%v", applied, err)
	}
	if applied, err := cli.Invalidate(ctx, 0, version+1, len(payload)); err != nil || applied {
		t.Fatalf("duplicate invalidation: applied=%v err=%v", applied, err)
	}
	if applied, err := cli.Invalidate(ctx, 0, version, len(payload)); err != nil || applied {
		t.Fatalf("late invalidation: applied=%v err=%v", applied, err)
	}
	if a, s := peer.applied.Load(), peer.stale.Load(); a != 1 || s != 2 {
		t.Fatalf("peer saw applied=%d stale=%d, want 1/2", a, s)
	}

	ringVersion, members, err := cli.ShardMembership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ringVersion != 7 || len(members) != 4 || members[0] != "shard-0" {
		t.Fatalf("membership = v%d %v", ringVersion, members)
	}

	// Routed errors surface as errors, not as torn frames.
	if _, err := cli.CtrlRead(ctx, 42); err == nil {
		t.Fatal("CtrlRead of unknown file succeeded")
	}

	// Storage ops on a peer-only endpoint fail cleanly.
	if _, _, err := cli.GetChunk(ctx, "ec", "obj", 0); err == nil {
		t.Fatal("storage op served without a cluster attached")
	}
}

// TestPeerOpsWithoutHandler checks a storage-only server rejects controller
// ops instead of crashing.
func TestPeerOpsWithoutHandler(t *testing.T) {
	srv := NewServerWithConfig(nil, ServerConfig{Workers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.CtrlRead(context.Background(), 0); err == nil {
		t.Fatal("controller op served without a Peer handler")
	}
}
