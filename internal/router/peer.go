package router

import (
	"context"
	"fmt"

	"sprout/internal/core"
	"sprout/internal/ring"
	"sprout/internal/transport"
)

// MembershipSource supplies the ring view a shard endpoint hands out in
// membership exchanges. *Router implements it.
type MembershipSource interface {
	Membership() (version uint64, pairs []string)
}

// peerOps adapts one shard controller to the transport's controller op
// set: routed reads and writes use the shard's own storage fetcher/writer,
// and invalidations go straight to the versioned control-plane path.
type peerOps struct {
	ctrl       *core.Controller
	fetcher    core.ChunkFetcher
	writer     core.ObjectWriter
	membership MembershipSource
}

func (p *peerOps) PeerRead(ctx context.Context, fileID int) ([]byte, error) {
	return p.ctrl.Read(ctx, fileID, p.fetcher)
}

func (p *peerOps) PeerWrite(ctx context.Context, fileID int, data []byte) (uint64, error) {
	if p.writer == nil {
		return 0, fmt.Errorf("router: shard has no object writer; file %d is read-only here", fileID)
	}
	return p.ctrl.WriteVersion(ctx, fileID, data, p.writer)
}

func (p *peerOps) PeerInvalidate(fileID int, version uint64, size int) (bool, error) {
	return p.ctrl.InvalidateVersion(fileID, version, size)
}

func (p *peerOps) PeerMembership() (uint64, []string) {
	if p.membership == nil {
		return 0, nil
	}
	return p.membership.Membership()
}

// PeerEndpoint is a running TCP endpoint exposing one shard controller to
// the router and its peer shards.
type PeerEndpoint struct {
	srv  *transport.Server
	addr string
}

// ServeShard exposes ctrl at listenAddr (e.g. "127.0.0.1:0") speaking the
// controller-to-controller op set. The fetcher and writer are the shard's
// own storage-plane hooks; writer may be nil for a read-only shard, and
// membership may be nil if the endpoint does not answer membership
// exchanges. cfg tunes the underlying transport server (worker-pool sizing
// bounds the shard's serving concurrency).
func ServeShard(ctrl *core.Controller, fetcher core.ChunkFetcher, writer core.ObjectWriter,
	membership MembershipSource, listenAddr string, cfg transport.ServerConfig) (*PeerEndpoint, error) {
	cfg.Peer = &peerOps{ctrl: ctrl, fetcher: fetcher, writer: writer, membership: membership}
	srv := transport.NewServerWithConfig(nil, cfg)
	addr, err := srv.Listen(listenAddr)
	if err != nil {
		return nil, err
	}
	return &PeerEndpoint{srv: srv, addr: addr}, nil
}

// Addr returns the endpoint's bound address.
func (e *PeerEndpoint) Addr() string { return e.addr }

// Stats returns the endpoint's transport server wire counters.
func (e *PeerEndpoint) Stats() transport.TransportStats { return e.srv.Stats() }

// WorkQueueStats returns the endpoint's request-queue counters.
func (e *PeerEndpoint) WorkQueueStats() ring.Stats { return e.srv.WorkQueueStats() }

// Close stops serving. The shard controller belongs to the caller.
func (e *PeerEndpoint) Close() error { return e.srv.Close() }
