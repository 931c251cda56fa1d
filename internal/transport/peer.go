package transport

// This file is the controller-to-controller op set: the wire surface behind
// the sharded metadata plane. A shard exposes its controller through a
// Server whose ServerConfig.Peer implements PeerOps; the router (and peer
// shards) reach it with the matching Client methods. The ops ride the
// existing frame format — Chunk carries the file ID, Version the stripe
// version — so no wire-format change is involved.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
)

// PeerOps is the handler a shard controller plugs into a Server to speak
// the controller-to-controller protocol.
type PeerOps interface {
	// PeerRead serves a routed read of one file.
	PeerRead(ctx context.Context, fileID int) ([]byte, error)
	// PeerWrite commits a routed write and returns the stripe version the
	// storage plane assigned.
	PeerWrite(ctx context.Context, fileID int, data []byte) (uint64, error)
	// PeerInvalidate applies a versioned invalidation fanned out by the
	// shard that committed the write. It reports whether the invalidation
	// applied (false: late or duplicate, dropped by the version check).
	PeerInvalidate(fileID int, version uint64, size int) (bool, error)
	// PeerMembership returns the shard's view of the ring: the membership
	// version and the members as flat "id, address" pairs.
	PeerMembership() (version uint64, members []string)
}

// handlePeer dispatches the controller op set to the configured PeerOps.
func (s *Server) handlePeer(ctx context.Context, req *Request, fail func(error) Response, ok func(Response) Response) Response {
	peer := s.cfg.Peer
	if peer == nil {
		return fail(errors.New("transport: no shard controller attached to this endpoint"))
	}
	switch req.Op {
	case OpCtrlRead:
		data, err := peer.PeerRead(ctx, req.Chunk)
		if err != nil {
			return fail(err)
		}
		return ok(Response{Data: data, Size: int64(len(data))})
	case OpCtrlWrite:
		version, err := peer.PeerWrite(ctx, req.Chunk, req.Data)
		if err != nil {
			return fail(err)
		}
		return ok(Response{Version: version})
	case OpInvalidate:
		if len(req.Data) != 8 {
			return fail(fmt.Errorf("transport: invalidation payload must be the 8-byte object size, got %d bytes", len(req.Data)))
		}
		size := int64(binary.BigEndian.Uint64(req.Data))
		applied, err := peer.PeerInvalidate(req.Chunk, req.Version, int(size))
		if err != nil {
			return fail(err)
		}
		resp := Response{Version: req.Version}
		if applied {
			resp.Size = 1
		}
		return ok(resp)
	case OpShardInfo:
		version, members := peer.PeerMembership()
		return ok(Response{Version: version, Names: members})
	default:
		return fail(fmt.Errorf("transport: %q is not a controller op", req.Op))
	}
}

// CtrlRead routes a read of fileID to the shard behind this client.
func (c *Client) CtrlRead(ctx context.Context, fileID int) ([]byte, error) {
	resp, err := c.call(ctx, Request{Op: OpCtrlRead, Chunk: fileID})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// CtrlWrite routes a write of fileID to the shard behind this client and
// returns the committed stripe version. data is only read until the call
// returns — also when it returns early because ctx is done.
func (c *Client) CtrlWrite(ctx context.Context, fileID int, data []byte) (uint64, error) {
	resp, err := c.call(ctx, Request{Op: OpCtrlWrite, Chunk: fileID, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Invalidate delivers a versioned invalidation for fileID to the shard
// behind this client: the write at `version` committed `size` payload
// bytes. It reports whether the peer applied it (false means the peer
// already knew a stripe at or past that version — the message was late or a
// duplicate and was dropped, which is the protocol's idempotence working,
// not an error).
func (c *Client) Invalidate(ctx context.Context, fileID int, version uint64, size int) (bool, error) {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(size))
	resp, err := c.call(ctx, Request{Op: OpInvalidate, Chunk: fileID, Version: version, Data: payload})
	if err != nil {
		return false, err
	}
	return resp.Size == 1, nil
}

// ShardMembership fetches the peer's view of ring membership: the ring
// version and the members as flat "id, address" pairs.
func (c *Client) ShardMembership(ctx context.Context) (uint64, []string, error) {
	resp, err := c.call(ctx, Request{Op: OpShardInfo})
	if err != nil {
		return 0, nil, err
	}
	return resp.Version, resp.Names, nil
}
