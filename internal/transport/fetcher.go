package transport

import (
	"context"

	"sprout/internal/cluster"
	"sprout/internal/core"
)

// RemoteFetcher implements core.ChunkFetcher over the multiplexed binary
// client, so a core.Controller can serve reads whose storage chunks live
// behind the network: degraded reads fetch whichever coded chunks the
// scheduler picks from the remote pool. It is a core.AsyncChunkFetcher, so a
// controller read sends its chunk requests itself (StartFetches) and no
// goroutine blocks in a round trip per chunk; the blocking FetchChunk and
// FetchChunkV remain for callers that want one chunk and wait for it.
type RemoteFetcher struct {
	// Client is the pooled transport client to fetch through.
	Client *Client
	// Pool is the remote erasure-coded pool holding the controller's files,
	// each named by cluster.ObjectName.
	Pool string
}

var (
	_ core.VersionedChunkFetcher = (*RemoteFetcher)(nil)
	_ core.AsyncChunkFetcher     = (*RemoteFetcher)(nil)
)

// FetchChunk retrieves one coded chunk of a file from the remote pool. The
// node ID is ignored: placement is resolved server-side by the pool's
// CRUSH-like mapping.
func (f *RemoteFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.fetch(ctx, fileID, chunkIndex)
	return data, err
}

// FetchChunkV retrieves one coded chunk together with the stripe version and
// object size it belongs to, so the controller's read plane can detect
// concurrent overwrites instead of decoding mixed-version stripes.
func (f *RemoteFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, core.StripeInfo, error) {
	return f.fetch(ctx, fileID, chunkIndex)
}

func (f *RemoteFetcher) fetch(ctx context.Context, fileID, chunkIndex int) ([]byte, core.StripeInfo, error) {
	name := cluster.ObjectName(fileID)
	data, version, size, err := f.Client.GetChunkV(ctx, f.Pool, name, chunkIndex)
	if err != nil {
		return nil, core.StripeInfo{}, fetchError(chunkIndex, f.Pool, name, err)
	}
	return data, core.StripeInfo{Version: version, Size: int(size)}, nil
}

// StartFetches implements core.AsyncChunkFetcher: the chunk requests of refs
// leave on one pooled connection, in one write from the calling goroutine
// (divided over the pool, one write per connection, once the chunks are 64 KiB
// or more), and each ref's sink receives what FetchChunkV would have returned — from
// the connection's read loop as the responses arrive, with
// context.DeadlineExceeded once the deadline (ctx's, else the client's
// RequestTimeout) has passed, or after budgeted retries on the blocking path
// when the server shed the request or the connection broke. As in FetchChunk
// the node IDs are ignored.
func (f *RemoteFetcher) StartFetches(ctx context.Context, fileID int, refs []core.FetchRef) {
	f.Client.startFetches(ctx, f.Pool, cluster.ObjectName(fileID), refs)
}
