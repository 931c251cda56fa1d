package transport

import "sync/atomic"

// TransportStats is a snapshot of a client's or server's data-plane
// counters, surfaced the same way erasure.CoderStats is: cheap atomics on
// the hot path, a consistent-enough snapshot on demand, and Add for
// aggregating across components.
type TransportStats struct {
	// FramesSent and FramesReceived count wire frames written and read.
	FramesSent     int64
	FramesReceived int64
	// BytesSent and BytesReceived are cumulative frame bytes including the
	// 4-byte length prefix.
	BytesSent     int64
	BytesReceived int64
	// BytesByReference is the part of BytesSent that was never copied in
	// user space: payloads of byRefMin bytes or more, handed to the kernel
	// as the caller's (client) or the store's (server) own slice.
	BytesByReference int64
	// Requests counts requests started — blocking round trips and
	// asynchronous chunk fetches alike (client) — or frames dispatched to the
	// worker pool (server).
	Requests int64
	// Retries counts client round trips replayed after a broken connection.
	Retries int64
	// FetchBatches counts calls to RemoteFetcher.StartFetches — batches of
	// chunk requests a read sent itself — and AsyncFallbacks the fetches of
	// such batches that continued on the blocking round-trip path (the
	// connection was not up or broke, or the server shed the request). Both
	// client only.
	FetchBatches   int64
	AsyncFallbacks int64
	// OverloadRejections counts requests shed by the server's max-in-flight
	// limit (server) or overload responses observed (client).
	OverloadRejections int64
	// DeadlineRejections counts requests shed because their wire deadline
	// had already passed at admission or dequeue (server), or such
	// rejections observed in responses (client).
	DeadlineRejections int64
	// RetriesDenied counts retries the client wanted but the retry budget
	// refused — the caller got the original error instead (client only).
	RetriesDenied int64
	// DecodeErrors counts malformed or truncated frames; on the server these
	// are connection-level decode failures that end the session.
	DecodeErrors int64
	// ConnsOpened counts TCP connections accepted (server) or dialed
	// (client).
	ConnsOpened int64
}

// transportCounters holds the live atomics behind a TransportStats snapshot.
type transportCounters struct {
	framesSent         atomic.Int64
	framesReceived     atomic.Int64
	bytesSent          atomic.Int64
	bytesReceived      atomic.Int64
	bytesByRef         atomic.Int64
	requests           atomic.Int64
	retries            atomic.Int64
	fetchBatches       atomic.Int64
	asyncFallbacks     atomic.Int64
	overloadRejections atomic.Int64
	deadlineRejections atomic.Int64
	retriesDenied      atomic.Int64
	decodeErrors       atomic.Int64
	connsOpened        atomic.Int64
}

func (c *transportCounters) snapshot() TransportStats {
	return TransportStats{
		FramesSent:         c.framesSent.Load(),
		FramesReceived:     c.framesReceived.Load(),
		BytesSent:          c.bytesSent.Load(),
		BytesReceived:      c.bytesReceived.Load(),
		Requests:           c.requests.Load(),
		Retries:            c.retries.Load(),
		BytesByReference:   c.bytesByRef.Load(),
		FetchBatches:       c.fetchBatches.Load(),
		AsyncFallbacks:     c.asyncFallbacks.Load(),
		OverloadRejections: c.overloadRejections.Load(),
		DeadlineRejections: c.deadlineRejections.Load(),
		RetriesDenied:      c.retriesDenied.Load(),
		DecodeErrors:       c.decodeErrors.Load(),
		ConnsOpened:        c.connsOpened.Load(),
	}
}

// countFrameOut counts one frame of n wire bytes (length prefix, header and
// data), byRef of which were sent by reference.
func (c *transportCounters) countFrameOut(n, byRef int) {
	c.framesSent.Add(1)
	c.bytesSent.Add(int64(n))
	if byRef > 0 {
		c.bytesByRef.Add(int64(byRef))
	}
}

func (c *transportCounters) countFrameIn(n int) {
	c.framesReceived.Add(1)
	c.bytesReceived.Add(int64(n))
}
