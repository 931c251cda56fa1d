package transport

import (
	"context"
	"fmt"
	"sync"

	"sprout/internal/cluster"
	"sprout/internal/erasure"
)

// StripedWriter is the transport's one ingest path: it encodes objects
// locally with the SIMD erasure coder and fans the n chunk writes out in
// parallel over the client's pooled connections, wrapped in a two-phase
// commit — stage every chunk under a fresh stripe version, then flip the
// object metadata with CommitObject. A failed put is aborted and stays
// invisible to readers. The server only stores chunks: n/k×S bytes cross
// the wire per object and the encode CPU is spent at the client.
type StripedWriter struct {
	// Client is the pooled transport client the chunk writes multiplex over.
	Client *Client
	// Pool is the remote erasure-coded pool to write into.
	Pool string
	// Code is the erasure coder; its (n, k) must match the remote pool.
	Code *erasure.Code
}

// NewStripedWriter builds a striped writer for a remote pool, querying the
// pool's (n, k) and constructing the matching coder.
func NewStripedWriter(ctx context.Context, client *Client, pool string) (*StripedWriter, error) {
	n, k, err := client.PoolInfo(ctx, pool)
	if err != nil {
		return nil, fmt.Errorf("transport: querying pool %q: %w", pool, err)
	}
	code, err := erasure.New(n, k)
	if err != nil {
		return nil, fmt.Errorf("transport: coder for pool %q: %w", pool, err)
	}
	return &StripedWriter{Client: client, Pool: pool, Code: code}, nil
}

// Put writes an object through the striped two-phase path and returns the
// committed stripe version: split + encode locally, BeginPut, stage all n
// chunks concurrently (one pipelined round trip per chunk batch), commit.
// Any failure aborts the staged chunks; the previously committed stripe, if
// one exists, remains fully readable throughout. data is sent without a
// copy: it is only read, and only until Put returns.
func (w *StripedWriter) Put(ctx context.Context, object string, data []byte) (uint64, error) {
	dataChunks, err := w.Code.Split(data)
	if err != nil {
		return 0, err
	}
	return w.putChunks(ctx, object, dataChunks, len(data))
}

// putChunks encodes pre-split data chunks and runs the staged write. Only
// the n-k parity chunks are computed, into a recycled set; the code is
// systematic, so storage chunks 0..k-1 are the data chunks themselves and
// are sent by reference — never copied, never multiplied, only read.
func (w *StripedWriter) putChunks(ctx context.Context, object string, dataChunks [][]byte, size int) (uint64, error) {
	set := paritySets.Get().(*paritySet)
	// Every PutChunk below, which reads its chunk only before it returns,
	// has returned by the time putChunks does.
	defer set.recycle()
	storage, err := set.encode(w.Code, dataChunks)
	if err != nil {
		return 0, err
	}
	version, err := w.Client.BeginPut(ctx, w.Pool, object)
	if err != nil {
		return 0, err
	}
	n := w.Code.N()
	errs := make(chan error, n)
	stageCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := w.Client.PutChunk(stageCtx, w.Pool, object, version, i, storage[i])
			errs <- err
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			cancel() // abandon the remaining chunk writes
		}
	}
	if firstErr == nil {
		if err := w.Client.CommitObject(ctx, w.Pool, object, version, size); err != nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		w.abort(ctx, object, version)
		return 0, firstErr
	}
	return version, nil
}

// paritySet is one put's storage chunk list and the memory its parity is
// written into, recycled between puts so a put allocates no parity.
type paritySet struct {
	storage [][]byte
	backing []byte
}

var paritySets = sync.Pool{New: func() any { return new(paritySet) }}

// encode returns the n storage chunks of dataChunks: the data chunks
// followed by their parity, written into the set's backing.
func (s *paritySet) encode(code *erasure.Code, dataChunks [][]byte) ([][]byte, error) {
	size := 0
	if len(dataChunks) > 0 {
		size = len(dataChunks[0])
	}
	parity := code.N() - code.K()
	if cap(s.backing) < parity*size {
		s.backing = make([]byte, parity*size)
	}
	s.storage = append(s.storage[:0], dataChunks...)
	for i := 0; i < parity; i++ {
		s.storage = append(s.storage, s.backing[i*size:(i+1)*size:(i+1)*size])
	}
	if err := code.EncodeParityInto(dataChunks, s.storage[len(dataChunks):]); err != nil {
		return nil, err
	}
	return s.storage, nil
}

// recycle puts the set back, dropping its references to the data chunks.
func (s *paritySet) recycle() {
	clear(s.storage)
	s.storage = s.storage[:0]
	paritySets.Put(s)
}

// abort discards the staged put, using a fresh context so cleanup still
// happens when the put failed because ctx was cancelled.
func (w *StripedWriter) abort(ctx context.Context, object string, version uint64) {
	_ = w.Client.AbortPut(context.WithoutCancel(ctx), w.Pool, object, version)
}

// WriteObject implements the controller's ObjectWriter: a striped put of
// the file's object, named by cluster.ObjectName.
func (w *StripedWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return w.Put(ctx, cluster.ObjectName(fileID), data)
}

// WriteDataChunks implements the controller's DataChunkWriter fast path:
// the controller already split the payload for its cache write-through, so
// the striped write encodes straight from the shared data chunks and, per
// the interface's ownership rule, only reads them.
func (w *StripedWriter) WriteDataChunks(ctx context.Context, fileID int, dataChunks [][]byte, size int) (uint64, error) {
	return w.putChunks(ctx, cluster.ObjectName(fileID), dataChunks, size)
}
