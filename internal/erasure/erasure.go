// Package erasure implements systematic Reed-Solomon (MDS) erasure codes
// over GF(2^8) together with the extended-code construction that Sprout's
// functional caching relies on.
//
// For a file split into k data chunks, the coder materialises an
// (n+k, k) MDS code: the first n coded chunks ("storage chunks") are placed
// on storage nodes, while the remaining k chunks are reserved as functional
// cache chunks. Any k chunks drawn from the union of storage and cache
// chunks reconstruct the file, so caching d of the reserved chunks turns the
// effective code seen by the scheduler into an (n+d, k) MDS code, exactly as
// described in Section III of the paper.
package erasure

import (
	"errors"
	"fmt"

	"sprout/internal/gf256"
)

// Common errors returned by the coder.
var (
	ErrInvalidParams   = errors.New("erasure: invalid code parameters")
	ErrShortData       = errors.New("erasure: not enough chunks to reconstruct")
	ErrShapeMismatch   = errors.New("erasure: chunk size mismatch")
	ErrUnknownChunk    = errors.New("erasure: chunk index out of range")
	ErrVerifyFailed    = errors.New("erasure: chunk verification failed")
	ErrEmptyData       = errors.New("erasure: empty data")
	ErrTooManyRequests = errors.New("erasure: requested more chunks than the code provides")
)

// Code is a systematic (N+K, K) Reed-Solomon code where the first N coded
// chunks are intended for storage nodes and the last K for the functional
// cache. The zero value is not usable; construct with New.
type Code struct {
	k int // number of data chunks
	n int // number of storage chunks (coded chunks placed on nodes)

	// generator has n+k rows and k columns. Row i gives the coefficients of
	// coded chunk i as a linear combination of the k data chunks. The first
	// k rows form the identity, so coded chunks 0..k-1 are the data itself.
	generator *gf256.Matrix

	// plans caches inverted k x k generator submatrices per erasure
	// pattern so steady-state decodes skip Gauss-Jordan entirely.
	plans *planCache

	counters coderCounters
}

// New creates a coder for an (n, k) storage code with k reserved functional
// cache chunks, i.e. an (n+k, k) MDS code overall. It requires
// 1 <= k <= n and n+k small enough for GF(2^8) (n <= 128 in practice).
func New(n, k int) (*Code, error) {
	if k < 1 || n < k || n+k > gf256.Order {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrInvalidParams, n, k)
	}
	parityRows := n // n-k storage parities + k cache parities
	gen := gf256.Identity(k)
	cauchy := gf256.Cauchy(parityRows, k)
	full := gf256.NewMatrix(n+k, k)
	for r := 0; r < k; r++ {
		copy(full.Data[r], gen.Data[r])
	}
	for r := 0; r < parityRows; r++ {
		copy(full.Data[k+r], cauchy.Data[r])
	}
	return &Code{k: k, n: n, generator: full, plans: newPlanCache(DefaultPlanCacheSize)}, nil
}

// K returns the number of data chunks required to reconstruct a file.
func (c *Code) K() int { return c.k }

// N returns the number of storage chunks produced for the storage nodes.
func (c *Code) N() int { return c.n }

// TotalChunks returns the total number of distinct coded chunks the code can
// produce (storage chunks plus reserved cache chunks).
func (c *Code) TotalChunks() int { return c.n + c.k }

// CacheChunkIndex returns the global chunk index of the i-th reserved cache
// chunk (0 <= i < K).
func (c *Code) CacheChunkIndex(i int) int { return c.n + i }

// CacheRows returns the generator rows (global chunk indices) a cache
// allocation of d chunks holds. This is the one place that decides it:
//
//   - 0 < d < k: the functional rows n..n+d-1. Together with any k-d of the
//     n storage rows they are k distinct rows of the (n+k, k) MDS generator,
//     so the read plane may pick its storage chunks freely (Section III).
//   - d >= k: the systematic rows 0..k-1. No storage chunk takes part in the
//     decode, so there is no MDS relation to storage left to protect and the
//     cache may hold any invertible image of the file; the identity is the
//     one that decodes by copy.
//
// d <= 0 yields no rows.
func (c *Code) CacheRows(d int) []int {
	first := c.n
	if d >= c.k {
		first, d = 0, c.k
	}
	rows := make([]int, 0, max(d, 0))
	for i := 0; i < d; i++ {
		rows = append(rows, first+i)
	}
	return rows
}

// Split partitions data into k equally sized data chunks, padding the final
// chunk with zeros. The returned chunk size is ceil(len(data)/k).
//
// A chunk lying wholly inside data is a view of it; only the zero-padded
// tail is allocated, and data is never written. So data must not change
// while the chunks are in use, and a caller that keeps them clones them.
func (c *Code) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	chunkSize := (len(data) + c.k - 1) / c.k
	full := len(data) / chunkSize
	chunks := make([][]byte, c.k)
	for i := 0; i < full; i++ {
		chunks[i] = data[i*chunkSize : (i+1)*chunkSize : (i+1)*chunkSize]
	}
	if full < c.k {
		tail := make([]byte, (c.k-full)*chunkSize)
		copy(tail, data[full*chunkSize:])
		for i := full; i < c.k; i++ {
			off := (i - full) * chunkSize
			chunks[i] = tail[off : off+chunkSize : off+chunkSize]
		}
	}
	return chunks, nil
}

// Join concatenates data chunks and trims the result to size bytes, the
// inverse of Split.
func (c *Code) Join(chunks [][]byte, size int) ([]byte, error) {
	return c.AppendJoin(make([]byte, 0, size), chunks, size)
}

// Encode produces the n storage chunks for the given data chunks. The first
// k of them are the data chunks themselves (systematic code), copied so the
// result does not alias the input; the rest are EncodeParity's rows. Callers
// that may send the data chunks by reference use EncodeParity directly and
// skip the copies.
func (c *Code) Encode(dataChunks [][]byte) ([][]byte, error) {
	if err := c.checkDataChunks(dataChunks); err != nil {
		return nil, err
	}
	out := allocChunks(c.n, len(dataChunks[0]))
	for i := 0; i < c.k; i++ {
		copy(out[i], dataChunks[i])
	}
	c.encodeParity(dataChunks, out[c.k:])
	return out, nil
}

// EncodeParity produces only the n-k parity storage chunks (coded chunks
// k..n-1) for the given data chunks; storage chunks 0..k-1 are the data
// chunks themselves. Parity is computed with the striped row kernels, in
// parallel for large chunks.
func (c *Code) EncodeParity(dataChunks [][]byte) ([][]byte, error) {
	if err := c.checkDataChunks(dataChunks); err != nil {
		return nil, err
	}
	out := allocChunks(c.n-c.k, len(dataChunks[0]))
	c.encodeParity(dataChunks, out)
	return out, nil
}

// EncodeParityInto is EncodeParity into caller-owned memory: it overwrites
// the n-k chunks of parity, each the data chunks' size, so a recycled set
// needs no clearing.
func (c *Code) EncodeParityInto(dataChunks, parity [][]byte) error {
	if err := c.checkDataChunks(dataChunks); err != nil {
		return err
	}
	if len(parity) != c.n-c.k {
		return fmt.Errorf("%w: want %d parity chunks, got %d", ErrShapeMismatch, c.n-c.k, len(parity))
	}
	for _, p := range parity {
		if len(p) != len(dataChunks[0]) {
			return ErrShapeMismatch
		}
	}
	c.encodeParity(dataChunks, parity)
	return nil
}

// encodeParity writes generator rows k..n-1 into the parity chunks and
// counts one encode.
func (c *Code) encodeParity(dataChunks, parity [][]byte) {
	if len(parity) > 0 {
		parallel := codeRows(c.generator.Data[c.k:c.n], dataChunks, parity)
		c.counters.countOp(parallel)
	}
	c.counters.encodes.Add(1)
	c.counters.bytesEncoded.Add(int64(len(dataChunks[0])) * int64(c.k))
}

// allocChunks allocates count zeroed chunks of the given size backed by a
// single contiguous buffer (one allocation, cache-friendly layout). Each
// chunk starts on a cache-line-multiple offset so stripe workers writing
// adjacent chunks never share a line even when size is not 64-aligned.
func allocChunks(count, size int) [][]byte {
	stride := (size + stripeAlign - 1) &^ (stripeAlign - 1)
	out := make([][]byte, count)
	backing := make([]byte, count*stride)
	for i := range out {
		out[i] = backing[i*stride:][:size:size]
	}
	return out
}

// CacheSet returns the chunks a cache allocation of d holds, in CacheRows(d)
// order. For 0 < d < k they are freshly generated functional chunks. For
// d == k they are the data chunks themselves, returned by reference — no
// copy, no GF(2^8) work — so the caller must own dataChunks (or clone the
// result) and never write to them again once they are cached.
func (c *Code) CacheSet(dataChunks [][]byte, d int) ([][]byte, error) {
	if d != c.k {
		return c.CacheChunks(dataChunks, d)
	}
	if err := c.checkDataChunks(dataChunks); err != nil {
		return nil, err
	}
	return dataChunks, nil
}

// CacheChunks produces the d functional cache chunks n..n+d-1 (0 <= d <= k)
// from the data chunks. Together with the n storage chunks they form an
// (n+d, k) MDS code.
func (c *Code) CacheChunks(dataChunks [][]byte, d int) ([][]byte, error) {
	if d < 0 || d > c.k {
		return nil, fmt.Errorf("%w: d=%d must be in [0,%d]", ErrInvalidParams, d, c.k)
	}
	if err := c.checkDataChunks(dataChunks); err != nil {
		return nil, err
	}
	out := make([][]byte, d)
	for i := 0; i < d; i++ {
		ch, err := c.ChunkAt(c.CacheChunkIndex(i), dataChunks)
		if err != nil {
			return nil, err
		}
		out[i] = ch
	}
	return out, nil
}

// ChunkAt computes the coded chunk with global index idx (0 <= idx < n+k)
// from the data chunks.
func (c *Code) ChunkAt(idx int, dataChunks [][]byte) ([]byte, error) {
	if idx < 0 || idx >= c.TotalChunks() {
		return nil, fmt.Errorf("%w: index %d", ErrUnknownChunk, idx)
	}
	if err := c.checkDataChunks(dataChunks); err != nil {
		return nil, err
	}
	size := len(dataChunks[0])
	out := make([]byte, size)
	if idx < c.k {
		copy(out, dataChunks[idx])
		return out, nil
	}
	parallel := codeRows([][]byte{c.generator.Data[idx]}, dataChunks, [][]byte{out})
	c.counters.countOp(parallel)
	return out, nil
}

// Chunk pairs a coded chunk's payload with its global index in the code.
type Chunk struct {
	Index int
	Data  []byte
}

// Reconstruct recovers the k data chunks from any k distinct coded chunks
// (storage or cache chunks in any combination). It returns ErrShortData if
// fewer than k chunks are supplied and ErrShapeMismatch if chunk sizes
// differ.
//
// The inverted k x k generator submatrix for the chunk-index subset is
// looked up in (or inserted into) the decode-plan cache, so repeated
// decodes with the same erasure pattern — the overwhelmingly common case
// in steady state — skip matrix inversion entirely. Inverse rows that are
// unit vectors (systematic chunks present in the input) become plain
// copies, and the remaining rows run through the striped parallel kernels.
func (c *Code) Reconstruct(chunks []Chunk) ([][]byte, error) {
	// A fresh scratch means the returned chunks own fresh backing; the
	// zero-allocation path is ReconstructInto with a recycled scratch.
	return c.ReconstructInto(new(DecodeScratch), chunks)
}

// unitColumn returns j if row is the unit vector e_j, and -1 otherwise.
func unitColumn(row []byte) int {
	unit := -1
	for j, v := range row {
		switch v {
		case 0:
		case 1:
			if unit >= 0 {
				return -1
			}
			unit = j
		default:
			return -1
		}
	}
	return unit
}

// Decode reconstructs the original file of the given byte size from any k
// coded chunks.
func (c *Code) Decode(chunks []Chunk, size int) ([]byte, error) {
	return c.DecodeInto(new(DecodeScratch), nil, chunks, size)
}

// Verify checks that the supplied coded chunk matches what the code would
// produce for the given data chunks.
func (c *Code) Verify(idx int, chunk []byte, dataChunks [][]byte) error {
	want, err := c.ChunkAt(idx, dataChunks)
	if err != nil {
		return err
	}
	if len(want) != len(chunk) {
		return ErrShapeMismatch
	}
	for i := range want {
		if want[i] != chunk[i] {
			return ErrVerifyFailed
		}
	}
	return nil
}

func (c *Code) checkDataChunks(dataChunks [][]byte) error {
	if len(dataChunks) != c.k {
		return fmt.Errorf("%w: want %d data chunks, got %d", ErrShapeMismatch, c.k, len(dataChunks))
	}
	size := len(dataChunks[0])
	if size == 0 {
		return ErrEmptyData
	}
	for _, ch := range dataChunks {
		if len(ch) != size {
			return ErrShapeMismatch
		}
	}
	return nil
}
