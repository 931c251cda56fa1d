package erasure

import (
	"fmt"

	"sprout/internal/gf256"
)

// DecodeScratch holds every buffer a decode needs: the sorted working
// copy of the chunk set, the plan-key scratch, the output row views and —
// for ReconstructInto only — the output chunks' backing array. A scratch is
// owned by one decode at a time; the chunk views ReconstructInto returns
// alias sc.backing and stay valid only until the scratch's next decode (or
// until its owner recycles it). DecodeInto writes into the caller's buffer
// and never touches the backing. The controller pools these per request,
// which is what takes the warm read path to zero allocations.
type DecodeScratch struct {
	use      []Chunk
	rows     []int
	key      []byte
	payloads [][]byte
	outs     [][]byte
	backing  []byte

	denseRows [][]byte
	denseOuts [][]byte
}

// grow ensures the per-row slices can hold k entries.
func (sc *DecodeScratch) grow(k int) {
	if cap(sc.rows) < k {
		sc.rows = make([]int, k)
		sc.key = make([]byte, k)
		sc.payloads = make([][]byte, k)
		sc.denseRows = make([][]byte, 0, k)
		sc.denseOuts = make([][]byte, 0, k)
	}
}

// chunkViews carves count chunk views of the given size out of the
// scratch's backing array, growing it when needed. Layout matches
// allocChunks: cache-line-aligned stride so stripe workers writing
// adjacent chunks never share a line.
func (sc *DecodeScratch) chunkViews(count, size int) [][]byte {
	stride := (size + stripeAlign - 1) &^ (stripeAlign - 1)
	need := count * stride
	if cap(sc.backing) < need {
		sc.backing = make([]byte, need)
	}
	backing := sc.backing[:need]
	if cap(sc.outs) < count {
		sc.outs = make([][]byte, count)
	}
	outs := sc.outs[:count]
	for i := range outs {
		outs[i] = backing[i*stride:][:size:size]
	}
	return outs
}

// ReconstructInto is Reconstruct against caller-owned scratch: same
// decode, same plan cache, no allocations in steady state. The returned
// data chunks alias sc's backing array — consume or copy them before
// reusing or recycling sc.
func (c *Code) ReconstructInto(sc *DecodeScratch, chunks []Chunk) ([][]byte, error) {
	inv, payloads, err := c.decodePlanFor(sc, chunks)
	if err != nil {
		return nil, err
	}
	out := sc.chunkViews(c.k, len(payloads[0]))
	c.decodeRows(sc, inv, payloads, out)
	return out, nil
}

// DecodeInto decodes the file of the given byte size from any k coded
// chunks straight into dst and returns dst[:size]: data row r is written at
// dst[r·chunk:(r+1)·chunk], so there is no intermediate chunk buffer and no
// join. dst's contents are overwritten; when its capacity is below the k
// whole chunks the row loop writes (at most k-1 bytes more than size) a new
// buffer is allocated, so a caller that keeps passing the returned slice back
// allocates once. Nothing the scratch retains aliases dst or the chunks.
func (c *Code) DecodeInto(sc *DecodeScratch, dst []byte, chunks []Chunk, size int) ([]byte, error) {
	inv, payloads, err := c.decodePlanFor(sc, chunks)
	if err != nil {
		return nil, err
	}
	chunk := len(payloads[0])
	total := c.k * chunk
	if size < 0 || size > total {
		return nil, fmt.Errorf("%w: decoded %d bytes, need %d", ErrShortData, total, size)
	}
	if cap(dst) < total {
		dst = make([]byte, total)
	}
	dst = dst[:total]
	if cap(sc.outs) < c.k {
		sc.outs = make([][]byte, c.k)
	}
	out := sc.outs[:c.k]
	for r := range out {
		out[r] = dst[r*chunk : (r+1)*chunk : (r+1)*chunk]
	}
	c.decodeRows(sc, inv, payloads, out)
	// A pooled scratch must not pin the caller's buffer or the chunk
	// payloads (cache entries, fetched frames) until its next decode.
	clear(out)
	clear(payloads)
	clear(sc.use)
	clear(sc.denseOuts)
	return dst[:size], nil
}

// decodePlanFor validates the chunk set and returns the inverted generator
// submatrix for its first k chunks together with their payloads, ordered by
// chunk index to match the inverse's columns. Both views live in sc.
func (c *Code) decodePlanFor(sc *DecodeScratch, chunks []Chunk) (*gf256.Matrix, [][]byte, error) {
	if len(chunks) < c.k {
		return nil, nil, fmt.Errorf("%w: have %d, need %d", ErrShortData, len(chunks), c.k)
	}
	// Sort the first k chunks by index into the scratch's working copy:
	// a canonical order lets every permutation of one erasure pattern
	// share a cached plan. Insertion sort instead of sort.Slice — k is
	// small and sort.Slice allocates its reflection-based swapper.
	use := append(sc.use[:0], chunks[:c.k]...)
	sc.use = use
	for i := 1; i < len(use); i++ {
		for j := i; j > 0 && use[j].Index < use[j-1].Index; j-- {
			use[j], use[j-1] = use[j-1], use[j]
		}
	}
	sc.grow(c.k)
	size := len(use[0].Data)
	rows := sc.rows[:c.k]
	key := sc.key[:c.k]
	payloads := sc.payloads[:c.k]
	for i, ch := range use {
		if ch.Index < 0 || ch.Index >= c.TotalChunks() {
			return nil, nil, fmt.Errorf("%w: index %d", ErrUnknownChunk, ch.Index)
		}
		if i > 0 && ch.Index == use[i-1].Index {
			return nil, nil, fmt.Errorf("%w: duplicate chunk index %d", ErrInvalidParams, ch.Index)
		}
		if len(ch.Data) != size {
			return nil, nil, ErrShapeMismatch
		}
		rows[i] = ch.Index
		key[i] = byte(ch.Index)
		payloads[i] = ch.Data
	}
	inv := c.plans.get(planKey(key))
	if inv == nil {
		sub := c.generator.SelectRows(rows)
		var err error
		inv, err = sub.Invert()
		if err != nil {
			return nil, nil, fmt.Errorf("erasure: selected chunks not decodable: %w", err)
		}
		c.plans.put(planKey(key), inv)
	}
	return inv, payloads, nil
}

// decodeRows computes the k data rows out[r] = inv[r] · payloads. Unit
// inverse rows (the systematic chunk is among the inputs) are one copy;
// dense rows are written by the striped kernels, which overwrite them.
func (c *Code) decodeRows(sc *DecodeScratch, inv *gf256.Matrix, payloads, out [][]byte) {
	denseRows := sc.denseRows[:0]
	denseOuts := sc.denseOuts[:0]
	for r := 0; r < c.k; r++ {
		if j := unitColumn(inv.Data[r]); j >= 0 {
			copy(out[r], payloads[j])
			continue
		}
		denseRows = append(denseRows, inv.Data[r])
		denseOuts = append(denseOuts, out[r])
	}
	sc.denseRows = denseRows
	sc.denseOuts = denseOuts
	if len(denseRows) > 0 {
		parallel := codeRows(denseRows, payloads, denseOuts)
		c.counters.countOp(parallel)
	} else {
		c.counters.copyOnlyDecodes.Add(1)
	}
	c.counters.reconstructs.Add(1)
	c.counters.bytesReconstructed.Add(int64(len(payloads[0])) * int64(c.k))
}

// AppendJoin appends the concatenation of the data chunks, trimmed to
// size bytes, onto dst and returns the extended slice — Join without the
// output allocation when dst has capacity.
func (c *Code) AppendJoin(dst []byte, chunks [][]byte, size int) ([]byte, error) {
	if len(chunks) != c.k {
		return nil, fmt.Errorf("%w: want %d data chunks, got %d", ErrShapeMismatch, c.k, len(chunks))
	}
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	if size > total {
		return nil, fmt.Errorf("%w: joined %d bytes, need %d", ErrShortData, total, size)
	}
	remaining := size
	for _, ch := range chunks {
		if remaining <= 0 {
			break
		}
		n := len(ch)
		if n > remaining {
			n = remaining
		}
		dst = append(dst, ch[:n]...)
		remaining -= n
	}
	return dst, nil
}
