package erasure

import "fmt"

// AppendJoin appends the concatenation of the data chunks, trimmed to
// size bytes, onto dst and returns the extended slice: the inverse of Split
// the tests check decodes against.
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
