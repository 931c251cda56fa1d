package gf256

import "encoding/binary"

// Nibble-split multiply tables. For a fixed coefficient c the product c*x
// decomposes over the low and high nibble of x:
//
//	c*x = c*(x & 0x0f) ^ c*(x & 0xf0)
//	    = mulTableLow[c][x&0x0f] ^ mulTableHigh[c][x>>4]
//
// so a slice multiply becomes two 16-entry table lookups and an XOR per
// byte, with no branch and no log/exp indirection in the inner loop. The
// full table set is 256 coefficients x 32 bytes = 8 KiB and is built once
// at init, which keeps every kernel below allocation- and branch-free.
var (
	mulTableLow  [Order][16]byte
	mulTableHigh [Order][16]byte
)

// gfniMatrix[c] is multiplication by c as the 8x8 bit matrix VGF2P8AFFINEQB
// applies to every byte: byte 7-i of the word holds the input bits feeding
// output bit i. (VGF2P8MULB hard-wires the AES polynomial, not 0x11d.)
var gfniMatrix [Order]uint64

// initMulTables fills the nibble tables and the GFNI matrices; called from
// init after the log/exp tables exist.
func initMulTables() {
	for c := 0; c < Order; c++ {
		for n := 0; n < 16; n++ {
			mulTableLow[c][n] = Mul(byte(c), byte(n))
			mulTableHigh[c][n] = Mul(byte(c), byte(n<<4))
		}
		for j := 0; j < 8; j++ {
			p := Mul(byte(c), 1<<j)
			for i := 0; i < 8; i++ {
				if p>>i&1 != 0 {
					gfniMatrix[c] |= 1 << (8*(7-i) + j)
				}
			}
		}
	}
}

// xorSlice computes dst[i] ^= src[i] using 8-byte words for the bulk of the
// slice. binary.LittleEndian.Uint64 compiles to a single unaligned load on
// little-endian targets, so the main loop is one load/xor/store per word.
func xorSlice(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		v := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulAddSlice computes dst[i] ^= c*src[i]. On amd64 with AVX2 the bulk of
// the slice goes through a 32-bytes-per-iteration PSHUFB kernel driven by
// the same nibble tables; the unrolled generic kernel handles the tail and
// non-AVX2 targets. The caller guarantees equal lengths and c not in {0, 1}.
func mulAddSlice(c byte, src, dst []byte) {
	if asmEnabled {
		n := mulAddAsm(c, src, dst)
		if n == len(src) {
			return
		}
		src, dst = src[n:], dst[n:]
	}
	mulAddGeneric(c, src, dst)
}

// mulAddGeneric is the portable kernel: two nibble-table lookups and an
// XOR per byte, unrolled eight bytes per iteration.
func mulAddGeneric(c byte, src, dst []byte) {
	low := &mulTableLow[c]
	high := &mulTableHigh[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= low[s[0]&0x0f] ^ high[s[0]>>4]
		d[1] ^= low[s[1]&0x0f] ^ high[s[1]>>4]
		d[2] ^= low[s[2]&0x0f] ^ high[s[2]>>4]
		d[3] ^= low[s[3]&0x0f] ^ high[s[3]>>4]
		d[4] ^= low[s[4]&0x0f] ^ high[s[4]>>4]
		d[5] ^= low[s[5]&0x0f] ^ high[s[5]>>4]
		d[6] ^= low[s[6]&0x0f] ^ high[s[6]>>4]
		d[7] ^= low[s[7]&0x0f] ^ high[s[7]>>4]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= low[src[i]&0x0f] ^ high[src[i]>>4]
	}
}

// mulAssignSlice computes dst[i] = c*src[i], dispatching like mulAddSlice.
// The caller guarantees equal lengths and c not in {0, 1}.
func mulAssignSlice(c byte, src, dst []byte) {
	if asmEnabled {
		n := mulAssignAsm(c, src, dst)
		if n == len(src) {
			return
		}
		src, dst = src[n:], dst[n:]
	}
	mulAssignGeneric(c, src, dst)
}

func mulAssignGeneric(c byte, src, dst []byte) {
	low := &mulTableLow[c]
	high := &mulTableHigh[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = low[s[0]&0x0f] ^ high[s[0]>>4]
		d[1] = low[s[1]&0x0f] ^ high[s[1]>>4]
		d[2] = low[s[2]&0x0f] ^ high[s[2]>>4]
		d[3] = low[s[3]&0x0f] ^ high[s[3]>>4]
		d[4] = low[s[4]&0x0f] ^ high[s[4]>>4]
		d[5] = low[s[5]&0x0f] ^ high[s[5]>>4]
		d[6] = low[s[6]&0x0f] ^ high[s[6]>>4]
		d[7] = low[s[7]&0x0f] ^ high[s[7]>>4]
	}
	for i := n; i < len(src); i++ {
		dst[i] = low[src[i]&0x0f] ^ high[src[i]>>4]
	}
}

// rowBlockBytes is how much of every chunk one MulRows pass covers before
// moving on: the k source blocks and one output block stay resident in L1
// while each output row reads all of them.
const rowBlockBytes = 8 << 10

// MulRows applies a set of generator rows at once:
//
//	outs[r][i] = sum_j rows[r][j] * srcs[j][i]        (assign)
//	outs[r][i] ^= sum_j rows[r][j] * srcs[j][i]       (accumulate)
//
// It is the workhorse of Reed-Solomon encode and decode. The chunks are
// walked in L1-sized blocks, and within a block each output row is one
// kernel call that reads all the sources and writes its output once, so an
// assigned output needs no zeroing beforehand. All srcs and outs must have
// equal length.
func MulRows(rows [][]byte, srcs [][]byte, outs [][]byte, assign bool) {
	if len(rows) != len(outs) {
		panic("gf256: row count does not match output count")
	}
	if len(outs) == 0 {
		return
	}
	size := len(outs[0])
	for r, row := range rows {
		if len(row) != len(srcs) || len(outs[r]) != size {
			panic("gf256: row or output shape mismatch in MulRows")
		}
	}
	for _, s := range srcs {
		if len(s) != size {
			panic("gf256: slice length mismatch in MulRows")
		}
	}
	for lo := 0; lo < size; lo += rowBlockBytes {
		hi := min(lo+rowBlockBytes, size)
		for r, row := range rows {
			mulRow(row, srcs, lo, outs[r][lo:hi], assign)
		}
	}
}

// mulRow computes dst = row · srcs[.][lo:lo+len(dst)] (or adds it to dst).
// The GFNI kernel takes the largest 64-byte multiple of the range; the rest,
// and CPUs without GFNI, go one coefficient at a time through the nibble
// kernels.
func mulRow(row []byte, srcs [][]byte, lo int, dst []byte, assign bool) {
	if gfniEnabled && len(row) > 0 {
		n := mulRowAsm(row, srcs, lo, dst, assign)
		if n == len(dst) {
			return
		}
		lo, dst = lo+n, dst[n:]
	}
	if assign && len(row) == 0 {
		clear(dst)
	}
	for j, c := range row {
		src := srcs[j][lo : lo+len(dst)]
		if assign && j == 0 {
			MulSliceAssign(c, src, dst)
		} else {
			MulSlice(c, src, dst)
		}
	}
}
