// Package gf256 implements arithmetic over the finite field GF(2^8) and
// small dense matrices over that field. It is the algebraic substrate used
// by the Reed-Solomon coder in internal/erasure.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage erasure-code implementations, with generator element 2.
//
// The slice kernels come in tiers chosen once from CPUID: MulRows uses a
// GFNI + AVX-512 kernel where the CPU and OS support it, every kernel
// otherwise the AVX2 PSHUFB nibble kernels, and CPUs without AVX2 the
// portable nibble-table loops.
package gf256

import "fmt"

// polynomial is the primitive polynomial used to build the field,
// represented without the leading x^8 term.
const polynomial = 0x1d

// Order is the number of elements in GF(2^8).
const Order = 256

var (
	expTable [2 * Order]byte // expTable[i] = generator^i, duplicated to avoid mod in Mul
	logTable [Order]int      // logTable[x] = i such that generator^i = x, undefined for 0
	invTable [Order]byte     // invTable[x] = multiplicative inverse of x, 0 for 0
)

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x >= Order {
			x = (x ^ polynomial) & 0xff
		}
	}
	for i := Order - 1; i < 2*Order; i++ {
		expTable[i] = expTable[i-(Order-1)]
	}
	// g^(Order-1) = 1, so the inverse of x = g^log(x) is g^(Order-1-log(x)).
	for i := 1; i < Order; i++ {
		invTable[i] = expTable[(Order-1)-logTable[i]]
	}
	initMulTables()
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// MulSlice computes dst[i] ^= c * src[i] for all i, i.e. it accumulates a
// scalar multiple of src into dst. Both slices must have equal length.
// The inner loop is branch-free: two nibble-table lookups and an XOR per
// byte (a pure word-wide XOR when c == 1).
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: slice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
	case 1:
		xorSlice(src, dst)
	default:
		mulAddSlice(c, src, dst)
	}
}

// MulSliceAssign computes dst[i] = c * src[i] for all i, overwriting dst.
func MulSliceAssign(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: slice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mulAssignSlice(c, src, dst)
	}
}
