//go:build !amd64

package gf256

// asmEnabled and gfniEnabled are false on targets without assembly
// kernels; all slice multiplies go through the generic nibble-table loops.
var (
	asmEnabled  = false
	gfniEnabled = false
)

func mulAddAsm(c byte, src, dst []byte) int    { return 0 }
func mulAssignAsm(c byte, src, dst []byte) int { return 0 }

func mulRowAsm(row []byte, srcs [][]byte, off int, dst []byte, assign bool) int { return 0 }
