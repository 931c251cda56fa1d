package gf256

import "fmt"

// The matrix oracles below check the field arithmetic in this package's
// tests; the erasure coder needs none of them.

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for r := range m.Data {
		copy(out.Data[r], m.Data[r])
	}
	return out
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r][k]
			if a == 0 {
				continue
			}
			MulSlice(a, other.Data[k], out.Data[r])
		}
	}
	return out
}

// IsIdentity reports whether the matrix is square and equal to the identity.
func (m *Matrix) IsIdentity() bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.Data[r][c] != want {
				return false
			}
		}
	}
	return true
}

// Equal reports whether two matrices have identical dimensions and entries.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.Data[r][c] != other.Data[r][c] {
				return false
			}
		}
	}
	return true
}
