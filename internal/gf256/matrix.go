package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       [][]byte
}

// ErrSingular is returned when attempting to invert a singular matrix.
var ErrSingular = errors.New("gf256: matrix is singular")

// NewMatrix allocates a zero matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	data := make([][]byte, rows)
	backing := make([]byte, rows*cols)
	for r := range data {
		data[r], backing = backing[:cols:cols], backing[cols:]
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i][i] = 1
	}
	return m
}

// Cauchy returns a rows x cols Cauchy matrix with entry 1/(x_r + y_c) where
// x_r = r + cols and y_c = c. Every square submatrix of a Cauchy matrix is
// invertible. rows+cols must not exceed the field order.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > Order {
		panic("gf256: cauchy matrix too large for field")
	}
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Data[r][c] = Inv(Add(byte(r+cols), byte(c)))
		}
	}
	return m
}

// SubMatrix extracts rows [r0, r1) and columns [c0, c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Data[r-r0], m.Data[r][c0:c1])
	}
	return out
}

// SelectRows returns a new matrix consisting of the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Data[i], m.Data[r])
	}
	return out
}

// Augment returns the matrix [m | other] with other appended column-wise.
func (m *Matrix) Augment(other *Matrix) *Matrix {
	if m.Rows != other.Rows {
		panic("gf256: augment row mismatch")
	}
	out := NewMatrix(m.Rows, m.Cols+other.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Data[r][:m.Cols], m.Data[r])
		copy(out.Data[r][m.Cols:], other.Data[r])
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	m.Data[i], m.Data[j] = m.Data[j], m.Data[i]
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination, or ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Augment(Identity(n))
	if err := work.gaussianElimination(); err != nil {
		return nil, err
	}
	return work.SubMatrix(0, n, n, 2*n), nil
}

// gaussianElimination reduces the left square block of the matrix to the
// identity, applying the same operations to the remaining columns.
func (m *Matrix) gaussianElimination() error {
	n := m.Rows
	for c := 0; c < n; c++ {
		// Find a pivot row.
		pivot := -1
		for r := c; r < n; r++ {
			if m.Data[r][c] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		if pivot != c {
			m.SwapRows(pivot, c)
		}
		// Scale the pivot row so the pivot becomes 1.
		if p := m.Data[c][c]; p != 1 {
			inv := Inv(p)
			MulSliceAssign(inv, m.Data[c], m.Data[c])
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == c || m.Data[r][c] == 0 {
				continue
			}
			MulSlice(m.Data[r][c], m.Data[c], m.Data[r])
			// MulSlice accumulates factor*pivotRow into row r; because the
			// pivot entry is 1, the leading coefficient cancels to zero.
		}
	}
	return nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.Rows; r++ {
		s += fmt.Sprintln(m.Data[r])
	}
	return s
}
