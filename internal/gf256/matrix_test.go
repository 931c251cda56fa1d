package gf256

import (
	"math/rand"
	"testing"
)

func TestIdentityIsIdentity(t *testing.T) {
	for n := 1; n <= 8; n++ {
		if !Identity(n).IsIdentity() {
			t.Fatalf("Identity(%d) failed IsIdentity", n)
		}
	}
}

func TestMatrixMulByIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			m.Data[r][c] = byte(rng.Intn(256))
		}
	}
	if !m.Mul(Identity(4)).Equal(m) {
		t.Fatal("m * I != m")
	}
	if !Identity(4).Mul(m).Equal(m) {
		t.Fatal("I * m != m")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Data[r][c] = byte(rng.Intn(256))
			}
		}
		inv, err := m.Invert()
		if err != nil {
			continue // singular random matrix, skip
		}
		if !m.Mul(inv).IsIdentity() {
			t.Fatalf("m * m^-1 != I for\n%v", m)
		}
		if !inv.Mul(m).IsIdentity() {
			t.Fatalf("m^-1 * m != I for\n%v", m)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[0][0], m.Data[0][1] = 1, 2
	m.Data[1][0], m.Data[1][1] = 1, 2 // duplicate row -> singular
	if _, err := m.Invert(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
}

func TestInvertNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestCauchyAllSquareSubmatricesInvertible(t *testing.T) {
	// Every square submatrix of a Cauchy matrix must be invertible. Check all
	// 1x1, 2x2 and 3x3 submatrices of a modest Cauchy matrix.
	c := Cauchy(6, 4)
	rows, cols := 6, 4
	// 1x1: all entries non-zero.
	for r := 0; r < rows; r++ {
		for cc := 0; cc < cols; cc++ {
			if c.Data[r][cc] == 0 {
				t.Fatalf("cauchy entry (%d,%d) is zero", r, cc)
			}
		}
	}
	// 2x2 submatrices.
	for r1 := 0; r1 < rows; r1++ {
		for r2 := r1 + 1; r2 < rows; r2++ {
			for c1 := 0; c1 < cols; c1++ {
				for c2 := c1 + 1; c2 < cols; c2++ {
					det := Add(Mul(c.Data[r1][c1], c.Data[r2][c2]), Mul(c.Data[r1][c2], c.Data[r2][c1]))
					if det == 0 {
						t.Fatalf("2x2 cauchy submatrix (%d,%d)x(%d,%d) singular", r1, r2, c1, c2)
					}
				}
			}
		}
	}
}

func TestSelectRowsAndSubMatrix(t *testing.T) {
	m := Cauchy(6, 3)
	sel := m.SelectRows([]int{0, 2, 4})
	if sel.Rows != 3 || sel.Cols != 3 {
		t.Fatalf("SelectRows dims %dx%d", sel.Rows, sel.Cols)
	}
	for i, r := range []int{0, 2, 4} {
		for c := 0; c < 3; c++ {
			if sel.Data[i][c] != m.Data[r][c] {
				t.Fatal("SelectRows copied wrong data")
			}
		}
	}
	sub := m.SubMatrix(1, 3, 0, 2)
	if sub.Rows != 2 || sub.Cols != 2 {
		t.Fatalf("SubMatrix dims %dx%d", sub.Rows, sub.Cols)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Identity(3)
	c := m.Clone()
	c.Data[0][0] = 99
	if m.Data[0][0] != 1 {
		t.Fatal("Clone shares backing storage with original")
	}
}

func TestAugment(t *testing.T) {
	a := Identity(2)
	b := NewMatrix(2, 1)
	b.Data[0][0], b.Data[1][0] = 7, 8
	aug := a.Augment(b)
	if aug.Cols != 3 || aug.Data[0][2] != 7 || aug.Data[1][2] != 8 {
		t.Fatalf("Augment produced wrong matrix:\n%v", aug)
	}
}
