package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXORAndSelfInverse(t *testing.T) {
	f := func(a, b byte) bool {
		return Add(a, b) == (a^b) && Add(Add(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < Order; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("Mul(%d,1)=%d", a, got)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("Mul(%d,0)=%d", a, got)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributivity(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < Order; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%d, Inv(%d)) = %d, want 1", a, a, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// The field's tables are built from the element 2; it must produce every
	// non-zero element before cycling.
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < Order-1; i++ {
		if seen[x] {
			t.Fatalf("generator cycled early at step %d", i)
		}
		seen[x] = true
		x = Mul(x, 2)
	}
	if len(seen) != Order-1 {
		t.Fatalf("generator produced %d distinct elements, want %d", len(seen), Order-1)
	}
}

func TestMulSliceAccumulates(t *testing.T) {
	src := []byte{1, 2, 3, 0, 255}
	dst := []byte{10, 20, 30, 40, 50}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = Add(dst[i], Mul(7, src[i]))
	}
	MulSlice(7, src, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice mismatch at %d: got %d want %d", i, dst[i], want[i])
		}
	}
}

func TestMulSliceZeroCoefficientNoop(t *testing.T) {
	src := []byte{9, 9, 9}
	dst := []byte{1, 2, 3}
	MulSlice(0, src, dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("MulSlice with zero coefficient modified dst: %v", dst)
	}
}

func TestMulSliceAssign(t *testing.T) {
	src := []byte{0, 1, 5, 200}
	dst := make([]byte, len(src))
	MulSliceAssign(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("MulSliceAssign mismatch at %d", i)
		}
	}
	MulSliceAssign(0, src, dst)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatalf("MulSliceAssign with zero coefficient should zero dst")
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	MulSlice(1, []byte{1, 2}, []byte{1})
}
