package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulSliceRef is the seed scalar kernel, kept as the reference the
// nibble-table kernels must match (and the baseline the benchmarks
// compare against).
func mulSliceRef(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := logTable[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+logTable[s]]
		}
	}
}

// TestNibbleTablesExhaustive checks all 256x256 products of the nibble
// decomposition against the scalar log/exp Mul.
func TestNibbleTablesExhaustive(t *testing.T) {
	for c := 0; c < Order; c++ {
		for x := 0; x < Order; x++ {
			want := Mul(byte(c), byte(x))
			got := mulTableLow[c][x&0x0f] ^ mulTableHigh[c][x>>4]
			if got != want {
				t.Fatalf("nibble tables: %d*%d = %d, want %d", c, x, got, want)
			}
		}
	}
}

func TestMulInvIdentity(t *testing.T) {
	for x := 1; x < Order; x++ {
		if got := Mul(byte(x), Inv(byte(x))); got != 1 {
			t.Fatalf("Mul(%d, Inv(%d)) = %d, want 1", x, x, got)
		}
	}
}

// TestMulSliceMatchesReference exercises the unrolled kernels, including
// odd tail lengths, against the scalar reference for every coefficient.
func TestMulSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1024, 4097} {
		src := make([]byte, size)
		base := make([]byte, size)
		rng.Read(src)
		rng.Read(base)
		for c := 0; c < Order; c++ {
			want := append([]byte(nil), base...)
			got := append([]byte(nil), base...)
			mulSliceRef(byte(c), src, want)
			MulSlice(byte(c), src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%d, size=%d) diverges from reference", c, size)
			}

			wantA := make([]byte, size)
			gotA := append([]byte(nil), base...)
			copy(wantA, base)
			for i := range wantA {
				wantA[i] = Mul(byte(c), src[i])
			}
			MulSliceAssign(byte(c), src, gotA)
			if !bytes.Equal(gotA, wantA) {
				t.Fatalf("MulSliceAssign(c=%d, size=%d) diverges from reference", c, size)
			}
		}
	}
}

// TestMulSliceGenericPath re-runs the equivalence check with the assembly
// kernels disabled so the portable loops are covered on amd64 too.
func TestMulSliceGenericPath(t *testing.T) {
	saved := asmEnabled
	asmEnabled = false
	defer func() { asmEnabled = saved }()
	TestMulSliceMatchesReference(t)
}

// rowTier is one MulRows kernel tier, selected through the package's CPU
// flags the way TestMulSliceGenericPath selects the portable loops.
type rowTier struct {
	name      string
	gfni, asm bool
	// lacks is why the CPU cannot run the tier, empty when it can.
	lacks string
}

// rowTiers lists every tier, best first, with the flags as detected.
func rowTiers() []rowTier {
	tiers := []rowTier{
		{name: "gfni", gfni: true, asm: asmEnabled},
		{name: "avx2", asm: true},
		{name: "generic"},
	}
	if !gfniEnabled {
		tiers[0].lacks = "the CPU or OS lacks GFNI with AVX-512"
	}
	if !asmEnabled {
		tiers[1].lacks = "the CPU or OS lacks AVX2"
	}
	return tiers
}

// use selects the tier's kernels, or skips tb, saying why, when the CPU
// lacks them. It returns the function that restores the detected tier.
func (tier rowTier) use(tb testing.TB) (restore func()) {
	if tier.lacks != "" {
		tb.Skipf("tier %s not exercised: %s", tier.name, tier.lacks)
	}
	savedGFNI, savedAsm := gfniEnabled, asmEnabled
	gfniEnabled, asmEnabled = tier.gfni, tier.asm
	return func() { gfniEnabled, asmEnabled = savedGFNI, savedAsm }
}

// mulRowsRef is MulRows in assign mode computed with the scalar Mul.
func mulRowsRef(rows, srcs [][]byte, size int) [][]byte {
	want := make([][]byte, len(rows))
	for r, row := range rows {
		want[r] = make([]byte, size)
		for j, c := range row {
			for i, s := range srcs[j] {
				want[r][i] ^= Mul(c, s)
			}
		}
	}
	return want
}

// TestMulRowsTiers checks every kernel tier the CPU has against the scalar
// Mul: sizes around the vector width and the block size, 1-8 sources, 1-4
// rows, coefficients 0, 1 and random, and both modes over outputs that
// start out as garbage. The largest size, many blocks and a ragged tail,
// runs a sample of the shapes: the scalar reference is slow under -race.
func TestMulRowsTiers(t *testing.T) {
	const large = 256<<10 + 17
	sizes := []int{0, 1, 63, 64, 65, rowBlockBytes - 1, rowBlockBytes + 1, large}
	for _, tier := range rowTiers() {
		t.Run(tier.name, func(t *testing.T) {
			defer tier.use(t)()
			rng := rand.New(rand.NewSource(3))
			cases := 0
			for _, size := range sizes {
				for k := 1; k <= 8; k++ {
					for nrows := 1; nrows <= 4; nrows++ {
						if size == large && (k != 1 && k != 8 || nrows != 1 && nrows != 4) {
							continue
						}
						srcs := make([][]byte, k)
						for j := range srcs {
							srcs[j] = make([]byte, size)
							rng.Read(srcs[j])
						}
						rows := make([][]byte, nrows)
						for r := range rows {
							rows[r] = make([]byte, k)
							for j := range rows[r] {
								switch (r + j) % 3 {
								case 0:
								case 1:
									rows[r][j] = 1
								default:
									rows[r][j] = byte(2 + rng.Intn(Order-2))
								}
							}
						}
						want := mulRowsRef(rows, srcs, size)
						for _, assign := range []bool{true, false} {
							garbage := make([][]byte, nrows)
							outs := make([][]byte, nrows)
							for r := range outs {
								garbage[r] = make([]byte, size)
								rng.Read(garbage[r])
								outs[r] = bytes.Clone(garbage[r])
							}
							MulRows(rows, srcs, outs, assign)
							for r := range outs {
								exp := bytes.Clone(want[r])
								if !assign {
									xorSlice(garbage[r], exp)
								}
								if !bytes.Equal(outs[r], exp) {
									t.Fatalf("MulRows(size=%d, sources=%d, row %d of %d, assign=%v) diverges from Mul", size, k, r, nrows, assign)
								}
							}
							cases++
						}
					}
				}
			}
			t.Logf("tier %s: %d cases match the scalar reference", tier.name, cases)
		})
	}
}

func TestMulRowsPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	buf := func() []byte { return make([]byte, 4) }
	assertPanics("row/src mismatch", func() {
		MulRows([][]byte{{1, 2}}, [][]byte{buf()}, [][]byte{buf()}, true)
	})
	assertPanics("row/out mismatch", func() {
		MulRows([][]byte{{1}, {2}}, [][]byte{buf()}, [][]byte{buf()}, true)
	})
	assertPanics("source length mismatch", func() {
		MulRows([][]byte{{1}}, [][]byte{make([]byte, 3)}, [][]byte{buf()}, false)
	})
	assertPanics("output length mismatch", func() {
		MulRows([][]byte{{1}, {1}}, [][]byte{buf()}, [][]byte{buf(), make([]byte, 5)}, false)
	})
}

func benchmarkMulSlice(b *testing.B, kernel func(c byte, src, dst []byte), size int) {
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(0x9c, src, dst)
	}
}

func BenchmarkMulSlice(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"4KiB", 4 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
		{"4MiB", 4 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) { benchmarkMulSlice(b, MulSlice, bc.size) })
	}
}

// BenchmarkMulSliceSeed measures the retired scalar kernel on the same
// workload, so one run shows the nibble-table speedup directly.
func BenchmarkMulSliceSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"1MiB", 1 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) { benchmarkMulSlice(b, mulSliceRef, bc.size) })
	}
}

// BenchmarkMulRows is a (7,4) parity encode of a 1 MiB object in one
// call: 3 rows over 4 sources of 256 KiB, written in assign mode, once per
// tier the CPU has.
func BenchmarkMulRows(b *testing.B) {
	const k, nrows, size = 4, 3, 256 << 10
	srcs := make([][]byte, k)
	for j := range srcs {
		srcs[j] = make([]byte, size)
		for i := range srcs[j] {
			srcs[j][i] = byte(i + j)
		}
	}
	rows := make([][]byte, nrows)
	outs := make([][]byte, nrows)
	for r := range rows {
		rows[r] = make([]byte, k)
		for j := range rows[r] {
			rows[r][j] = byte(r*37 + j*11 + 2)
		}
		outs[r] = make([]byte, size)
	}
	for _, tier := range rowTiers() {
		b.Run(tier.name, func(b *testing.B) {
			defer tier.use(b)()
			b.SetBytes(k * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulRows(rows, srcs, outs, true)
			}
		})
	}
}
