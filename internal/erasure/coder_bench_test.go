package erasure

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchCodes = []struct{ n, k int }{{7, 4}, {9, 6}, {12, 8}}

var benchChunkSizes = []struct {
	name string
	size int
}{
	{"4KiB", 4 << 10},
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
	{"4MiB", 4 << 20},
}

func benchSetup(b *testing.B, n, k, chunkSize int) (*Code, [][]byte) {
	b.Helper()
	code, err := New(n, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, k*chunkSize)
	rng.Read(data)
	chunks, err := code.Split(data)
	if err != nil {
		b.Fatal(err)
	}
	return code, chunks
}

func BenchmarkEncode(b *testing.B) {
	for _, nk := range benchCodes {
		for _, cs := range benchChunkSizes {
			b.Run(fmt.Sprintf("n%d_k%d/%s", nk.n, nk.k, cs.name), func(b *testing.B) {
				code, chunks := benchSetup(b, nk.n, nk.k, cs.size)
				b.SetBytes(int64(nk.k * cs.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := code.Encode(chunks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReconstruct measures warm decodes of the parity-heavy pattern
// (systematic prefix dropped): after the first iteration the decode plan is
// cached, so the loop measures the steady-state hot path with no matrix
// inversion.
func BenchmarkReconstruct(b *testing.B) {
	for _, nk := range benchCodes {
		for _, cs := range benchChunkSizes {
			b.Run(fmt.Sprintf("n%d_k%d/%s", nk.n, nk.k, cs.name), func(b *testing.B) {
				code, chunks := benchSetup(b, nk.n, nk.k, cs.size)
				storage, err := code.Encode(chunks)
				if err != nil {
					b.Fatal(err)
				}
				sel := make([]Chunk, 0, nk.k)
				for idx := nk.n - nk.k; idx < nk.n; idx++ {
					sel = append(sel, Chunk{Index: idx, Data: storage[idx]})
				}
				b.SetBytes(int64(nk.k * cs.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := code.Reconstruct(sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReconstructColdPlan forces a plan-cache miss on every
// iteration, isolating the cost the decode-plan cache removes. Compare
// against BenchmarkReconstruct/n12_k8/4KiB, which reuses the plan.
func BenchmarkReconstructColdPlan(b *testing.B) {
	const n, k = 12, 8
	code, chunks := benchSetup(b, n, k, 4<<10)
	storage, err := code.Encode(chunks)
	if err != nil {
		b.Fatal(err)
	}
	sel := make([]Chunk, 0, k)
	for idx := n - k; idx < n; idx++ {
		sel = append(sel, Chunk{Index: idx, Data: storage[idx]})
	}
	b.SetBytes(int64(k * 4 << 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.plans = newPlanCache(1) // drops all cached plans
		if _, err := code.Reconstruct(sel); err != nil {
			b.Fatal(err)
		}
	}
}
