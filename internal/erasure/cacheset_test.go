package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sprout/internal/racedetect"
)

// subsets calls visit with every size-element subset of 0..n-1.
func subsets(n, size int, visit func([]int)) {
	pick := make([]int, 0, size)
	var rec func(from int)
	rec = func(from int) {
		if len(pick) == size {
			visit(pick)
			return
		}
		for i := from; i < n; i++ {
			pick = append(pick, i)
			rec(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0)
}

// TestCacheRowsDecodeWithAnyStorageSubset is Section III made executable for
// the (7,4) code: for every allocation d, the cached rows together with every
// (k-d)-subset of the n storage rows decode to the data. For 0 < d < k that
// needs the cached rows to be functional (disjoint from the storage rows, or
// some subsets would repeat a row); for d = k nothing is fetched, the
// constraint is vacuous, and the set is the one that decodes without a single
// coded operation.
func TestCacheRowsDecodeWithAnyStorageSubset(t *testing.T) {
	const n, k = 7, 4
	code, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(rand.New(rand.NewSource(9)), k*97-3)
	dataChunks, err := code.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= k; d++ {
		rows := code.CacheRows(d)
		set, err := code.CacheSet(dataChunks, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != d || len(set) != d {
			t.Fatalf("d=%d: %d rows, %d chunks", d, len(rows), len(set))
		}
		cached := make([]Chunk, d)
		for i, row := range rows {
			if d < k && row < n {
				t.Fatalf("d=%d: cached row %d is a storage row", d, row)
			}
			if d == k && row != i {
				t.Fatalf("d=k: cached rows %v, want 0..%d", rows, k-1)
			}
			if want, err := code.ChunkAt(row, dataChunks); err != nil || !bytes.Equal(set[i], want) {
				t.Fatalf("d=%d: chunk for row %d does not match its encoding (%v)", d, row, err)
			}
			cached[i] = Chunk{Index: row, Data: set[i]}
		}
		before := code.Stats()
		decodes := 0
		subsets(n, k-d, func(pick []int) {
			chunks := append([]Chunk(nil), cached...)
			for _, idx := range pick {
				chunks = append(chunks, Chunk{Index: idx, Data: storage[idx]})
			}
			got, err := code.Decode(chunks, len(data))
			if err != nil {
				t.Fatalf("d=%d with storage rows %v: %v", d, pick, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("d=%d with storage rows %v: wrong bytes", d, pick)
			}
			decodes++
		})
		if d == k {
			after := code.Stats()
			if decodes != 1 || after.CopyOnlyDecodes-before.CopyOnlyDecodes != 1 ||
				after.ParallelOps != before.ParallelOps || after.SerialOps != before.SerialOps {
				t.Fatalf("d=k decode did coded work: before %+v after %+v", before, after)
			}
		}
	}
	if got := code.CacheRows(k + 3); len(got) != k || got[0] != 0 {
		t.Fatalf("CacheRows past k = %v, want the systematic rows", got)
	}
	if got := code.CacheRows(-1); len(got) != 0 {
		t.Fatalf("CacheRows(-1) = %v, want none", got)
	}
}

// TestCacheSetFullIsByReference pins the d = k contract: no copy, so the
// caller's ownership rule (never write to the chunks again) is what keeps a
// cached file intact.
func TestCacheSetFullIsByReference(t *testing.T) {
	code, _ := New(5, 3)
	dataChunks, _ := code.Split([]byte("nine bytes"))
	set, err := code.CacheSet(dataChunks, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		if &set[i][0] != &dataChunks[i][0] {
			t.Fatalf("chunk %d was copied", i)
		}
	}
	partial, err := code.CacheSet(dataChunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := code.CacheChunks(dataChunks, 2)
	for i := range partial {
		if !bytes.Equal(partial[i], want[i]) {
			t.Fatalf("partial set chunk %d differs from the functional chunk", i)
		}
	}
	if _, err := code.CacheSet(dataChunks[:2], 3); err == nil {
		t.Fatal("short data chunk list accepted")
	}
	if _, err := code.CacheSet(dataChunks, 4); err == nil {
		t.Fatal("d > k accepted")
	}
}

func TestEncodeParityMatchesEncode(t *testing.T) {
	for _, nk := range []struct{ n, k int }{{7, 4}, {3, 3}} {
		code, err := New(nk.n, nk.k)
		if err != nil {
			t.Fatal(err)
		}
		dataChunks, _ := code.Split(randomData(rand.New(rand.NewSource(3)), 1001))
		full, err := code.Encode(dataChunks)
		if err != nil {
			t.Fatal(err)
		}
		parity, err := code.EncodeParity(dataChunks)
		if err != nil {
			t.Fatal(err)
		}
		if len(parity) != nk.n-nk.k {
			t.Fatalf("(%d,%d): %d parity chunks", nk.n, nk.k, len(parity))
		}
		for i, ch := range parity {
			if !bytes.Equal(ch, full[nk.k+i]) {
				t.Fatalf("(%d,%d): parity chunk %d differs from Encode's", nk.n, nk.k, i)
			}
		}
		for i := 0; i < nk.k; i++ {
			if &full[i][0] == &dataChunks[i][0] {
				t.Fatalf("Encode aliases data chunk %d", i)
			}
		}
		if st := code.Stats(); st.Encodes != 2 {
			t.Fatalf("encodes counted = %d, want 2", st.Encodes)
		}
	}
	code, _ := New(5, 3)
	if _, err := code.EncodeParity(nil); err == nil {
		t.Fatal("EncodeParity accepted no data chunks")
	}
}

// decodeInverses are the three shapes a decode's inverse can take, as chunk
// index sets of the (7,4) code.
var decodeInverses = []struct {
	name    string
	indices []int
}{
	{"all-unit", []int{0, 1, 2, 3}},
	{"mixed", []int{8, 0, 5, 2}},
	{"all-dense", []int{4, 5, 9, 10}},
}

func TestDecodeInto(t *testing.T) {
	const n, k = 7, 4
	code, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	sc := new(DecodeScratch)
	for _, size := range []int{1, 5, 4 * 64, 4*64 - 1, 4*64 - 3, 1000} {
		data := randomData(rng, size)
		chunkSize := (size + k - 1) / k
		for _, inv := range decodeInverses {
			chunks := reconstructInput(t, code, data, inv.indices)
			joined, err := code.Reconstruct(chunks)
			if err != nil {
				t.Fatal(err)
			}
			want, err := code.AppendJoin(nil, joined, size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, data) {
				t.Fatal("reference decode is wrong")
			}
			for _, dst := range []struct {
				name string
				buf  []byte
			}{
				{"nil", nil},
				{"short", make([]byte, size/2)},
				{"exact", make([]byte, size)},
				{"whole-chunks", make([]byte, 3, k*chunkSize)},
				{"oversized", bytes.Repeat([]byte{0xEE}, 2*k*chunkSize+7)},
			} {
				name := fmt.Sprintf("size=%d/%s/dst=%s", size, inv.name, dst.name)
				got, err := code.DecodeInto(sc, dst.buf, chunks, size)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: wrong bytes", name)
				}
				wantReuse := cap(dst.buf) >= k*chunkSize
				if reused := cap(dst.buf) > 0 && &got[0] == &dst.buf[:1][0]; reused != wantReuse {
					t.Fatalf("%s: dst reused = %v, want %v", name, reused, wantReuse)
				}
				// The padding rows decode to zero, which is what lets the
				// read plane hand payload[:k*chunk] to a fill as data chunks.
				for _, b := range got[size : k*chunkSize] {
					if b != 0 {
						t.Fatalf("%s: padding not zero", name)
					}
				}
			}
			if viaDecode, err := code.Decode(chunks, size); err != nil || !bytes.Equal(viaDecode, data) {
				t.Fatalf("size=%d/%s: Decode: %v", size, inv.name, err)
			}
		}
	}

	data := randomData(rng, 100)
	chunks := reconstructInput(t, code, data, []int{0, 1, 2, 3})
	if _, err := code.DecodeInto(sc, nil, chunks, 101); err == nil {
		t.Fatal("size past the decoded bytes accepted")
	}
	if _, err := code.DecodeInto(sc, nil, chunks, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := code.DecodeInto(sc, nil, chunks[:3], 100); err == nil {
		t.Fatal("k-1 chunks accepted")
	}
	if got, err := code.DecodeInto(sc, nil, chunks, 0); err != nil || len(got) != 0 {
		t.Fatalf("size 0: %v, %d bytes", err, len(got))
	}
}

// TestDecodeIntoReleasesReferences checks a parked scratch pins neither the
// caller's buffer nor the chunk payloads.
func TestDecodeIntoReleasesReferences(t *testing.T) {
	code, _ := New(7, 4)
	data := randomData(rand.New(rand.NewSource(2)), 400)
	sc := new(DecodeScratch)
	for _, inv := range decodeInverses {
		if _, err := code.DecodeInto(sc, nil, reconstructInput(t, code, data, inv.indices), len(data)); err != nil {
			t.Fatal(err)
		}
		for _, views := range [][][]byte{sc.outs, sc.payloads, sc.denseOuts[:cap(sc.denseOuts)]} {
			for i, v := range views {
				if v != nil {
					t.Fatalf("%s: scratch still references buffer %d", inv.name, i)
				}
			}
		}
		for _, ch := range sc.use {
			if ch.Data != nil {
				t.Fatalf("%s: scratch still references a chunk payload", inv.name)
			}
		}
		if sc.backing != nil {
			t.Fatalf("%s: DecodeInto grew the reconstruct backing", inv.name)
		}
	}
}

// decodeIntoBench builds the (7,4) input for one inverse shape at 256 KiB
// chunks — the large-rw benchmark workload's geometry.
func decodeIntoBench(tb testing.TB, indices []int) (*Code, []Chunk, int) {
	tb.Helper()
	const n, k, chunkSize = 7, 4, 256 << 10
	code, err := New(n, k)
	if err != nil {
		tb.Fatal(err)
	}
	data := randomData(rand.New(rand.NewSource(42)), k*chunkSize)
	dataChunks, err := code.Split(data)
	if err != nil {
		tb.Fatal(err)
	}
	chunks := make([]Chunk, 0, k)
	for _, idx := range indices {
		ch, err := code.ChunkAt(idx, dataChunks)
		if err != nil {
			tb.Fatal(err)
		}
		chunks = append(chunks, Chunk{Index: idx, Data: ch})
	}
	return code, chunks, len(data)
}

// TestDecodeIntoZeroAlloc: a warm decode into a reused buffer allocates
// nothing, whatever the inverse — including the striped kernels the dense
// rows of 256 KiB chunks go through.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	for _, inv := range decodeInverses {
		code, chunks, size := decodeIntoBench(t, inv.indices)
		sc := new(DecodeScratch)
		dst, err := code.DecodeInto(sc, nil, chunks, size)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if dst, err = code.DecodeInto(sc, dst, chunks, size); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm DecodeInto allocates %.1f/op, want 0", inv.name, allocs)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	for _, inv := range decodeInverses {
		b.Run(inv.name, func(b *testing.B) {
			code, chunks, size := decodeIntoBench(b, inv.indices)
			sc := new(DecodeScratch)
			dst, err := code.DecodeInto(sc, nil, chunks, size)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = code.DecodeInto(sc, dst, chunks, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
