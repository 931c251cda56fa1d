package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, k    int
		wantErr bool
	}{
		{7, 4, false},
		{6, 5, false},
		{4, 4, false},
		{3, 4, true},  // n < k
		{5, 0, true},  // k < 1
		{-1, 1, true}, // negative
		{200, 100, true},
	}
	for _, tc := range cases {
		_, err := New(tc.n, tc.k)
		if (err != nil) != tc.wantErr {
			t.Errorf("New(%d,%d) err=%v, wantErr=%v", tc.n, tc.k, err, tc.wantErr)
		}
	}
}

func TestSystematicEncode(t *testing.T) {
	code, err := New(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := randomData(rng, 4*64)
	dataChunks, err := code.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(storage) != 7 {
		t.Fatalf("got %d storage chunks, want 7", len(storage))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(storage[i], dataChunks[i]) {
			t.Fatalf("chunk %d is not systematic", i)
		}
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{1, 3, 4, 17, 100, 1000, 4096} {
		data := randomData(rng, size)
		chunks, err := code.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := code.Join(chunks, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("split/join mismatch for size %d", size)
		}
	}
}

// TestSplitAliasesData pins Split's ownership rule: an exact split's chunks
// are data's own memory and cannot grow into their neighbours, and a padded
// split pads in memory of its own, never writing to data or to the spare
// capacity behind it.
func TestSplitAliasesData(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(11))
	data := randomData(rng, 4*1024)
	chunks, err := code.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chunks {
		if &ch[0] != &data[i*1024] || len(ch) != 1024 || cap(ch) != 1024 {
			t.Fatalf("exact split: chunk %d is not data[%d:%d] capped at its end", i, i*1024, (i+1)*1024)
		}
	}

	// 4101 bytes split into chunks of 1026: three views and a padded tail.
	// 5 bytes split into chunks of 2: two views, a padded chunk and a chunk
	// of padding only.
	for _, size := range []int{4*1024 + 5, 5} {
		buf := randomData(rng, size+64)
		before := bytes.Clone(buf)
		data := buf[:size]
		chunks, err := code.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, before) {
			t.Fatalf("size %d: Split wrote to data or the capacity behind it", size)
		}
		chunkSize := (size + 3) / 4
		full := size / chunkSize
		for i, ch := range chunks {
			lo := min(i*chunkSize, size)
			hi := min(lo+chunkSize, size)
			if !bytes.Equal(ch[:hi-lo], data[lo:hi]) || len(ch) != chunkSize {
				t.Fatalf("size %d: chunk %d does not hold data[%d:%d]", size, i, lo, hi)
			}
			if i < full {
				continue
			}
			if !bytes.Equal(ch[hi-lo:], make([]byte, chunkSize-(hi-lo))) {
				t.Fatalf("size %d: chunk %d is not zero-padded", size, i)
			}
			for j := range ch {
				ch[j] = ^ch[j]
			}
			if !bytes.Equal(buf, before) {
				t.Fatalf("size %d: padded chunk %d shares memory with data", size, i)
			}
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	code, _ := New(7, 4)
	if _, err := code.Split(nil); err == nil {
		t.Fatal("expected error splitting empty data")
	}
}

func TestDecodeFromAnyStorageSubset(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(3))
	data := randomData(rng, 1000)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)

	// Every 4-subset of the 7 storage chunks must decode.
	idx := []int{0, 1, 2, 3, 4, 5, 6}
	var subsets [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == 4 {
			subsets = append(subsets, append([]int(nil), cur...))
			return
		}
		for i := start; i < len(idx); i++ {
			rec(i+1, append(cur, idx[i]))
		}
	}
	rec(0, nil)
	if len(subsets) != 35 {
		t.Fatalf("expected 35 subsets, got %d", len(subsets))
	}
	for _, s := range subsets {
		chunks := make([]Chunk, 0, 4)
		for _, i := range s {
			chunks = append(chunks, Chunk{Index: i, Data: storage[i]})
		}
		got, err := code.Decode(chunks, len(data))
		if err != nil {
			t.Fatalf("decode from subset %v failed: %v", s, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("decode from subset %v produced wrong data", s)
		}
	}
}

func TestFunctionalCacheMDSProperty(t *testing.T) {
	// Core property from the paper: storage chunks + cached functional chunks
	// form an (n+d, k) MDS code, so *any* k chunks from the union decode.
	code, _ := New(6, 5) // the paper's illustrative example
	rng := rand.New(rand.NewSource(4))
	data := randomData(rng, 5*100)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)
	cached, err := code.CacheChunks(dataChunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Chunk, 0, 8)
	for i, ch := range storage {
		all = append(all, Chunk{Index: i, Data: ch})
	}
	for i, ch := range cached {
		all = append(all, Chunk{Index: code.CacheChunkIndex(i), Data: ch})
	}
	// 500 random 5-subsets of the 8 available chunks must all decode.
	for trial := 0; trial < 500; trial++ {
		perm := rng.Perm(len(all))[:5]
		sel := make([]Chunk, 0, 5)
		for _, p := range perm {
			sel = append(sel, all[p])
		}
		got, err := code.Decode(sel, len(data))
		if err != nil {
			t.Fatalf("decode failed for subset %v: %v", perm, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("wrong decode for subset %v", perm)
		}
	}
}

func TestFullExtendedCodeIsMDSQuick(t *testing.T) {
	// Property-based: for random (n,k) and random data, any k of the n+k
	// extended chunks reconstruct the original data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		n := k + rng.Intn(6)
		code, err := New(n, k)
		if err != nil {
			return false
		}
		data := randomData(rng, k*16+rng.Intn(50)+1)
		dataChunks, err := code.Split(data)
		if err != nil {
			return false
		}
		all := make([]Chunk, 0, n+k)
		for i := 0; i < code.TotalChunks(); i++ {
			ch, err := code.ChunkAt(i, dataChunks)
			if err != nil {
				return false
			}
			all = append(all, Chunk{Index: i, Data: ch})
		}
		perm := rng.Perm(len(all))[:k]
		sel := make([]Chunk, 0, k)
		for _, p := range perm {
			sel = append(sel, all[p])
		}
		got, err := code.Decode(sel, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructErrors(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(5))
	data := randomData(rng, 64)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)

	// Too few chunks.
	if _, err := code.Reconstruct([]Chunk{{Index: 0, Data: storage[0]}}); err == nil {
		t.Fatal("expected error with too few chunks")
	}
	// Duplicate index.
	dup := []Chunk{
		{Index: 0, Data: storage[0]}, {Index: 0, Data: storage[0]},
		{Index: 1, Data: storage[1]}, {Index: 2, Data: storage[2]},
	}
	if _, err := code.Reconstruct(dup); err == nil {
		t.Fatal("expected error with duplicate chunk index")
	}
	// Out of range index.
	bad := []Chunk{
		{Index: 99, Data: storage[0]}, {Index: 1, Data: storage[1]},
		{Index: 2, Data: storage[2]}, {Index: 3, Data: storage[3]},
	}
	if _, err := code.Reconstruct(bad); err == nil {
		t.Fatal("expected error with out-of-range index")
	}
	// Size mismatch.
	mismatch := []Chunk{
		{Index: 0, Data: storage[0][:8]}, {Index: 1, Data: storage[1]},
		{Index: 2, Data: storage[2]}, {Index: 3, Data: storage[3]},
	}
	if _, err := code.Reconstruct(mismatch); err == nil {
		t.Fatal("expected error with chunk size mismatch")
	}
}

func TestCacheChunksValidation(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(6))
	dataChunks, _ := code.Split(randomData(rng, 64))
	if _, err := code.CacheChunks(dataChunks, -1); err == nil {
		t.Fatal("expected error for d < 0")
	}
	if _, err := code.CacheChunks(dataChunks, 5); err == nil {
		t.Fatal("expected error for d > k")
	}
	chunks, err := code.CacheChunks(dataChunks, 0)
	if err != nil || len(chunks) != 0 {
		t.Fatalf("d=0 should produce no chunks, got %d err %v", len(chunks), err)
	}
}

func TestVerify(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(8))
	dataChunks, _ := code.Split(randomData(rng, 256))
	chunk, _ := code.ChunkAt(5, dataChunks)
	if err := code.Verify(5, chunk, dataChunks); err != nil {
		t.Fatalf("verify of valid chunk failed: %v", err)
	}
	corrupted := append([]byte(nil), chunk...)
	corrupted[0] ^= 0xff
	if err := code.Verify(5, corrupted, dataChunks); err == nil {
		t.Fatal("verify of corrupted chunk should fail")
	}
}

func TestChunkAtOutOfRange(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(11))
	dataChunks, _ := code.Split(randomData(rng, 64))
	if _, err := code.ChunkAt(-1, dataChunks); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, err := code.ChunkAt(11, dataChunks); err == nil {
		t.Fatal("expected error for index >= n+k")
	}
}

func BenchmarkEncode7of4_1MB(b *testing.B) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(12))
	data := randomData(rng, 1<<20)
	dataChunks, _ := code.Split(data)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(dataChunks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode7of4_1MB(b *testing.B) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(13))
	data := randomData(rng, 1<<20)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)
	chunks := []Chunk{
		{Index: 3, Data: storage[3]},
		{Index: 4, Data: storage[4]},
		{Index: 5, Data: storage[5]},
		{Index: 6, Data: storage[6]},
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Reconstruct(chunks); err != nil {
			b.Fatal(err)
		}
	}
}
