package erasure

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestDecodePlanCacheColdWarm checks that a warm decode (plan-cache hit)
// returns byte-identical results to the cold decode that populated the
// plan, and that the counters record exactly one miss per pattern.
func TestDecodePlanCacheColdWarm(t *testing.T) {
	code, err := New(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	data := randomData(rng, 6*4096)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)

	sel := make([]Chunk, 0, 6)
	for _, idx := range []int{1, 3, 4, 6, 7, 8} {
		sel = append(sel, Chunk{Index: idx, Data: storage[idx]})
	}
	cold, err := code.Reconstruct(sel)
	if err != nil {
		t.Fatal(err)
	}
	s := code.Stats()
	if s.PlanMisses != 1 || s.PlanHits != 0 {
		t.Fatalf("after cold decode: hits=%d misses=%d, want 0/1", s.PlanHits, s.PlanMisses)
	}
	for i := 0; i < 5; i++ {
		warm, err := code.Reconstruct(sel)
		if err != nil {
			t.Fatal(err)
		}
		for r := range warm {
			if !bytes.Equal(warm[r], cold[r]) {
				t.Fatalf("warm decode %d differs from cold decode at data chunk %d", i, r)
			}
		}
	}
	s = code.Stats()
	if s.PlanMisses != 1 || s.PlanHits != 5 {
		t.Fatalf("after warm decodes: hits=%d misses=%d, want 5/1", s.PlanHits, s.PlanMisses)
	}
	if s.PlansCached != 1 {
		t.Fatalf("plans cached = %d, want 1", s.PlansCached)
	}
}

// TestDecodePlanCacheOrderInvariant checks that permutations of the same
// chunk subset share one plan and decode identically.
func TestDecodePlanCacheOrderInvariant(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(22))
	data := randomData(rng, 4*1024)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)

	subset := []int{2, 4, 5, 6}
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(subset))
		sel := make([]Chunk, 0, len(subset))
		for _, p := range perm {
			sel = append(sel, Chunk{Index: subset[p], Data: storage[subset[p]]})
		}
		got, err := code.Decode(sel, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("permuted decode %v produced wrong data", perm)
		}
	}
	if s := code.Stats(); s.PlanMisses != 1 {
		t.Fatalf("permutations of one subset caused %d plan misses, want 1", s.PlanMisses)
	}
}

// TestDecodePlanCacheEviction drives more erasure patterns than the cache
// bound and checks the LRU stays bounded while decodes remain correct.
func TestDecodePlanCacheEviction(t *testing.T) {
	code, _ := New(7, 4)
	code.plans = newPlanCache(2)
	rng := rand.New(rand.NewSource(23))
	data := randomData(rng, 4*512)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)

	patterns := [][]int{{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6}}
	for round := 0; round < 3; round++ {
		for _, pat := range patterns {
			sel := make([]Chunk, 0, 4)
			for _, idx := range pat {
				sel = append(sel, Chunk{Index: idx, Data: storage[idx]})
			}
			got, err := code.Decode(sel, len(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("decode with pattern %v produced wrong data", pat)
			}
		}
	}
	s := code.Stats()
	if s.PlansCached > 2 {
		t.Fatalf("plan cache holds %d entries, bound is 2", s.PlansCached)
	}
	// Cycling 4 patterns through a 2-entry LRU evicts every plan before its
	// next use, so every decode is a miss.
	if s.PlanMisses != 12 {
		t.Fatalf("plan misses = %d, want 12 (every decode a miss under thrashing)", s.PlanMisses)
	}
}

// TestEncodeDropDecodeRoundTrip is a randomized round-trip: encode, keep a
// random k-subset of storage+cache chunks, decode, compare. It covers both
// serial and striped paths via small and large chunk sizes.
func TestEncodeDropDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{37, 4 << 10, parallelThreshold + 511}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, chunkSize := range sizes {
		for trial := 0; trial < 20; trial++ {
			k := 1 + rng.Intn(8)
			n := k + rng.Intn(6)
			code, err := New(n, k)
			if err != nil {
				t.Fatal(err)
			}
			data := randomData(rng, k*chunkSize-rng.Intn(chunkSize))
			dataChunks, err := code.Split(data)
			if err != nil {
				t.Fatal(err)
			}
			storage, err := code.Encode(dataChunks)
			if err != nil {
				t.Fatal(err)
			}
			cacheChunks, err := code.CacheChunks(dataChunks, k)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]Chunk, 0, n+k)
			for i, ch := range storage {
				all = append(all, Chunk{Index: i, Data: ch})
			}
			for i, ch := range cacheChunks {
				all = append(all, Chunk{Index: code.CacheChunkIndex(i), Data: ch})
			}
			perm := rng.Perm(len(all))[:k]
			sel := make([]Chunk, 0, k)
			for _, p := range perm {
				sel = append(sel, all[p])
			}
			got, err := code.Decode(sel, len(data))
			if err != nil {
				t.Fatalf("(n=%d,k=%d,size=%d) decode: %v", n, k, chunkSize, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("(n=%d,k=%d,size=%d) round trip corrupted data", n, k, chunkSize)
			}
		}
	}
}

// TestCoderStatsCounts checks the operation and byte counters.
func TestCoderStatsCounts(t *testing.T) {
	code, _ := New(7, 4)
	rng := rand.New(rand.NewSource(25))
	data := randomData(rng, 4*256)
	dataChunks, _ := code.Split(data)
	storage, _ := code.Encode(dataChunks)
	sel := []Chunk{
		{Index: 3, Data: storage[3]}, {Index: 4, Data: storage[4]},
		{Index: 5, Data: storage[5]}, {Index: 6, Data: storage[6]},
	}
	if _, err := code.Reconstruct(sel); err != nil {
		t.Fatal(err)
	}
	s := code.Stats()
	if s.Encodes != 1 || s.Reconstructs != 1 {
		t.Fatalf("encodes=%d reconstructs=%d, want 1/1", s.Encodes, s.Reconstructs)
	}
	chunkSize := len(dataChunks[0])
	if want := int64(4 * chunkSize); s.BytesEncoded != want || s.BytesReconstructed != want {
		t.Fatalf("bytes encoded/reconstructed = %d/%d, want %d", s.BytesEncoded, s.BytesReconstructed, want)
	}
	if s.SerialOps == 0 {
		t.Fatalf("small chunks should run serially, got serialOps=0 (parallelOps=%d)", s.ParallelOps)
	}
}

// TestStripedMatchesSerial encodes and reconstructs the same payload above
// and below the parallel threshold via a size-preserving split, checking
// the striped path byte-for-byte against the serial one.
func TestStripedMatchesSerial(t *testing.T) {
	code, _ := New(9, 6)
	rng := rand.New(rand.NewSource(26))
	chunkSize := parallelThreshold + 4096 + 3 // odd size, above threshold
	data := randomData(rng, 6*chunkSize)
	dataChunks, _ := code.Split(data)

	striped, err := code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: encode each chunk index via per-stripe sub-slices of
	// size below the threshold.
	for idx := 6; idx < 9; idx++ {
		ref := make([]byte, 0, chunkSize)
		step := 32 << 10
		for lo := 0; lo < chunkSize; lo += step {
			hi := lo + step
			if hi > chunkSize {
				hi = chunkSize
			}
			sub := make([][]byte, 6)
			for j := range sub {
				sub[j] = dataChunks[j][lo:hi]
			}
			part, err := code.ChunkAt(idx, sub)
			if err != nil {
				t.Fatal(err)
			}
			ref = append(ref, part...)
		}
		if !bytes.Equal(striped[idx], ref) {
			t.Fatalf("striped parity chunk %d differs from serial reference", idx)
		}
	}
	if s := code.Stats(); s.ParallelOps == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("large encode should stripe, got parallelOps=0")
	}
}
