package objstore

import (
	"bytes"
	"context"
	"hash/crc32"
	"testing"
	"unsafe"
)

// overlaps reports whether two slices share memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// TestImmutableChunkIsHandedOverNotCopied pins the ownership rule at the
// OSD: PutChunk stores the very slice it is given and GetChunk returns that
// same slice, so a caller that kept writing to its buffer after PutChunk
// would be writing to the stored chunk — which is why the rule forbids it.
func TestImmutableChunkIsHandedOverNotCopied(t *testing.T) {
	_, pool := healthTestCluster(t)
	osd := pool.OSDs()[0]
	ctx := context.Background()
	chunk := []byte("a chunk handed to the store")
	if err := osd.PutChunk(ctx, "k", chunk); err != nil {
		t.Fatal(err)
	}
	got, err := osd.GetChunk(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &chunk[0] || len(got) != len(chunk) {
		t.Fatal("GetChunk returned a copy; chunks must cross the OSD by reference in both directions")
	}
	if snap := osd.Chunks(); len(snap) != 1 || &snap["k"][0] != &chunk[0] {
		t.Fatalf("Chunks snapshot does not hold the stored slice: %d entries", len(snap))
	}
	// Replacing or deleting a chunk drops the store's reference only: a
	// reader that fetched the old chunk keeps valid, unchanged bytes.
	want := string(got)
	if err := osd.PutChunk(ctx, "k", []byte("its replacement")); err != nil {
		t.Fatal(err)
	}
	if err := osd.DeleteChunk("k"); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("a fetched chunk changed when its key was replaced and deleted")
	}
}

// TestImmutablePutVKeepsNoCallerMemory shows where the copy boundary of the
// in-process write path is: PutV copies the object once (a clone, which
// Split cuts into views) and stores chunks that share no memory with the
// caller's buffer, so scribbling over
// the buffer afterwards changes no stored byte — for the first write and
// for an overwrite alike.
func TestImmutablePutVKeepsNoCallerMemory(t *testing.T) {
	_, pool := healthTestCluster(t)
	ctx := context.Background()
	data := make([]byte, 10_001) // not a multiple of k: the last data chunk is padded
	for round := 0; round < 2; round++ {
		for i := range data {
			data[i] = byte(i*13 + round)
		}
		want := append([]byte(nil), data...)
		if _, err := pool.PutV(ctx, "obj", data); err != nil {
			t.Fatal(err)
		}
		sums := map[string]uint32{}
		for _, osd := range pool.OSDs() {
			for key, chunk := range osd.Chunks() {
				if overlaps(chunk, data) {
					t.Fatalf("round %d: stored chunk %s aliases the caller's buffer", round, key)
				}
				sums[key] = crc32.ChecksumIEEE(chunk)
			}
		}
		if len(sums) < pool.N {
			t.Fatalf("round %d: %d chunks stored, want at least %d", round, len(sums), pool.N)
		}
		for i := range data {
			data[i] = 0xEE
		}
		for _, osd := range pool.OSDs() {
			for key, chunk := range osd.Chunks() {
				if crc32.ChecksumIEEE(chunk) != sums[key] {
					t.Fatalf("round %d: stored chunk %s changed when the caller reused its buffer", round, key)
				}
			}
		}
		got, err := pool.Get(ctx, "obj")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: object read back differs from what was written", round)
		}
	}
}
