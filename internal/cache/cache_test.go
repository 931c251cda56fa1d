package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestFunctionalCachePutGet: a chunk stored with ReplaceFile comes back
// from VisitFile, and each visit counts as one hit or miss.
func TestFunctionalCachePutGet(t *testing.T) {
	c := NewFunctionalCache(3)
	if c.Capacity() != 3 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	if _, ok := c.ReplaceFile(1, []int{7}, [][]byte{[]byte("abc")}); !ok {
		t.Fatal("replace failed on empty cache")
	}
	var got []byte
	c.VisitFile(1, func(idx int, data []byte) bool {
		if idx == 7 {
			got = data
		}
		return true
	})
	if string(got) != "abc" {
		t.Fatalf("visit of chunk 7 = %q", got)
	}
	c.VisitFile(2, func(int, []byte) bool { t.Error("visited a chunk of an uncached file"); return true })
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

// VisitFile is the only lookup the controller's read plane makes; it must
// show in Stats, one hit or miss per visit however many chunks it yields.
func TestFunctionalCacheVisitFileCounted(t *testing.T) {
	c := NewFunctionalCache(4)
	c.ReplaceFile(1, []int{0, 1}, [][]byte{[]byte("a"), []byte("b")})
	seen := 0
	c.VisitFile(1, func(int, []byte) bool { seen++; return true })
	c.VisitFile(1, func(int, []byte) bool { return false })
	c.VisitFile(2, func(int, []byte) bool { t.Error("visited a chunk of an uncached file"); return true })
	if seen != 2 {
		t.Fatalf("visited %d chunks, want 2", seen)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses, want 2 and 1", hits, misses)
	}
	visit := func(int, []byte) bool { return true }
	if allocs := testing.AllocsPerRun(100, func() { c.VisitFile(1, visit) }); allocs != 0 {
		t.Fatalf("VisitFile allocates %v times per call", allocs)
	}
}

func TestFunctionalCacheCapacityEnforced(t *testing.T) {
	c := NewFunctionalCache(2)
	_, ok1 := c.ReplaceFile(1, []int{0, 1}, [][]byte{[]byte("a"), []byte("b")})
	_, ok2 := c.ReplaceFile(2, []int{0}, [][]byte{[]byte("c")})
	if !ok1 {
		t.Fatal("a set that fits should be stored")
	}
	if ok2 {
		t.Fatal("a set past capacity should be rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// Replacing a file's set frees its own slots first.
	if _, ok := c.ReplaceFile(1, []int{0, 1}, [][]byte{[]byte("a2"), []byte("b2")}); !ok {
		t.Fatal("replacing a stored set with one of the same size should succeed")
	}
}

func TestFunctionalCacheNegativeCapacity(t *testing.T) {
	c := NewFunctionalCache(-5)
	if c.Capacity() != 0 {
		t.Fatalf("capacity = %d, want 0", c.Capacity())
	}
	if _, ok := c.ReplaceFile(1, []int{0}, [][]byte{[]byte("x")}); ok {
		t.Fatal("replace should fail with zero capacity")
	}
}

func TestFunctionalCachePerFileAccounting(t *testing.T) {
	c := NewFunctionalCache(10)
	c.ReplaceFile(5, []int{0, 1, 2}, [][]byte{{0}, {1}, {2}})
	c.ReplaceFile(6, []int{0}, [][]byte{[]byte("z")})
	if c.ChunksForFile(5) != 3 || c.ChunksForFile(6) != 1 || c.ChunksForFile(7) != 0 {
		t.Fatal("per-file accounting wrong")
	}
	alloc := c.Allocation()
	if alloc[5] != 3 || alloc[6] != 1 {
		t.Fatalf("allocation = %v", alloc)
	}
	file5 := c.GetFile(5)
	if len(file5) != 3 || string(file5[2]) != string([]byte{2}) {
		t.Fatalf("GetFile = %v", file5)
	}

	c.ReplaceFile(5, []int{0, 2}, [][]byte{{0}, {2}})
	if c.ChunksForFile(5) != 2 || c.Len() != 3 {
		t.Fatalf("replace did not update the counts: file %d, len %d", c.ChunksForFile(5), c.Len())
	}
	removed := c.DeleteFile(5)
	if removed != 2 || c.ChunksForFile(5) != 0 || c.Len() != 1 {
		t.Fatalf("DeleteFile removed %d, len %d", removed, c.Len())
	}
}

func TestFunctionalCacheTrimFile(t *testing.T) {
	c := NewFunctionalCache(10)
	c.ReplaceFile(1, []int{10, 11, 12, 13}, [][]byte{{0}, {1}, {2}, {3}})
	evicted := c.TrimFile(1, 2)
	if evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	if c.ChunksForFile(1) != 2 {
		t.Fatalf("remaining %d, want 2", c.ChunksForFile(1))
	}
	// The lowest chunk indices are retained.
	file := c.GetFile(1)
	if _, ok := file[10]; !ok {
		t.Fatal("lowest chunk index should be retained")
	}
	if _, ok := file[13]; ok {
		t.Fatal("highest chunk index should be evicted")
	}
	// Trimming to a larger count is a no-op.
	if c.TrimFile(1, 5) != 0 {
		t.Fatal("trim to larger keep should evict nothing")
	}
	// Trim to zero removes the file entirely.
	if c.TrimFile(1, 0) != 2 || c.ChunksForFile(1) != 0 {
		t.Fatal("trim to zero should remove all chunks")
	}
	// Negative keep behaves like zero.
	c.ReplaceFile(2, []int{0}, [][]byte{[]byte("x")})
	if c.TrimFile(2, -3) != 1 {
		t.Fatal("negative keep should evict everything")
	}
}

func TestFunctionalCacheReplaceFile(t *testing.T) {
	c := NewFunctionalCache(6)
	c.ReplaceFile(2, []int{7}, [][]byte{[]byte("other")})
	c.ReplaceFile(1, []int{7, 8}, [][]byte{{0}, {1}})
	// A different, larger index set replaces the old one entirely.
	evicted, ok := c.ReplaceFile(1, []int{0, 1, 2, 3}, [][]byte{{10}, {11}, {12}, {13}})
	if !ok || evicted != 2 {
		t.Fatalf("ReplaceFile = (%d, %v), want (2, true)", evicted, ok)
	}
	if got := c.GetFile(1); len(got) != 4 || got[0][0] != 10 || got[3][0] != 13 {
		t.Fatalf("file after replace: %v", got)
	}
	if c.Len() != 5 || c.ChunksForFile(2) != 1 {
		t.Fatalf("len %d, neighbour %d", c.Len(), c.ChunksForFile(2))
	}
	// All or nothing: a set that does not fit beside the other files leaves
	// the old set in place.
	six := [][]byte{{1}, {2}, {3}, {4}, {5}, {6}}
	if evicted, ok := c.ReplaceFile(1, []int{7, 8, 9, 10, 11, 12}, six); ok || evicted != 0 {
		t.Fatalf("oversized ReplaceFile = (%d, %v), want (0, false)", evicted, ok)
	}
	if got := c.GetFile(1); len(got) != 4 || got[0][0] != 10 {
		t.Fatalf("refused replace changed the file: %v", got)
	}
	// Exactly filling the capacity is fine: the replaced set's slots count.
	if _, ok := c.ReplaceFile(1, []int{7, 8, 9, 10, 11}, six[:5]); !ok || c.Len() != 6 {
		t.Fatalf("exact-fit replace refused, len %d", c.Len())
	}
	// The empty set deletes the file.
	if evicted, ok := c.ReplaceFile(1, nil, nil); !ok || evicted != 5 || c.ChunksForFile(1) != 0 || c.Len() != 1 {
		t.Fatalf("empty replace = (%d, %v), len %d", evicted, ok, c.Len())
	}
	if evicted, ok := c.ReplaceFile(9, nil, nil); !ok || evicted != 0 {
		t.Fatalf("empty replace of an absent file = (%d, %v)", evicted, ok)
	}
}

// TestFunctionalCacheReplaceFileIsAtomic: a visitor sees one whole set or
// the other, never chunks of both.
func TestFunctionalCacheReplaceFileIsAtomic(t *testing.T) {
	c := NewFunctionalCache(8)
	sets := [2]struct {
		indices  []int
		payloads [][]byte
	}{
		{[]int{0, 1, 2, 3}, [][]byte{{0}, {0}, {0}, {0}}},
		{[]int{7, 8}, [][]byte{{1}, {1}}},
	}
	c.ReplaceFile(1, sets[0].indices, sets[0].payloads)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 2000; i++ {
			c.ReplaceFile(1, sets[i%2].indices, sets[i%2].payloads)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		seen, tag := 0, byte(0)
		c.VisitFile(1, func(idx int, data []byte) bool {
			if seen > 0 && data[0] != tag {
				t.Errorf("visit saw chunks of both sets")
			}
			seen, tag = seen+1, data[0]
			return true
		})
		if want := len(sets[tag].indices); seen != want {
			t.Fatalf("visit saw %d chunks of set %d, want %d", seen, tag, want)
		}
	}
}

func TestFunctionalCacheConcurrency(t *testing.T) {
	c := NewFunctionalCache(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var indices []int
			var payloads [][]byte
			for i := 0; i < 100; i++ {
				indices = append(indices, i)
				payloads = append(payloads, []byte{byte(i)})
				c.ReplaceFile(g, indices, payloads)
				c.VisitFile(g, func(int, []byte) bool { return true })
				c.ChunksForFile(g)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Fatalf("len = %d, want 800", c.Len())
	}
}

func TestLRUBasic(t *testing.T) {
	c := NewLRU(10)
	if err := c.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 10 || c.Len() != 2 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	v, ok := c.Get("a")
	if !ok || string(v) != "12345" {
		t.Fatal("get a failed")
	}
	// Inserting c (5 bytes) evicts the LRU entry, which is now "b".
	if err := c.Put("c", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if c.Contains("b") {
		t.Fatal("b should have been evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should remain")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 0 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, evictions)
	}
}

func TestLRUTooLarge(t *testing.T) {
	c := NewLRU(4)
	if err := c.Put("big", []byte("12345")); err != ErrTooLarge {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(10)
	c.Put("a", []byte("123"))
	c.Put("a", []byte("1234567"))
	if c.Used() != 7 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	c.Remove("a")
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("remove did not clear entry")
	}
	c.Remove("missing") // must not panic
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU(100)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	c.Get("a") // a becomes most recent
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "b" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestLRUMissCounting(t *testing.T) {
	c := NewLRU(10)
	c.Get("nope")
	_, misses, _ := func() (uint64, uint64, uint64) { return c.Stats() }()
	if misses != 1 {
		t.Fatalf("misses = %d", misses)
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	// Property: after any sequence of puts, used <= capacity.
	f := func(sizes []uint8) bool {
		c := NewLRU(64)
		for i, s := range sizes {
			val := make([]byte, int(s)%32)
			_ = c.Put(fmt.Sprintf("k%d", i%10), val)
			if c.Used() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUConcurrency(t *testing.T) {
	c := NewLRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%20)
				_ = c.Put(key, make([]byte, 64))
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 1<<16 {
		t.Fatal("capacity exceeded under concurrency")
	}
}
