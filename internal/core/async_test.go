package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// asyncFake presents a blocking fetcher as an AsyncChunkFetcher: each ref's
// fetch runs on a goroutine of its own and completes the sink from there —
// or, with inline set, runs and completes inside StartFetches before it
// returns. Every sink it hands out fails the test when completed twice.
type asyncFake struct {
	t      *testing.T
	inner  ChunkFetcher
	inline bool

	mu      sync.Mutex
	batches []int // refs per StartFetches call, in call order
}

func newAsyncFake(t *testing.T, inner ChunkFetcher, inline bool) *asyncFake {
	return &asyncFake{t: t, inner: inner, inline: inline}
}

// FetchChunk is never the controller's to call: the fetcher's type selects
// the asynchronous path for every fetch.
func (f *asyncFake) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	f.t.Error("the controller called the blocking FetchChunk of an asynchronous fetcher")
	return f.inner.FetchChunk(ctx, fileID, chunkIndex, nodeID)
}

func (f *asyncFake) StartFetches(ctx context.Context, fileID int, refs []FetchRef) {
	f.mu.Lock()
	f.batches = append(f.batches, len(refs))
	f.mu.Unlock()
	for _, ref := range refs {
		sink := &onceSink{t: f.t, inner: ref.Sink}
		fetch := func() {
			data, info, err := fetchChunkV(ctx, f.inner, fileID, ref.ChunkIndex, ref.NodeID)
			sink.FetchDone(data, info, err)
		}
		if f.inline {
			fetch()
		} else {
			go fetch()
		}
	}
}

func (f *asyncFake) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.batches)
}

// onceSink fails the test on a second completion instead of passing it on.
type onceSink struct {
	t     *testing.T
	inner FetchSink
	calls atomic.Int32
}

func (s *onceSink) FetchDone(data []byte, info StripeInfo, err error) {
	if s.calls.Add(1) != 1 {
		s.t.Error("a fetch sink was completed twice")
		return
	}
	s.inner.FetchDone(data, info, err)
}

// waitGoroutines waits up to five seconds for the goroutine count to fall
// back to want, the count before the goroutines under test were started.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want <= %d (a fetch, fill or loop goroutine leaked)", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncFetchBatches pins what the read hands an asynchronous fetcher:
// everything launched at one point in one StartFetches call — the initial
// k−d, each failover alone, the hedges together — nothing through the
// blocking adapter, and no goroutine left running once the fetches complete.
func TestAsyncFetchBatches(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		serve ServeOptions
		// fetch is the blocking behaviour behind the fake; nil serves the store.
		fetch func(store *fakeStore, release <-chan struct{}) ChunkFetcher
		want  []int
	}{
		{name: "k-d fetches leave in one call", want: []int{3}},
		{name: "a failover is a call of its own",
			fetch: func(store *fakeStore, _ <-chan struct{}) ChunkFetcher {
				var calls atomic.Int64
				return FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
					if calls.Add(1) == 1 {
						return nil, errors.New("bad sector")
					}
					return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
				})
			},
			want: []int{3, 1}},
		{name: "the hedges leave together",
			serve: ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 2},
			fetch: func(store *fakeStore, release <-chan struct{}) ChunkFetcher {
				var calls atomic.Int64
				return FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
					if calls.Add(1) <= 3 {
						<-release // the initial fetches straggle until the hedges are out
					}
					return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
				})
			},
			want: []int{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3, tc.serve)
			release := make(chan struct{})
			var inner ChunkFetcher = store
			if tc.fetch != nil {
				inner = tc.fetch(store, release)
			}
			fake := newAsyncFake(t, inner, false)
			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				got, err := ctrl.Read(ctx, 0, fake)
				if err == nil && !bytes.Equal(got, store.data[0]) {
					err = errors.New("read returned wrong data")
				}
				done <- err
			}()
			// The read cannot finish before its hedges are out: only two
			// candidates are left to hedge over and it needs three chunks.
			for len(fake.batchSizes()) < len(tc.want) {
				time.Sleep(time.Millisecond)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := fake.batchSizes(); !slices.Equal(got, tc.want) {
				t.Fatalf("StartFetches calls carried %v refs, want %v", got, tc.want)
			}
			waitNodesIdle(t, ctrl)
			waitGoroutines(t, before)
		})
	}
}

// TestAsyncCompletionOrder: completions may arrive in any order, from any
// goroutine, some inside StartFetches and some after it returned; the read
// decodes the same bytes.
func TestAsyncCompletionOrder(t *testing.T) {
	ctx := context.Background()
	ctrl, store := backlogController(t, uniformMeans(6, 0.004), 6, 4, ServeOptions{})
	fetcher := &mixedOrderFetcher{fakeStore: store}
	for i := 0; i < 50; i++ {
		got, err := ctrl.Read(ctx, 0, fetcher)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, store.data[0]) {
			t.Fatalf("read %d returned wrong data", i)
		}
	}
	waitNodesIdle(t, ctrl)
}

// mixedOrderFetcher completes the first ref of a batch inside StartFetches
// and the rest from one goroutine, last ref first.
type mixedOrderFetcher struct{ *fakeStore }

func (f *mixedOrderFetcher) StartFetches(ctx context.Context, fileID int, refs []FetchRef) {
	complete := func(ref FetchRef) {
		data, err := f.FetchChunk(ctx, fileID, ref.ChunkIndex, ref.NodeID)
		ref.Sink.FetchDone(data, StripeInfo{}, err)
	}
	complete(refs[0])
	rest := slices.Clone(refs[1:]) // refs is the caller's again once this returns
	go func() {
		for i := len(rest) - 1; i >= 0; i-- {
			complete(rest[i])
		}
	}()
}

// TestHedgeLoserBufferNeverReused: a fetcher that receives chunks into
// FetchRef.Buf answers one fetch of each of the first reads 20 ms late, after
// a hedge has completed the read. The loser still writes into its slot's
// buffer when it lands, so the scratch it belongs to must never serve another
// read: the reads after it, on the same goroutine, return the right bytes
// while the losers land and after.
func TestHedgeLoserBufferNeverReused(t *testing.T) {
	ctx := context.Background()
	ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3,
		ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 1})
	const hedgedReads = 3
	f := &receivingFetcher{fakeStore: store}
	f.held.Store(hedgedReads)
	for i := 0; i < hedgedReads; i++ {
		if _, err := ctrl.Read(ctx, 0, f); err != nil {
			t.Fatal(err)
		}
	}
	for n, after := 0, 0; n < 200 || after < 20; n++ {
		if f.landed.Load() == hedgedReads {
			after++
		}
		got, err := ctrl.Read(ctx, 0, f)
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if !bytes.Equal(got, store.data[0]) {
			t.Fatalf("read %d returned wrong data", n)
		}
	}
	f.wg.Wait()
	if ctrl.Stats().HedgeWins < hedgedReads {
		t.Fatalf("%d hedge wins, want at least %d: the late fetches did not lose", ctrl.Stats().HedgeWins, hedgedReads)
	}
	waitNodesIdle(t, ctrl)
}

// receivingFetcher receives each chunk into its ref's Buf, as the transport
// does, and completes it inside StartFetches — except, while held is
// positive, the first fetch of a read's initial batch (a hedge leaves alone),
// which it completes 20 ms later from a goroutine of its own.
type receivingFetcher struct {
	*fakeStore
	held, landed atomic.Int32
	wg           sync.WaitGroup
}

func (f *receivingFetcher) StartFetches(ctx context.Context, fileID int, refs []FetchRef) {
	for i, ref := range refs {
		complete := func() {
			data, err := f.FetchChunk(ctx, fileID, ref.ChunkIndex, ref.NodeID)
			if err == nil && cap(ref.Buf) >= len(data) {
				data = append(ref.Buf[:0], data...)
			}
			ref.Sink.FetchDone(data, StripeInfo{}, err)
		}
		if i == 0 && len(refs) > 1 && f.held.Add(-1) >= 0 {
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				time.Sleep(20 * time.Millisecond)
				complete()
				f.landed.Add(1)
			}()
			continue
		}
		complete()
	}
}
