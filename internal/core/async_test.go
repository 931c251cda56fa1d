package core

import (
	"bytes"
	"context"
	"errors"
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

// TestAsyncFetchBatches pins what the read hands an asynchronous fetcher:
// everything launched at one point in one StartFetches call — the initial
// k−d, each failover alone, the hedges together — and nothing through the
// blocking adapter's workers.
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
			if workers := parkedFetchWorkers(ctrl); workers != 0 {
				t.Fatalf("%d fetch workers were started for an asynchronous fetcher", workers)
			}
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
