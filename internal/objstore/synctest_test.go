//go:build goexperiment.synctest

package objstore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"sprout/internal/queue"
)

// These tests run the OSD's timeline on synctest's virtual clock, where a
// timer fires exactly at its deadline and time only advances once every
// goroutine in the bubble is durably blocked. A goroutine asleep while
// holding a mutex, or blocked on one, is not durably blocked, so a service
// that slept under a lock would hang them instead of failing a timing bound.

// TestSynctestOSDQueueDrainsAtServiceRate: forty concurrent reads of one OSD
// end exactly forty service times after they arrive, one per slot.
func TestSynctestOSDQueueDrainsAtServiceRate(t *testing.T) {
	synctest.Run(func() {
		const (
			requests = 40
			service  = 2500 * time.Microsecond
		)
		osd := NewOSD(0, queue.Deterministic{Value: service.Seconds()}, 0, 1)
		osd.chunks["c"] = make([]byte, 1024)
		start := time.Now()
		ends := make(chan time.Duration, requests)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := osd.GetChunk(context.Background(), "c"); err != nil {
					t.Error(err)
				}
				ends <- time.Since(start)
			}()
		}
		wg.Wait()
		close(ends)
		seen := map[time.Duration]bool{}
		for end := range ends {
			if end%service != 0 || end <= 0 || end > requests*service || seen[end] {
				t.Errorf("a read ended at %v: not the end of a slot of its own", end)
			}
			seen[end] = true
		}
		if elapsed := time.Since(start); elapsed != requests*service {
			t.Fatalf("%d queued %v reads took %v, want exactly %v", requests, service, elapsed, requests*service)
		}
		if served, busy := osd.Stats(); served != requests || busy != requests*service {
			t.Fatalf("Stats = %d served, %v busy; want %d, %v", served, busy, requests, requests*service)
		}
	})
}

// TestSynctestCancelledServiceFreesOSD: a read cancelled in service frees the
// OSD at its cancel time, so the read queued behind it starts then; a read
// cancelled while queued consumes no service at all.
func TestSynctestCancelledServiceFreesOSD(t *testing.T) {
	synctest.Run(func() {
		// 1 ms per KiB: "big" takes 10 ms, "small" 2 ms.
		osd := NewOSD(0, queue.Deterministic{Value: 0.001}, 1024, 1)
		osd.chunks["big"] = make([]byte, 10*1024)
		osd.chunks["small"] = make([]byte, 2*1024)
		start := time.Now()
		read := func(ctx context.Context, key string, after time.Duration, ended chan<- time.Duration, failed chan<- error) {
			time.Sleep(after)
			if _, err := osd.GetChunk(ctx, key); err != nil {
				failed <- err
				return
			}
			ended <- time.Since(start)
		}
		ended, failed := make(chan time.Duration, 3), make(chan error, 3)

		// In service from 0, cancelled at 3 ms; "small" queued at 1 ms
		// starts at 3 ms and ends at 5 ms.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
		defer cancel()
		go read(ctx, "big", 0, ended, failed)
		go read(context.Background(), "small", time.Millisecond, ended, failed)
		if err := <-failed; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("10 ms read under a 3 ms deadline: %v", err)
		}
		if end := <-ended; end != 5*time.Millisecond {
			t.Fatalf("the read queued behind a service cancelled at 3 ms ended at %v, want 5ms", end)
		}

		// At 5 ms: "big" in service until 15 ms; a read queued behind it is
		// cancelled at 7 ms; "small", queued after both, ends at 17 ms.
		start = time.Now().Add(-5 * time.Millisecond)
		queued, cancelQueued := context.WithCancel(context.Background())
		go read(context.Background(), "big", 0, ended, failed)
		go read(queued, "big", time.Millisecond, ended, failed)
		go read(context.Background(), "small", 2*time.Millisecond, ended, failed)
		time.Sleep(2 * time.Millisecond)
		cancelQueued()
		if err := <-failed; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued read: %v", err)
		}
		if a, b := <-ended, <-ended; a != 15*time.Millisecond || b != 17*time.Millisecond {
			t.Fatalf("reads around a cancelled queued one ended at %v and %v, want 15ms and 17ms", a, b)
		}
		if served, busy := osd.Stats(); served != 3 || busy != 14*time.Millisecond {
			t.Fatalf("Stats = %d served, %v busy; want 3, 14ms (nothing for the cancelled reads)", served, busy)
		}
	})
}
