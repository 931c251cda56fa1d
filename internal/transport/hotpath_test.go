package transport

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestServerCloseMidFlightLeaksNothing closes the server while a burst of
// requests is still in flight and asserts two invariants of the hot path:
// every server goroutine (workers parked on the work queue, conn loops,
// janitor) exits, and every frame-encode lease taken by the write loops is
// returned — even for batches cut short by the teardown.
func TestServerCloseMidFlightLeaksNothing(t *testing.T) {
	framesBefore := FrameArena().Outstanding()
	goroutinesBefore := runtime.NumGoroutine()

	cluster := testClusterWithService(t, 0.002)
	srv := NewServerWithConfig(cluster, ServerConfig{Workers: 4, MaxInFlight: 8, StagedPutTTL: 50 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialConfig(addr, ClientConfig{Conns: 2, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seed(t, cluster, "hot", make([]byte, 4000))

	// Flood from several goroutines, then yank the server out from under
	// them mid-burst. Errors are expected and irrelevant; only leaks fail.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := client.GetChunk(ctx, "data", "hot", i%5); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = client.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= goroutinesBefore &&
			FrameArena().Outstanding() == framesBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: goroutines %d (want <= %d), frame leases outstanding %d (want %d)",
				runtime.NumGoroutine(), goroutinesBefore, FrameArena().Outstanding(), framesBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The work queue must have admitted real traffic for this test to mean
	// anything.
	if st := srv.WorkQueueStats(); st.Pushes == 0 || st.Pops == 0 {
		t.Fatalf("work queue saw no traffic: %+v", st)
	}
}
