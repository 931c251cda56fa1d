package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sprout/internal/resilience"
)

// TestDeadlineWireRoundTrip pins the deadline field's place in the wire
// format and its error mapping: an expired request comes back as
// context.DeadlineExceeded, overload classifies as resilience overload.
func TestDeadlineWireRoundTrip(t *testing.T) {
	req := Request{ID: 42, Op: OpGetChunk, Pool: "ec", Object: "obj", Chunk: 3,
		Deadline: uint64(time.Now().Add(time.Second).UnixNano())}
	got, err := decodeRequest(body(appendRequest(nil, &req)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deadline != req.Deadline {
		t.Fatalf("deadline round trip: got %d, want %d", got.Deadline, req.Deadline)
	}
	if req.Expired(time.Now()) {
		t.Fatal("future deadline reported expired")
	}
	if !req.Expired(time.Now().Add(2 * time.Second)) {
		t.Fatal("past deadline not reported expired")
	}
	if (&Request{}).Expired(time.Now()) {
		t.Fatal("zero deadline must mean no deadline")
	}

	errDL := errorFromResponse(&Response{Code: codeDeadlineExceeded, Err: "expired"})
	if !errors.Is(errDL, context.DeadlineExceeded) {
		t.Fatalf("codeDeadlineExceeded error = %v, want Is(context.DeadlineExceeded)", errDL)
	}
	errOv := errorFromResponse(&Response{Code: codeOverloaded, Err: "busy"})
	if !errors.Is(errOv, ErrOverloaded) || !resilience.IsOverload(errOv) {
		t.Fatalf("codeOverloaded error = %v, want Is(ErrOverloaded) and IsOverload", errOv)
	}
	if resilience.IsOverload(errDL) {
		t.Fatal("deadline-exceeded must not classify as overload")
	}
}

// TestOverloadRetryUnderBudget drives a tiny server far past its in-flight
// limit: with backoff retries the budget never denies, every request
// eventually lands — the overload rejections are absorbed by replays
// instead of surfacing to callers.
func TestOverloadRetryUnderBudget(t *testing.T) {
	cluster := testClusterWithService(t, 0.005)
	srv, client := startServerWithConfig(t, cluster,
		ServerConfig{Workers: 1, MaxInFlight: 1},
		ClientConfig{
			Conns:         1,
			Retries:       20,
			NoRetryBudget: true,
		})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	seed(t, cluster, "hot", make([]byte, 3000))
	const goroutines = 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := client.GetChunk(ctx, "data", "hot", 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("read failed despite budgeted retries: %v", err)
		}
	}
	st := client.Stats()
	if st.OverloadRejections == 0 {
		t.Fatal("expected overload rejections under a 1-deep server queue")
	}
	if st.Retries == 0 {
		t.Fatal("expected budgeted retries to absorb the overloads")
	}
	if srv.Stats().OverloadRejections == 0 {
		t.Fatal("server did not count overload rejections")
	}
}

// TestRetryBudgetStopsRetryStorm starves the budget under sustained
// overload: retries must be denied (the storm is cut off) and the original
// overload error must surface to callers.
func TestRetryBudgetStopsRetryStorm(t *testing.T) {
	cluster := testClusterWithService(t, 0.05)
	_, client := startServerWithConfig(t, cluster,
		ServerConfig{Workers: 1, MaxInFlight: 1},
		ClientConfig{Conns: 1, Retries: 10})
	budget := client.RetryBudget()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	seed(t, cluster, "hot", make([]byte, 3000))
	const goroutines = 10
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := client.GetChunk(ctx, "data", "hot", 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var overloaded int
	for err := range errs {
		if err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("unexpected error under overload: %v", err)
			}
			overloaded++
		}
	}
	if overloaded == 0 {
		t.Fatal("drained budget should have surfaced overload errors")
	}
	if client.Stats().RetriesDenied == 0 {
		t.Fatal("expected the budget to deny retries")
	}
	if budget.Exhausted() == 0 {
		t.Fatal("budget did not record exhaustion")
	}
	// The denied-retry error must still classify as overload so upstream
	// planes (breakers, retry budgets) treat it correctly.
	if !resilience.IsOverload(errorFromResponse(&Response{Code: codeOverloaded})) {
		t.Fatal("surfaced overload lost its classification")
	}
}

// TestDeadlineShedAtDequeue queues requests behind a slow one with
// deadlines that expire while they wait: the server must shed them at
// dequeue (counted in DeadlineRejections) instead of burning its worker on
// work nobody is waiting for, and the client must not retry them.
func TestDeadlineShedAtDequeue(t *testing.T) {
	cluster := testClusterWithService(t, 0.3)
	srv, client := startServerWithConfig(t, cluster,
		ServerConfig{Workers: 1, MaxInFlight: 32}, ClientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	seed(t, cluster, "slow", make([]byte, 3000))

	// Occupy the single worker with a slow read.
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := client.GetChunk(ctx, "data", "slow", 0)
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// These queue behind it and expire in the queue.
	const queued = 4
	var wg sync.WaitGroup
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qctx, qcancel := context.WithTimeout(ctx, 60*time.Millisecond)
			defer qcancel()
			_, _, err := client.GetChunk(qctx, "data", "slow", 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued read = %v, want DeadlineExceeded", err)
		}
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow read failed: %v", err)
	}
	deadline := waitForCounter(t, func() int64 { return srv.Stats().DeadlineRejections })
	if deadline == 0 {
		t.Fatal("server did not shed expired queued work")
	}
	if got := client.Stats().Retries; got != 0 {
		t.Fatalf("client retried %d times; expired requests must not be retried", got)
	}
}

// waitForCounter polls a counter until it goes positive or a grace period
// elapses — shed responses race the clients' own deadline errors.
func waitForCounter(t *testing.T, read func() int64) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := read(); v > 0 || time.Now().After(deadline) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBrokenConnRetrySucceeds pins that broken-connection replay still
// works under the budgeted retry loop, and that the surfaced error after
// disabled retries names the connection, not the budget.
func TestBrokenConnRetrySucceeds(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	_, client := startServerWithConfig(t, cluster, ServerConfig{},
		ClientConfig{Conns: 2})
	ctx := context.Background()
	seed(t, cluster, "obj", make([]byte, 3000))
	// Break every pooled connection out from under the client.
	breakConns(client)
	if _, _, err := client.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatalf("read after broken connections = %v, want redial-and-retry success", err)
	}
}

// breakConns fails every pooled connection out from under the client.
func breakConns(client *Client) {
	for i := range client.slots {
		if cc := client.slots[i].cc.Load(); cc != nil {
			cc.fail(errConnBroken)
		}
	}
}
